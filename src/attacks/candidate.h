#pragma once

/// \file candidate.h
/// One anonymous trace as every attack of a suite reads it (Algorithm 1,
/// lines 8-10, asks each attack about the same output). A Candidate wraps
/// the trace and builds each compiled form at most once, on first use: the
/// AP heatmap, and the stay states of ONE extract_pois, which compile into
/// both the POI set and the Markov states, so POI and PIT share one stay
/// extraction. The decision kernel hands in the forms it maintains instead
/// (use_heatmap, use_stays). A trace converts implicitly, so trace-form
/// queries compile as before.
///
/// One heatmap grid and one stay clustering per candidate: asking with
/// another throws PreconditionError. Per query and single-threaded; the
/// trace and handed-in forms must outlive it, and the forms it returns
/// live as long as it does.

#include <optional>
#include <vector>

#include "clustering/poi_extraction.h"
#include "geo/cell_grid.h"
#include "mobility/trace.h"
#include "profiles/heatmap.h"
#include "profiles/markov_profile.h"
#include "profiles/poi_profile.h"
#include "support/error.h"

namespace mood::attacks {

class Candidate {
 public:
  Candidate(const mobility::Trace& trace)  // NOLINT: implicit by design
      : trace_(&trace) {}
  Candidate(const Candidate&) = delete;
  Candidate& operator=(const Candidate&) = delete;

  /// Hands in forms already compiled for trace(): its AP heatmap on
  /// `grid`, or its Markov and POI forms clustered with `params`.
  void use_heatmap(const profiles::CompiledHeatmap& heatmap,
                   const geo::CellGrid& grid) {
    bind(grid_, grid);
    heatmap_ = &heatmap;
  }
  void use_stays(const profiles::CompiledMarkovProfile& markov,
                 const profiles::CompiledPoiProfile& poi,
                 const clustering::PoiParams& params) {
    bind(stay_params_, params);
    markov_ = &markov;
    poi_ = &poi;
  }

  [[nodiscard]] const mobility::Trace& trace() const { return *trace_; }
  [[nodiscard]] const profiles::CompiledHeatmap& heatmap(
      const geo::CellGrid& grid) const {
    bind(grid_, grid);
    return built(heatmap_, own_heatmap_, [&] {
      return profiles::CompiledHeatmap::from_trace(*trace_, grid);
    });
  }
  [[nodiscard]] const profiles::CompiledMarkovProfile& markov(
      const clustering::PoiParams& params) const {
    bind(stay_params_, params);
    return built(markov_, own_markov_, [&] {
      return profiles::CompiledMarkovProfile::from_states(states(params));
    });
  }
  [[nodiscard]] const profiles::CompiledPoiProfile& poi(
      const clustering::PoiParams& params) const {
    bind(stay_params_, params);
    return built(poi_, own_poi_, [&] {
      return profiles::CompiledPoiProfile::from_states(states(params));
    });
  }

 private:
  template <typename T>
  static void bind(std::optional<T>& bound, const T& asked) {
    if (!bound) bound = asked;
    support::expects(*bound == asked,
                     "attacks::Candidate: one heatmap grid and one stay "
                     "clustering per candidate");
  }
  /// `*form`, building it into `own` on first use.
  template <typename T, typename Build>
  static const T& built(const T*& form, std::optional<T>& own, Build build) {
    if (form == nullptr) form = &own.emplace(build());
    return *form;
  }
  [[nodiscard]] const std::vector<clustering::Poi>& states(
      const clustering::PoiParams& params) const {
    if (!states_) {
      states_ = clustering::build_visit_sequence(
                    clustering::extract_pois(*trace_, params),
                    params.max_diameter_m)
                    .states;
    }
    return *states_;
  }

  const mobility::Trace* trace_;
  mutable std::optional<geo::CellGrid> grid_;
  mutable std::optional<clustering::PoiParams> stay_params_;
  // Each form is read through its pointer: a handed-in form, or the
  // candidate's own in the matching optional.
  mutable const profiles::CompiledHeatmap* heatmap_ = nullptr;
  mutable const profiles::CompiledMarkovProfile* markov_ = nullptr;
  mutable const profiles::CompiledPoiProfile* poi_ = nullptr;
  mutable std::optional<profiles::CompiledHeatmap> own_heatmap_;
  mutable std::optional<profiles::CompiledMarkovProfile> own_markov_;
  mutable std::optional<profiles::CompiledPoiProfile> own_poi_;
  mutable std::optional<std::vector<clustering::Poi>> states_;
};

}  // namespace mood::attacks
