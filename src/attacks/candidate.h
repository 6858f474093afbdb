#pragma once

/// \file candidate.h
/// One anonymous trace as every attack of a suite reads it (Algorithm 1,
/// lines 8-10, asks each attack about the same output). A Candidate wraps
/// the trace and builds each compiled form at most once, on first use: the
/// AP heatmap, and the stay states of ONE extract_pois, which compile into
/// both the POI set and the Markov states, so POI and PIT share one stay
/// extraction. A trace converts implicitly, projecting its stays from its
/// own first record; the decision kernel passes the origin it pinned at a
/// user's first-ever record instead, so a sliding window's stays do not
/// move when its front does.
///
/// One heatmap grid and one stay clustering per candidate: asking with
/// another throws PreconditionError. Per query and single-threaded; the
/// trace must outlive it, and the forms it returns live as long as it
/// does.

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
      : Candidate(trace,
                  trace.empty() ? geo::GeoPoint{} : trace.front().position) {}
  /// Stays projected from `stay_origin` (extract_pois' origin overload).
  Candidate(const mobility::Trace& trace, const geo::GeoPoint& stay_origin)
      : trace_(&trace), stay_origin_(stay_origin) {}
  Candidate(const Candidate&) = delete;
  Candidate& operator=(const Candidate&) = delete;

  [[nodiscard]] const mobility::Trace& trace() const { return *trace_; }
  [[nodiscard]] const profiles::CompiledHeatmap& heatmap(
      const geo::CellGrid& grid) const {
    bind(grid_, grid);
    return built(heatmap_, [&] {
      return profiles::CompiledHeatmap::from_trace(*trace_, grid);
    });
  }
  [[nodiscard]] const profiles::CompiledMarkovProfile& markov(
      const clustering::PoiParams& params) const {
    bind(stay_params_, params);
    return built(markov_, [&] {
      return profiles::CompiledMarkovProfile::from_states(states(params));
    });
  }
  [[nodiscard]] const profiles::CompiledPoiProfile& poi(
      const clustering::PoiParams& params) const {
    bind(stay_params_, params);
    return built(poi_, [&] {
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
  /// `form`, building it on first use.
  template <typename T, typename Build>
  static const T& built(std::optional<T>& form, Build build) {
    if (!form) form.emplace(build());
    return *form;
  }
  [[nodiscard]] const std::vector<clustering::Poi>& states(
      const clustering::PoiParams& params) const {
    if (!states_) {
      states_ = clustering::build_visit_sequence(
                    clustering::extract_pois(*trace_, params, stay_origin_),
                    params.max_diameter_m)
                    .states;
    }
    return *states_;
  }

  const mobility::Trace* trace_;
  geo::GeoPoint stay_origin_;
  mutable std::optional<geo::CellGrid> grid_;
  mutable std::optional<clustering::PoiParams> stay_params_;
  mutable std::optional<profiles::CompiledHeatmap> heatmap_;
  mutable std::optional<profiles::CompiledMarkovProfile> markov_;
  mutable std::optional<profiles::CompiledPoiProfile> poi_;
  mutable std::optional<std::vector<clustering::Poi>> states_;
};

}  // namespace mood::attacks
