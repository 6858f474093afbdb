#pragma once

/// \file poi_attack.h
/// POI-Attack [Primault et al. 2014] (paper §4.1.1): profiles are POI sets;
/// an anonymous trace is attributed to the known user whose POIs are
/// geographically closest (mean nearest-POI distance).
///
/// train() compiles every trained POI set (precomputed trigonometry) once
/// and indexes the population (PopulationIndex over covering-ball
/// summaries); queries prune candidates through the index by default
/// before pricing survivors with branch-and-bound bounded distances — see
/// population_index.h and bounded_scan.h. The linear scans stay available
/// as the index's oracle (QueryMode::kScan).

#include <string>
#include <utility>
#include <vector>

#include "attacks/attack.h"
#include "attacks/population_index.h"
#include "clustering/poi_extraction.h"
#include "profiles/poi_profile.h"

namespace mood::attacks {

class PoiAttack final : public Attack {
 public:
  /// Paper defaults: clustering diameter 200 m, dwell 1 h.
  explicit PoiAttack(clustering::PoiParams params = {})
      : params_(params) {}

  [[nodiscard]] std::string name() const override { return "POI-Attack"; }

  void train(const std::vector<mobility::Trace>& background) override;

  [[nodiscard]] std::optional<mobility::UserId> reidentify(
      const mobility::Trace& anonymous_trace) const override;

  [[nodiscard]] bool reidentifies_target(
      const mobility::Trace& anonymous_trace,
      const mobility::UserId& owner) const override;

  [[nodiscard]] std::size_t trained_users() const override {
    return compiled_.size();
  }

  void set_query_mode(QueryMode mode) override { mode_ = mode; }
  [[nodiscard]] QueryMode query_mode() const override { return mode_; }
  [[nodiscard]] IndexStats index_stats() const override {
    return index_.stats();
  }

  /// Compiles the anonymous-side POI set exactly as the optimized queries
  /// do internally. Exposed so the streaming gateway can cache it and
  /// rebuild under a staleness bound (POI clustering is not incrementally
  /// maintainable the way heatmap counts are).
  [[nodiscard]] profiles::CompiledPoiProfile compile_anonymous(
      const mobility::Trace& trace) const {
    return profiles::CompiledPoiProfile(
        profiles::PoiProfile::from_trace(trace, params_));
  }

  /// Targeted query over a pre-compiled anonymous POI set. Decision-
  /// identical to reidentifies_target(trace, owner) whenever
  /// `anonymous_profile` equals compile_anonymous(trace). Index by
  /// default, linear scan in kScan mode.
  [[nodiscard]] bool reidentifies_compiled(
      const profiles::CompiledPoiProfile& anonymous_profile,
      const mobility::UserId& owner) const;

  /// Stay-clustering parameters of this attack's profiles — the decision
  /// kernel shares one stay tracker across attacks whose params agree.
  [[nodiscard]] const clustering::PoiParams& params() const { return params_; }

 private:
  clustering::PoiParams params_;
  std::vector<std::pair<mobility::UserId, profiles::CompiledPoiProfile>>
      compiled_;
  /// Pruning index over compiled_; rebuilt by train().
  PopulationIndex<PoiIndexTraits> index_;
  QueryMode mode_ = QueryMode::kIndex;
};

}  // namespace mood::attacks
