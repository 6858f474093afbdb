#pragma once

/// \file poi_attack.h
/// POI-Attack [Primault et al. 2014] (paper §4.1.1): profiles are POI sets;
/// an anonymous trace is attributed to the known user whose POIs are
/// geographically closest (mean nearest-POI distance).
///
/// train() compiles every trained POI set (precomputed trigonometry) once;
/// queries answer with the branch-and-bound scans of bounded_scan.h over
/// the compiled population, pricing candidates with bounded distances.

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "attacks/attack.h"
#include "attacks/bounded_scan.h"
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

  [[nodiscard]] IndexStats index_stats() const override {
    return counters_.stats();
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
  /// `anonymous_profile` equals compile_anonymous(trace).
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
  std::unordered_map<mobility::UserId, std::size_t> owner_index_;
  IndexCounters counters_;
};

}  // namespace mood::attacks
