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

  /// Reads the candidate's POI set, clustered with params().
  [[nodiscard]] bool reidentifies_target(
      const Candidate& candidate,
      const mobility::UserId& owner) const override;

  [[nodiscard]] std::size_t trained_users() const override {
    return compiled_.size();
  }

  [[nodiscard]] IndexStats index_stats() const override {
    return counters_.stats();
  }

  /// Stay-clustering parameters of this attack's profiles — one stay
  /// extraction serves every attack of a suite, so their params agree.
  [[nodiscard]] const clustering::PoiParams& params() const { return params_; }

 private:
  clustering::PoiParams params_;
  std::vector<std::pair<mobility::UserId, profiles::CompiledPoiProfile>>
      compiled_;
  std::unordered_map<mobility::UserId, std::size_t> owner_index_;
  IndexCounters counters_;
};

}  // namespace mood::attacks
