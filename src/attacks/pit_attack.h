#pragma once

/// \file pit_attack.h
/// PIT-Attack [Gambs et al. 2014] (paper §4.1.1): profiles are Mobility
/// Markov Chains; the anonymous MMC is attributed to the known user whose
/// chain minimises the stats-prox distance (stationary-weight distance
/// combined with geographic proximity of matched states — the variant the
/// original paper reports as most effective; exact formula documented at
/// profiles::stats_prox_distance).
///
/// train() compiles every trained chain (precomputed state trigonometry)
/// once; queries answer with the branch-and-bound scans of bounded_scan.h
/// over the compiled population, pricing candidates with bounded
/// distances.

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "attacks/attack.h"
#include "attacks/bounded_scan.h"
#include "clustering/poi_extraction.h"
#include "profiles/markov_profile.h"

namespace mood::attacks {

class PitAttack final : public Attack {
 public:
  /// `proximity_scale_m` converts geographic proximity to the dimensionless
  /// scale of the stationary distance (1 km by default).
  explicit PitAttack(clustering::PoiParams params = {},
                     double proximity_scale_m = 1000.0)
      : params_(params), proximity_scale_m_(proximity_scale_m) {}

  [[nodiscard]] std::string name() const override { return "PIT-Attack"; }

  void train(const std::vector<mobility::Trace>& background) override;

  [[nodiscard]] std::optional<mobility::UserId> reidentify(
      const mobility::Trace& anonymous_trace) const override;

  /// Reads the candidate's Markov states, clustered with params().
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
  double proximity_scale_m_;
  std::vector<std::pair<mobility::UserId, profiles::CompiledMarkovProfile>>
      compiled_;
  std::unordered_map<mobility::UserId, std::size_t> owner_index_;
  IndexCounters counters_;
};

}  // namespace mood::attacks
