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
/// once and indexes the population (PopulationIndex over covering-ball +
/// weight-prefix summaries); queries prune candidates through the index
/// by default before pricing survivors with branch-and-bound bounded
/// distances — see population_index.h and bounded_scan.h. The linear
/// scans stay available as the index's oracle (QueryMode::kScan).

#include <string>
#include <utility>
#include <vector>

#include "attacks/attack.h"
#include "attacks/population_index.h"
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

  /// Compiles the anonymous-side MMC exactly as the optimized queries do
  /// internally. Exposed so the streaming gateway can cache it and rebuild
  /// under a staleness bound (MMC extraction is not incrementally
  /// maintainable the way heatmap counts are).
  [[nodiscard]] profiles::CompiledMarkovProfile compile_anonymous(
      const mobility::Trace& trace) const {
    return profiles::CompiledMarkovProfile(
        profiles::MarkovProfile::from_trace(trace, params_));
  }

  /// Targeted query over a pre-compiled anonymous MMC. Decision-identical
  /// to reidentifies_target(trace, owner) whenever `anonymous_profile`
  /// equals compile_anonymous(trace). Index by default, linear scan in
  /// kScan mode.
  [[nodiscard]] bool reidentifies_compiled(
      const profiles::CompiledMarkovProfile& anonymous_profile,
      const mobility::UserId& owner) const;

  /// Stay-clustering parameters of this attack's profiles — the decision
  /// kernel shares one stay tracker across attacks whose params agree.
  [[nodiscard]] const clustering::PoiParams& params() const { return params_; }

 private:
  clustering::PoiParams params_;
  double proximity_scale_m_;
  std::vector<std::pair<mobility::UserId, profiles::CompiledMarkovProfile>>
      compiled_;
  /// Pruning index over compiled_; rebuilt by train(). Depends on
  /// proximity_scale_m_, so it must be declared after it.
  PopulationIndex<PitIndexTraits> index_{PitIndexTraits{proximity_scale_m_}};
  QueryMode mode_ = QueryMode::kIndex;
};

}  // namespace mood::attacks
