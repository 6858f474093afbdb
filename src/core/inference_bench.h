#pragma once

/// \file inference_bench.h
/// A/B measurement harness for the attack-inference hot path.
///
/// Every trained attack answers queries either through its population
/// index (attacks::QueryMode::kIndex, the production default) or through
/// the linear branch-and-bound scans the index is validated against
/// (kScan, the oracle). The bench times the same workload through both
/// and — just as importantly — verifies the two agree decision for
/// decision, so a perf regression hunt can never silently trade
/// correctness for speed:
///
///  * one re-identification microbench per attack: the targeted
///    reidentifies_target(test_trace, owner) predicate over every
///    train/test pair (the exact query Algorithm 1 issues), plus an
///    untimed argmin agreement sweep;
///  * optionally the full evaluate_mood_full pipeline, compared field by
///    field (data_loss, distortion bands, per-user levels/winners/
///    distortions, search-cost counters).
///
/// Results serialize through report::make_bench_report into the versioned
/// "mood-bench/1" JSON document (`mood bench`, bench/perf_attack_inference).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.h"

namespace mood::core {

/// Outcome of one A/B case. "reference" is the kScan oracle, "optimized"
/// the kIndex production path.
struct InferenceBenchCase {
  std::string name;       ///< "ap-attack-reidentify", "evaluate-mood-full"...
  std::size_t queries = 0;            ///< workload size per timed pass
  std::size_t reference_passes = 1;   ///< timed passes actually averaged over
  std::size_t optimized_passes = 1;   ///< (the fast path repeats more often)
  double reference_seconds = 0.0;     ///< one pass, linear-scan oracle
  double optimized_seconds = 0.0;     ///< one pass, population index
  bool agreement = true;          ///< both paths decided identically
  std::string mismatch;           ///< first disagreement ("" when none)

  // Index work counter deltas over the optimized timed passes. pruned +
  // exact can undershoot candidates — a targeted query stops at the first
  // defeat.
  std::uint64_t index_queries = 0;        ///< queries served by the index
  std::uint64_t index_candidates = 0;     ///< queries x population
  std::uint64_t index_pruned = 0;         ///< skipped via lower bounds
  std::uint64_t index_exact_evals = 0;    ///< priced exactly

  [[nodiscard]] double speedup() const {
    return optimized_seconds > 0.0 ? reference_seconds / optimized_seconds
                                   : 0.0;
  }
  /// Fraction of candidates eliminated without exact pricing.
  [[nodiscard]] double prune_rate() const {
    return index_candidates > 0
               ? static_cast<double>(index_pruned) /
                     static_cast<double>(index_candidates)
               : 0.0;
  }
  /// Exact divergence evaluations per index query — the sublinearity
  /// metric BENCH_pr6.json tracks against population size.
  [[nodiscard]] double exact_evals_per_query() const {
    return index_queries > 0 ? static_cast<double>(index_exact_evals) /
                                   static_cast<double>(index_queries)
                             : 0.0;
  }
};

struct InferenceBenchOptions {
  /// Minimum timed passes per reidentify microbench. The timer keeps
  /// repeating beyond this until the section is long enough to resolve
  /// (tiny smoke presets finish a pass in microseconds), reports seconds
  /// per pass, and records the pass counts actually used
  /// (reference_passes / optimized_passes).
  std::size_t repetitions = 3;
  bool run_full = true;         ///< include the evaluate_mood_full A/B case
  std::vector<std::size_t> attack_subset;  ///< indices; empty = all
};

/// Runs the microbenches (and, if configured, the full-pipeline A/B) on a
/// built harness. Leaves the harness in the production query mode
/// (kIndex). Cases appear in attack order followed by
/// "evaluate-mood-full".
std::vector<InferenceBenchCase> run_inference_bench(
    const ExperimentHarness& harness, const InferenceBenchOptions& options);

/// True iff every case agrees.
bool all_agree(const std::vector<InferenceBenchCase>& cases);

}  // namespace mood::core
