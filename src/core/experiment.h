#pragma once

/// \file experiment.h
/// The evaluation harness behind every table and figure of the paper.
///
/// Built once per dataset, it owns the full experimental context:
///   * the chronological train/test split (§4.2, 15d/15d by default),
///   * the trained attack suite A = {POI, PIT, AP} (§4.1.1),
///   * the LPPM registry L = {GeoI, TRL, HMC} with paper parameters
///     (§4.1.2) and the derived composition set C \ L,
///   * the STD utility metric (§3.5).
///
/// evaluate() reproduces the experiment grid: no-LPPM / each single LPPM /
/// HybridLPPM / MooD composition search / full MooD (24 h pre-slicing and
/// recursive fine-grained protection). It runs one MooD search per user
/// and reads every requested row off it, so the rows nest per user by
/// construction and a row does not depend on what else was requested.
/// The pass parallelises over users and is deterministic for a fixed seed.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "attacks/attack.h"
#include "attacks/suite.h"
#include "decision/kernel.h"
#include "decision/mood_engine.h"
#include "lppm/heatmap_confusion.h"
#include "lppm/registry.h"
#include "metrics/data_loss.h"
#include "metrics/distortion.h"
#include "mobility/dataset.h"

namespace mood::core {

// The decision procedure itself lives one layer down (mood::decision, the
// library shared with the online gateway); the harness's result types are
// built from its vocabulary, so core re-exports those spellings.
using decision::MoodConfig;
using decision::MoodEngine;
using decision::ProtectedPiece;
using decision::ProtectionLevel;
using decision::ProtectionResult;
using decision::renew_ids;
using decision::to_string;

/// Full experimental configuration with the paper's defaults.
struct ExperimentConfig {
  double train_fraction = 0.5;          ///< 15 of 30 days
  std::size_t min_records = 16;         ///< "active users" filter per half
  attacks::SuiteParams attack_params;   ///< 200 m/1 h POIs, 800 m cells
  double geoi_epsilon = 0.01;           ///< §4.1.2 (per metre)
  double trl_radius_m = 1000.0;         ///< §4.1.2
  double hmc_hot_coverage = 0.85;       ///< HMC alignment mass coverage
  std::size_t hmc_max_cells = 32;       ///< HMC alignment budget (cells)
  double hmc_budget_m = 6000.0;         ///< HMC relocation budget (metres)
  MoodConfig mood;                      ///< delta = 4 h, preslice = 24 h
};

/// Per-user outcome of a protection strategy.
struct UserOutcome {
  mobility::UserId user;
  bool is_protected = false;   ///< all considered attacks defeated
  double distortion = 0.0;     ///< STD of the retained output (if protected)
  std::size_t records = 0;     ///< user's original (test) records
  std::string winner;          ///< winning LPPM name ("" if none / raw)
};

/// Aggregated result of one strategy on one dataset.
struct StrategyResult {
  std::string strategy;
  std::vector<UserOutcome> users;

  [[nodiscard]] std::size_t user_count() const { return users.size(); }
  [[nodiscard]] std::size_t non_protected_users() const;
  [[nodiscard]] double non_protected_ratio() const;
  /// Eq. 7: records of non-protected users / all records.
  [[nodiscard]] double data_loss() const;
  /// Protected-user counts per Fig. 9 distortion band
  /// [low, medium, high, extreme].
  [[nodiscard]] std::array<std::size_t, 4> distortion_bands() const;
};

/// Per-user outcome of the full MooD pipeline (composition search, then
/// 24 h slices + recursive fine-grained protection for the remainder).
struct MoodUserOutcome {
  mobility::UserId user;
  ProtectionLevel level = ProtectionLevel::kNone;
  std::size_t records = 0;             ///< original test records
  std::size_t lost_records = 0;        ///< erased (Eq. 7 numerator share)
  std::size_t subtraces = 0;           ///< 24 h slices examined (0 if whole)
  std::size_t protected_subtraces = 0; ///< slices fully protected
  double distortion = 0.0;             ///< record-weighted mean piece STD
  std::string winner;                  ///< whole-trace winner ("" if split)
  std::size_t lppm_applications = 0;   ///< search cost
  std::size_t attack_invocations = 0;

  [[nodiscard]] bool fully_protected() const { return lost_records == 0; }
};

/// Per-user outcome of the gateway decision procedure run in batch mode
/// (one DecisionKernel pass over the full test trace): expose when no
/// trained attack re-identifies the raw trace, otherwise protect with the
/// whole-trace mechanism-search winner. This is exactly what the online
/// gateway's finish() converges to on a non-lossy window — `mood replay`
/// verifies the streamed decisions against this evaluator.
struct GatewayOutcome {
  mobility::UserId user;
  decision::Decision decision = decision::Decision::kExpose;
  std::string winner;          ///< "" when exposed or nothing protects
  std::size_t records = 0;     ///< user's original (test) records
};

/// Aggregated result of the batch gateway pass.
struct GatewayResult {
  std::vector<GatewayOutcome> users;  ///< in pairs() order

  [[nodiscard]] std::size_t exposed_users() const;
};

/// Aggregate view of the full-MooD outcomes.
struct MoodResult {
  std::vector<MoodUserOutcome> users;

  [[nodiscard]] std::size_t non_protected_users() const;  ///< any loss
  [[nodiscard]] double data_loss() const;                 ///< Eq. 7, records
  [[nodiscard]] std::array<std::size_t, 4> distortion_bands() const;
  /// Aggregate search cost across users (for deployment-cost reporting).
  [[nodiscard]] std::size_t total_lppm_applications() const;
  [[nodiscard]] std::size_t total_attack_invocations() const;
};

/// The rows of one ExperimentHarness::evaluate() pass.
struct EvaluationGrid {
  /// One row per requested strategy, in request order ("MooD-full" is a
  /// MoodResult, every other strategy a StrategyResult).
  std::vector<std::variant<StrategyResult, MoodResult>> rows;
  double wall_seconds = 0.0;  ///< the whole pass (its rows share the work)
};

class ExperimentHarness {
 public:
  /// Builds the whole context: split, train attacks, instantiate LPPMs.
  /// `seed` drives both LPPM noise and any tie-breaking.
  ExperimentHarness(const mobility::Dataset& dataset, ExperimentConfig config,
                    std::uint64_t seed = 7);

  // ---- Context access -----------------------------------------------
  [[nodiscard]] const std::vector<mobility::TrainTestPair>& pairs() const {
    return pairs_;
  }
  [[nodiscard]] const std::vector<attacks::AttackPtr>& attacks() const {
    return attacks_;
  }
  [[nodiscard]] const lppm::LppmRegistry& registry() const {
    return registry_;
  }
  [[nodiscard]] const ExperimentConfig& config() const { return config_; }
  [[nodiscard]] const std::string& dataset_name() const {
    return dataset_name_;
  }
  [[nodiscard]] std::size_t total_test_records() const;

  // ---- Evaluation -----------------------------------------------------
  // `attack_subset` holds indices into attacks(); empty means "all".

  /// The strategy grid in one pass over users. `strategies` names rows:
  ///   * "no-LPPM": raw traces, the kernel's risk query (Fig. 6/7 bar);
  ///   * a single LPPM of registry() ("GeoI", "TRL", "HMC"): that LPPM
  ///     for everybody, priced by the search's singles pass; an
  ///     unprotected row keeps the LPPM's name (Fig. 2/3/6/7 bars);
  ///   * "HybridLPPM": the search winner when it is a single, i.e. the
  ///     per-user best protective single (Algorithm 1 lines 4-14);
  ///   * "MooD": the search winner, compositions included (Fig. 6/7);
  ///   * "MooD-full": the search winner, else 24 h pre-slicing and
  ///     recursive fine-grained protection (§4.2, Fig. 8/10).
  /// Each user gets at most one MoodEngine::search: over C \ L only when
  /// "MooD" or "MooD-full" is requested, over the requested singles alone
  /// when no HybridLPPM or MooD row is, and none when only "no-LPPM" is.
  /// Throws PreconditionError for an unknown name.
  [[nodiscard]] EvaluationGrid evaluate(
      const std::vector<std::string>& strategies,
      const std::vector<std::size_t>& attack_subset = {}) const;

  /// The online decision procedure in batch clothing: one DecisionKernel
  /// pass per full test trace (fold everything, finalise). The expose set
  /// equals the "no-LPPM" row's protected set and every at-risk user's
  /// winner equals the whole-trace search — structurally, because all
  /// three run through the same kernel.
  [[nodiscard]] GatewayResult evaluate_gateway(
      const std::vector<std::size_t>& attack_subset = {}) const;

  /// Builds a MooD engine over the given attack subset (exposed so
  /// examples/benches can drive Algorithm 1 directly).
  [[nodiscard]] MoodEngine make_engine(
      const std::vector<std::size_t>& attack_subset = {}) const;

  /// Builds the shared batch/stream decision kernel over the given attack
  /// subset. The default KernelConfig (no window, always fresh) is the
  /// batch one; the streaming gateway passes its own.
  [[nodiscard]] decision::DecisionKernel make_kernel(
      const std::vector<std::size_t>& attack_subset = {},
      decision::KernelConfig kernel_config = {}) const;

  /// Selects the AP attack's query machinery (linear branch-and-bound
  /// scans or its posting index — see attacks::QueryMode; POI and PIT
  /// always scan), reached through ap_attack_index(): the switch the
  /// equivalence tests, `mood replay --verify` and the index sweep flip.
  /// const because it does not change the harness's observable results,
  /// only which (decision-equivalent) implementation answers queries. Not
  /// thread-safe — call outside parallel sections.
  void set_attack_query_mode(attacks::QueryMode mode) const;

  /// Index of the AP attack inside attacks() (the single-attack
  /// experiments of Fig. 6 use it alone).
  [[nodiscard]] std::size_t ap_attack_index() const;

 private:
  [[nodiscard]] std::vector<const attacks::Attack*> attack_views(
      const std::vector<std::size_t>& subset) const;

  /// make_engine() with `singles` as L and `compositions` as C \ L; an
  /// empty C \ L is HybridLPPM.
  [[nodiscard]] MoodEngine engine_over(
      std::vector<const lppm::Lppm*> singles,
      std::vector<lppm::Composition> compositions,
      const std::vector<std::size_t>& attack_subset) const;

  ExperimentConfig config_;
  std::string dataset_name_;
  std::vector<mobility::TrainTestPair> pairs_;
  std::vector<attacks::AttackPtr> attacks_;
  lppm::LppmRegistry registry_;
  std::shared_ptr<const lppm::DonorPool> donor_pool_;
  metrics::SpatialTemporalDistortion metric_;
  std::uint64_t seed_;
};

}  // namespace mood::core
