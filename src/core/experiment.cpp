#include "core/experiment.h"

#include <chrono>
#include <numeric>

#include "lppm/geo_ind.h"
#include "lppm/trilateration.h"
#include "support/error.h"
#include "support/logging.h"
#include "support/thread_pool.h"

namespace mood::core {

namespace {

/// Started at evaluator entry; read once into result.wall_seconds so every
/// strategy reports how long it took (surfaced by src/report).
class WallTimer {
 public:
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

std::array<std::size_t, 4> bands_from(
    const std::vector<std::pair<bool, double>>& protected_distortions) {
  std::array<std::size_t, 4> bands{0, 0, 0, 0};
  for (const auto& [is_protected, distortion] : protected_distortions) {
    if (!is_protected) continue;
    bands[static_cast<std::size_t>(metrics::distortion_band(distortion))]++;
  }
  return bands;
}

/// The per-user loop of every strategy that publishes one MoodEngine
/// candidate per user: `pick` is that engine call on the user's test
/// trace. A user it leaves unprotected keeps `unprotected_winner`.
template <typename Pick>
StrategyResult candidate_rows(std::string strategy,
                              const std::vector<mobility::TrainTestPair>& pairs,
                              const std::string& unprotected_winner,
                              const Pick& pick) {
  const WallTimer timer;
  StrategyResult result;
  result.strategy = std::move(strategy);
  result.users.resize(pairs.size());
  support::parallel_for(pairs.size(), [&](std::size_t i) {
    const mobility::Trace& test = pairs[i].test;
    const std::optional<MoodEngine::Candidate> candidate = pick(test);
    result.users[i] =
        candidate ? UserOutcome{test.user(), true, candidate->distortion,
                                test.size(), candidate->lppm}
                  : UserOutcome{test.user(), false, 0.0, test.size(),
                                unprotected_winner};
  });
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace

std::size_t StrategyResult::non_protected_users() const {
  std::size_t n = 0;
  for (const auto& u : users) n += u.is_protected ? 0 : 1;
  return n;
}

double StrategyResult::non_protected_ratio() const {
  return users.empty() ? 0.0
                       : static_cast<double>(non_protected_users()) /
                             static_cast<double>(users.size());
}

double StrategyResult::data_loss() const {
  metrics::DataLossAccumulator acc;
  for (const auto& u : users) {
    if (u.is_protected) {
      acc.add_protected(u.records);
    } else {
      acc.add_lost(u.records);
    }
  }
  return acc.ratio();
}

std::array<std::size_t, 4> StrategyResult::distortion_bands() const {
  std::vector<std::pair<bool, double>> pd;
  pd.reserve(users.size());
  for (const auto& u : users) pd.emplace_back(u.is_protected, u.distortion);
  return bands_from(pd);
}

std::size_t GatewayResult::exposed_users() const {
  std::size_t n = 0;
  for (const auto& u : users) {
    n += u.decision == decision::Decision::kExpose ? 1 : 0;
  }
  return n;
}

std::size_t MoodResult::non_protected_users() const {
  std::size_t n = 0;
  for (const auto& u : users) n += u.fully_protected() ? 0 : 1;
  return n;
}

double MoodResult::data_loss() const {
  metrics::DataLossAccumulator acc;
  for (const auto& u : users) {
    acc.add_lost(u.lost_records);
    acc.add_protected(u.records - u.lost_records);
  }
  return acc.ratio();
}

std::size_t MoodResult::total_lppm_applications() const {
  std::size_t n = 0;
  for (const auto& u : users) n += u.lppm_applications;
  return n;
}

std::size_t MoodResult::total_attack_invocations() const {
  std::size_t n = 0;
  for (const auto& u : users) n += u.attack_invocations;
  return n;
}

std::array<std::size_t, 4> MoodResult::distortion_bands() const {
  std::vector<std::pair<bool, double>> pd;
  pd.reserve(users.size());
  for (const auto& u : users) {
    // A user contributes to the utility histogram with the distortion of
    // the data that actually survived; fully erased users contribute
    // nothing (there is no published data to measure).
    pd.emplace_back(u.records > u.lost_records, u.distortion);
  }
  return bands_from(pd);
}

ExperimentHarness::ExperimentHarness(const mobility::Dataset& dataset,
                                     ExperimentConfig config,
                                     std::uint64_t seed)
    : config_(config), dataset_name_(dataset.name()), seed_(seed) {
  support::expects(dataset.user_count() > 0,
                   "ExperimentHarness: empty dataset");

  pairs_ = dataset.chronological_split(config_.train_fraction,
                                       config_.min_records);
  support::expects(!pairs_.empty(),
                   "ExperimentHarness: no active users after split");

  // Anchor all heatmap grids at the dataset's geographic centre so cells
  // align across the attack, HMC and every user.
  geo::BoundingBox box;
  for (const auto& trace : dataset.traces()) {
    for (const auto& record : trace.records()) box.extend(record.position);
  }
  const geo::GeoPoint reference = box.center();

  // Train the attack suite on the background halves.
  std::vector<mobility::Trace> background;
  background.reserve(pairs_.size());
  for (const auto& pair : pairs_) background.push_back(pair.train);
  attacks_ = attacks::make_standard_suite(reference, config_.attack_params);
  attacks::train_all(attacks_, background);
  support::log_info("harness[", dataset_name_, "]: trained ",
                    attacks_.size(), " attacks on ", background.size(),
                    " users");

  // Instantiate the LPPM set L with paper parameters.
  const geo::CellGrid grid(geo::LocalProjection(reference),
                           config_.attack_params.heatmap_cell_m);
  donor_pool_ = std::make_shared<const lppm::DonorPool>(background, grid);
  registry_.add(std::make_unique<lppm::GeoIndistinguishability>(
      config_.geoi_epsilon));
  registry_.add(std::make_unique<lppm::Trilateration>(config_.trl_radius_m));
  registry_.add(std::make_unique<lppm::HeatmapConfusion>(
      grid, donor_pool_, config_.hmc_hot_coverage, config_.hmc_max_cells,
      config_.hmc_budget_m));
}

std::size_t ExperimentHarness::total_test_records() const {
  std::size_t n = 0;
  for (const auto& pair : pairs_) n += pair.test.size();
  return n;
}

std::vector<const attacks::Attack*> ExperimentHarness::attack_views(
    const std::vector<std::size_t>& subset) const {
  std::vector<const attacks::Attack*> views;
  if (subset.empty()) {
    for (const auto& attack : attacks_) views.push_back(attack.get());
    return views;
  }
  for (const std::size_t index : subset) {
    support::expects(index < attacks_.size(),
                     "attack subset index out of range");
    views.push_back(attacks_[index].get());
  }
  return views;
}

void ExperimentHarness::set_attack_query_mode(attacks::QueryMode mode) const {
  dynamic_cast<attacks::ApAttack&>(*attacks_[ap_attack_index()])
      .set_query_mode(mode);
}

std::size_t ExperimentHarness::ap_attack_index() const {
  for (std::size_t i = 0; i < attacks_.size(); ++i) {
    if (attacks_[i]->name() == "AP-Attack") return i;
  }
  throw support::LogicError("AP-Attack missing from suite");
}

StrategyResult ExperimentHarness::evaluate_no_lppm(
    const std::vector<std::size_t>& attack_subset) const {
  const WallTimer timer;
  // The risk half of the shared decision kernel: compile the window
  // profiles once per user and ask the one risk predicate over them — the
  // same code path the online gateway's expose/protect verdicts run
  // through.
  const decision::DecisionKernel kernel = make_kernel(attack_subset);
  StrategyResult result;
  result.strategy = "no-LPPM";
  result.users.resize(pairs_.size());
  support::parallel_for(pairs_.size(), [&](std::size_t i) {
    const auto& pair = pairs_[i];
    const bool caught = kernel.at_risk_trace(pair.test);
    result.users[i] = UserOutcome{pair.test.user(), !caught, 0.0,
                                  pair.test.size(), ""};
  });
  result.wall_seconds = timer.seconds();
  return result;
}

GatewayResult ExperimentHarness::evaluate_gateway(
    const std::vector<std::size_t>& attack_subset) const {
  const WallTimer timer;
  const decision::DecisionKernel kernel = make_kernel(attack_subset);
  GatewayResult result;
  result.users.resize(pairs_.size());
  support::parallel_for(pairs_.size(), [&](std::size_t i) {
    const auto& pair = pairs_[i];
    const decision::Verdict verdict = kernel.decide_trace(pair.test);
    result.users[i] = GatewayOutcome{pair.test.user(), verdict.decision,
                                     verdict.winner, pair.test.size()};
  });
  result.wall_seconds = timer.seconds();
  return result;
}

StrategyResult ExperimentHarness::evaluate_single(
    const std::string& lppm_name,
    const std::vector<std::size_t>& attack_subset) const {
  support::expects(registry_.find(lppm_name) != nullptr,
                   "evaluate_single: unknown LPPM " + lppm_name);
  const MoodEngine engine = make_engine(attack_subset);
  return candidate_rows(lppm_name, pairs_, lppm_name,
                        [&](const mobility::Trace& test) {
                          return engine.recheck(lppm_name, test);
                        });
}

StrategyResult ExperimentHarness::evaluate_hybrid(
    const std::vector<std::size_t>& attack_subset) const {
  const MoodEngine engine = engine_over({}, attack_subset);
  return candidate_rows("HybridLPPM", pairs_, "",
                        [&](const mobility::Trace& test) {
                          return engine.search(test);
                        });
}

MoodEngine ExperimentHarness::make_engine(
    const std::vector<std::size_t>& attack_subset) const {
  return engine_over(registry_.multi_compositions(), attack_subset);
}

MoodEngine ExperimentHarness::engine_over(
    std::vector<lppm::Composition> compositions,
    const std::vector<std::size_t>& attack_subset) const {
  MoodConfig mood_config = config_.mood;
  mood_config.seed = seed_;
  return MoodEngine(registry_.singles(), std::move(compositions),
                    attack_views(attack_subset), &metric_, mood_config);
}

decision::DecisionKernel ExperimentHarness::make_kernel(
    const std::vector<std::size_t>& attack_subset,
    decision::KernelConfig kernel_config) const {
  return decision::DecisionKernel(make_engine(attack_subset), kernel_config);
}

StrategyResult ExperimentHarness::evaluate_mood_search(
    const std::vector<std::size_t>& attack_subset) const {
  const MoodEngine engine = make_engine(attack_subset);
  return candidate_rows("MooD", pairs_, "", [&](const mobility::Trace& test) {
    return engine.search(test);
  });
}

MoodResult ExperimentHarness::evaluate_mood_full(
    const std::vector<std::size_t>& attack_subset) const {
  const WallTimer timer;
  const MoodEngine engine = make_engine(attack_subset);
  MoodResult result;
  result.users.resize(pairs_.size());
  support::parallel_for(pairs_.size(), [&](std::size_t i) {
    const auto& pair = pairs_[i];
    MoodUserOutcome outcome;
    outcome.user = pair.test.user();
    outcome.records = pair.test.size();

    // Stage 1: whole-trace search (singles + compositions).
    ProtectionResult cost;
    if (auto whole = engine.search(pair.test, &cost)) {
      outcome.level = whole->level;
      outcome.distortion = whole->distortion;
      outcome.winner = whole->lppm;
      outcome.lppm_applications = cost.lppm_applications;
      outcome.attack_invocations = cost.attack_invocations;
      result.users[i] = std::move(outcome);
      return;
    }

    // Stage 2 (§4.2): 24 h slices, each through full Algorithm 1.
    outcome.level = ProtectionLevel::kFineGrained;
    double weighted_distortion = 0.0;
    std::size_t weighted_records = 0;
    for (const auto& slice : pair.test.slices(engine.config().preslice)) {
      const ProtectionResult piece = engine.protect(slice);
      ++outcome.subtraces;
      if (piece.fully_protected()) ++outcome.protected_subtraces;
      outcome.lost_records += piece.lost_records;
      outcome.lppm_applications += piece.lppm_applications;
      outcome.attack_invocations += piece.attack_invocations;
      for (const auto& p : piece.pieces) {
        weighted_distortion +=
            p.distortion * static_cast<double>(p.original_records);
        weighted_records += p.original_records;
      }
    }
    outcome.lppm_applications += cost.lppm_applications;
    outcome.attack_invocations += cost.attack_invocations;
    outcome.distortion = weighted_records == 0
                             ? 0.0
                             : weighted_distortion /
                                   static_cast<double>(weighted_records);
    if (outcome.subtraces == 0) {
      // Degenerate: empty test trace — nothing to lose or protect.
      outcome.level = ProtectionLevel::kNone;
    }
    result.users[i] = std::move(outcome);
  });
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace mood::core
