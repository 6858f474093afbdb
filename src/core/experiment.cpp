#include "core/experiment.h"

#include <algorithm>
#include <chrono>

#include "lppm/geo_ind.h"
#include "lppm/trilateration.h"
#include "support/error.h"
#include "support/logging.h"
#include "support/thread_pool.h"

namespace mood::core {

namespace {

/// Started at evaluate() entry; read once into the grid's wall_seconds.
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

/// The "MooD-full" row of one user: the whole-trace search's outcome
/// (`whole`, priced at `cost`), else (§4.2) every 24 h slice through full
/// Algorithm 1.
MoodUserOutcome full_outcome(const MoodEngine& engine,
                             const mobility::Trace& test,
                             const std::optional<MoodEngine::Candidate>& whole,
                             const ProtectionResult& cost) {
  MoodUserOutcome outcome;
  outcome.user = test.user();
  outcome.records = test.size();
  outcome.lppm_applications = cost.lppm_applications;
  outcome.attack_invocations = cost.attack_invocations;
  if (whole) {
    outcome.level = whole->level;
    outcome.distortion = whole->distortion;
    outcome.winner = whole->lppm;
    return outcome;
  }

  outcome.level = ProtectionLevel::kFineGrained;
  double weighted_distortion = 0.0;
  std::size_t weighted_records = 0;
  for (const auto& slice : test.slices(engine.config().preslice)) {
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
  outcome.distortion = weighted_records == 0
                           ? 0.0
                           : weighted_distortion /
                                 static_cast<double>(weighted_records);
  if (outcome.subtraces == 0) {
    // Degenerate: empty test trace — nothing to lose or protect.
    outcome.level = ProtectionLevel::kNone;
  }
  return outcome;
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

EvaluationGrid ExperimentHarness::evaluate(
    const std::vector<std::string>& strategies,
    const std::vector<std::size_t>& attack_subset) const {
  const WallTimer timer;
  // Resolve every name once, before the pass over users.
  enum class Row { kNoLppm, kSingle, kHybrid, kMood, kMoodFull };
  std::vector<Row> kinds;
  EvaluationGrid grid;
  bool composes = false;      // a row reads compositions
  bool reads_winner = false;  // a row reads the search winner
  bool searches = false;      // a row reads the search
  for (const std::string& name : strategies) {
    const Row kind = name == "no-LPPM"      ? Row::kNoLppm
                     : name == "HybridLPPM" ? Row::kHybrid
                     : name == "MooD"       ? Row::kMood
                     : name == "MooD-full"  ? Row::kMoodFull
                                            : Row::kSingle;
    support::expects(kind != Row::kSingle || registry_.find(name) != nullptr,
                     "ExperimentHarness::evaluate: unknown strategy '" + name +
                         "'");
    composes |= kind == Row::kMood || kind == Row::kMoodFull;
    reads_winner |= composes || kind == Row::kHybrid;
    searches |= kind != Row::kNoLppm;
    kinds.push_back(kind);
    if (kind == Row::kMoodFull) {
      grid.rows.emplace_back(
          MoodResult{std::vector<MoodUserOutcome>(pairs_.size())});
    } else {
      grid.rows.emplace_back(
          StrategyResult{name, std::vector<UserOutcome>(pairs_.size())});
    }
  }

  // L of the one engine searched: the requested singles alone unless a row
  // reads the search winner (or none is searched). A single's noise is
  // keyed by its name, so its price does not depend on the rest of L.
  std::vector<const lppm::Lppm*> singles;
  for (const lppm::Lppm* single : registry_.singles()) {
    if (reads_winner || !searches ||
        std::count(strategies.begin(), strategies.end(), single->name())) {
      singles.push_back(single);
    }
  }
  std::vector<std::size_t> in_l;  // a single row's index into L
  for (const std::string& name : strategies) {
    in_l.push_back(static_cast<std::size_t>(
        std::find(singles.begin(), singles.end(), registry_.find(name)) -
        singles.begin()));
  }

  // One kernel answers the risk query and owns the one engine searched:
  // without "MooD"/"MooD-full" its C \ L is empty, so no composition runs.
  const decision::DecisionKernel kernel(engine_over(
      singles,
      composes ? registry_.multi_compositions()
               : std::vector<lppm::Composition>{},
      attack_subset));
  const MoodEngine& engine = kernel.engine();
  support::parallel_for(pairs_.size(), [&](std::size_t i) {
    const mobility::Trace& test = pairs_[i].test;
    ProtectionResult cost;
    std::vector<std::optional<double>> prices;  // the singles pass, by L
    std::optional<MoodEngine::Candidate> winner;
    if (searches) winner = engine.search(test, &cost, &prices);
    for (std::size_t r = 0; r < kinds.size(); ++r) {
      if (kinds[r] == Row::kMoodFull) {
        std::get<MoodResult>(grid.rows[r]).users[i] =
            full_outcome(engine, test, winner, cost);
        continue;
      }
      StrategyResult& result = std::get<StrategyResult>(grid.rows[r]);
      UserOutcome row{test.user(), false, 0.0, test.size(), ""};
      if (kinds[r] == Row::kNoLppm) {
        row.is_protected = !kernel.at_risk_trace(test);
      } else if (kinds[r] == Row::kSingle) {  // keeps its name unprotected
        const std::optional<double>& price = prices[in_l[r]];
        row = UserOutcome{test.user(), price.has_value(), price.value_or(0.0),
                          test.size(), result.strategy};
      } else if (winner && (kinds[r] == Row::kMood ||
                            winner->level == ProtectionLevel::kSingle)) {
        // HybridLPPM is the singles pass: a single-LPPM winner.
        row = UserOutcome{test.user(), true, winner->distortion, test.size(),
                          winner->lppm};
      }
      result.users[i] = std::move(row);
    }
  });
  grid.wall_seconds = timer.seconds();
  return grid;
}

GatewayResult ExperimentHarness::evaluate_gateway(
    const std::vector<std::size_t>& attack_subset) const {
  const decision::DecisionKernel kernel = make_kernel(attack_subset);
  GatewayResult result;
  result.users.resize(pairs_.size());
  support::parallel_for(pairs_.size(), [&](std::size_t i) {
    const auto& pair = pairs_[i];
    const decision::Verdict verdict = kernel.decide_trace(pair.test);
    result.users[i] = GatewayOutcome{pair.test.user(), verdict.decision,
                                     verdict.winner, pair.test.size()};
  });
  return result;
}

MoodEngine ExperimentHarness::make_engine(
    const std::vector<std::size_t>& attack_subset) const {
  return engine_over(registry_.singles(), registry_.multi_compositions(),
                     attack_subset);
}

MoodEngine ExperimentHarness::engine_over(
    std::vector<const lppm::Lppm*> singles,
    std::vector<lppm::Composition> compositions,
    const std::vector<std::size_t>& attack_subset) const {
  MoodConfig mood_config = config_.mood;
  mood_config.seed = seed_;
  return MoodEngine(std::move(singles), std::move(compositions),
                    attack_views(attack_subset), &metric_, mood_config);
}

decision::DecisionKernel ExperimentHarness::make_kernel(
    const std::vector<std::size_t>& attack_subset,
    decision::KernelConfig kernel_config) const {
  return decision::DecisionKernel(make_engine(attack_subset), kernel_config);
}

}  // namespace mood::core
