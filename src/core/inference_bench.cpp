#include "core/inference_bench.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <optional>
#include <sstream>

#include "support/error.h"

namespace mood::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string slug(const std::string& name) {
  std::string out;
  for (const char c : name) {
    out.push_back(c == ' ' ? '-' : static_cast<char>(std::tolower(
                                       static_cast<unsigned char>(c))));
  }
  return out;
}

/// Seconds per pass (and the pass count used) of the targeted predicate
/// over every train/test pair. Runs at least `repetitions` passes and
/// keeps repeating until the timed section is long enough for the steady
/// clock to resolve it (tiny smoke presets finish a pass in microseconds,
/// where single-pass timings are noise).
struct TimedPasses {
  double seconds_per_pass = 0.0;
  std::size_t passes = 0;
};

TimedPasses time_target_queries(const attacks::Attack& attack,
                                const ExperimentHarness& harness,
                                std::size_t repetitions) {
  constexpr double kMinTimedSeconds = 0.2;
  constexpr std::size_t kMaxPasses = 10000;
  const auto start = Clock::now();
  std::size_t passes = 0;
  std::size_t hits = 0;
  do {
    for (const auto& pair : harness.pairs()) {
      hits += attack.reidentifies_target(pair.test, pair.test.user()) ? 1 : 0;
    }
    ++passes;
  } while ((passes < repetitions || seconds_since(start) < kMinTimedSeconds) &&
           passes < kMaxPasses);
  const double elapsed = seconds_since(start);
  (void)hits;  // answers are checked by the untimed agreement sweep
  return TimedPasses{elapsed / static_cast<double>(passes), passes};
}

/// Argmin answers + targeted decisions of one attack over every pair, in
/// whatever query mode is currently set (the agreement sweep compares
/// these across the two modes).
struct SweepAnswers {
  std::vector<std::optional<mobility::UserId>> answers;
  std::vector<bool> decisions;
};

SweepAnswers sweep(const attacks::Attack& attack,
                   const ExperimentHarness& harness) {
  SweepAnswers out;
  out.answers.reserve(harness.pairs().size());
  out.decisions.reserve(harness.pairs().size());
  for (const auto& pair : harness.pairs()) {
    out.answers.push_back(attack.reidentify(pair.test));
    out.decisions.push_back(
        attack.reidentifies_target(pair.test, pair.test.user()));
  }
  return out;
}

/// First divergence between the scan and index sweeps ("" when none).
std::string compare_sweeps(const attacks::Attack& attack,
                           const ExperimentHarness& harness,
                           const SweepAnswers& scan,
                           const SweepAnswers& index) {
  for (std::size_t i = 0; i < harness.pairs().size(); ++i) {
    if (scan.answers[i] == index.answers[i] &&
        scan.decisions[i] == index.decisions[i]) {
      continue;
    }
    std::ostringstream what;
    what << attack.name() << " diverges on user "
         << harness.pairs()[i].test.user()
         << ": scan=" << scan.answers[i].value_or("(none)")
         << " index=" << index.answers[i].value_or("(none)");
    return what.str();
  }
  return "";
}

/// Index work counter deltas since `before`, over a population of
/// `population` candidates per query.
void record_index_work(InferenceBenchCase& result,
                       const attacks::IndexStats& before,
                       const attacks::IndexStats& after,
                       std::uint64_t population) {
  result.index_queries = after.queries - before.queries;
  result.index_pruned = after.pruned_candidates - before.pruned_candidates;
  result.index_exact_evals = after.exact_evaluations - before.exact_evaluations;
  result.index_candidates = result.index_queries * population;
}

InferenceBenchCase bench_attack(const attacks::Attack& attack,
                                const ExperimentHarness& harness,
                                std::size_t repetitions) {
  InferenceBenchCase result;
  result.name = slug(attack.name()) + "-reidentify";
  result.queries = harness.pairs().size();

  // Agreement sweep (untimed): argmin answers and targeted decisions of
  // the index vs the linear-scan oracle.
  harness.set_attack_query_mode(attacks::QueryMode::kScan);
  const SweepAnswers scan_sweep = sweep(attack, harness);
  harness.set_attack_query_mode(attacks::QueryMode::kIndex);
  const SweepAnswers index_sweep = sweep(attack, harness);
  result.mismatch = compare_sweeps(attack, harness, scan_sweep, index_sweep);
  result.agreement = result.mismatch.empty();

  // Timed passes: the scan oracle first, then the index, with its work
  // counters sampled around it.
  harness.set_attack_query_mode(attacks::QueryMode::kScan);
  const TimedPasses reference =
      time_target_queries(attack, harness, repetitions);
  result.reference_seconds = reference.seconds_per_pass;
  result.reference_passes = reference.passes;
  harness.set_attack_query_mode(attacks::QueryMode::kIndex);
  const attacks::IndexStats before = attack.index_stats();
  const TimedPasses optimized =
      time_target_queries(attack, harness, repetitions);
  result.optimized_seconds = optimized.seconds_per_pass;
  result.optimized_passes = optimized.passes;
  record_index_work(result, before, attack.index_stats(),
                    static_cast<std::uint64_t>(attack.trained_users()));
  return result;
}

std::string compare_mood_results(const MoodResult& reference,
                                 const MoodResult& optimized) {
  if (reference.users.size() != optimized.users.size()) {
    return "user count differs";
  }
  for (std::size_t i = 0; i < reference.users.size(); ++i) {
    const auto& r = reference.users[i];
    const auto& o = optimized.users[i];
    std::ostringstream what;
    if (r.user != o.user) {
      what << "user order differs at index " << i;
    } else if (r.level != o.level || r.winner != o.winner) {
      what << r.user << ": level/winner differ (reference "
           << to_string(r.level) << "/'" << r.winner << "', optimized "
           << to_string(o.level) << "/'" << o.winner << "')";
    } else if (r.lost_records != o.lost_records ||
               r.records != o.records || r.subtraces != o.subtraces ||
               r.protected_subtraces != o.protected_subtraces) {
      what << r.user << ": record/subtrace counters differ";
    } else if (r.distortion != o.distortion) {
      what << r.user << ": distortion differs (reference " << r.distortion
           << ", optimized " << o.distortion << ")";
    } else if (r.lppm_applications != o.lppm_applications ||
               r.attack_invocations != o.attack_invocations) {
      what << r.user << ": search-cost counters differ";
    } else {
      continue;
    }
    return what.str();
  }
  if (reference.data_loss() != optimized.data_loss()) {
    return "aggregate data_loss differs";
  }
  if (reference.distortion_bands() != optimized.distortion_bands()) {
    return "distortion bands differ";
  }
  return "";
}

InferenceBenchCase bench_full_pipeline(
    const ExperimentHarness& harness,
    const std::vector<std::size_t>& attack_subset) {
  InferenceBenchCase result;
  result.name = "evaluate-mood-full";
  result.queries = harness.pairs().size();

  harness.set_attack_query_mode(attacks::QueryMode::kScan);
  const MoodResult reference = harness.evaluate_mood_full(attack_subset);
  harness.set_attack_query_mode(attacks::QueryMode::kIndex);
  const attacks::IndexStats before = harness.attack_index_stats();
  const MoodResult optimized = harness.evaluate_mood_full(attack_subset);

  result.reference_seconds = reference.wall_seconds;
  result.optimized_seconds = optimized.wall_seconds;
  result.mismatch = compare_mood_results(reference, optimized);
  result.agreement = result.mismatch.empty();
  std::uint64_t population = 0;
  for (const auto& attack : harness.attacks()) {
    population = std::max(
        population, static_cast<std::uint64_t>(attack->trained_users()));
  }
  record_index_work(result, before, harness.attack_index_stats(), population);
  return result;
}

}  // namespace

std::vector<InferenceBenchCase> run_inference_bench(
    const ExperimentHarness& harness, const InferenceBenchOptions& options) {
  support::expects(options.repetitions > 0,
                   "run_inference_bench: repetitions must be positive");
  std::vector<const attacks::Attack*> attacks;
  if (options.attack_subset.empty()) {
    for (const auto& attack : harness.attacks()) attacks.push_back(attack.get());
  } else {
    for (const std::size_t index : options.attack_subset) {
      support::expects(index < harness.attacks().size(),
                       "run_inference_bench: attack index out of range");
      attacks.push_back(harness.attacks()[index].get());
    }
  }

  std::vector<InferenceBenchCase> cases;
  for (const auto* attack : attacks) {
    cases.push_back(bench_attack(*attack, harness, options.repetitions));
  }
  if (options.run_full) {
    cases.push_back(bench_full_pipeline(harness, options.attack_subset));
  }
  return cases;
}

bool all_agree(const std::vector<InferenceBenchCase>& cases) {
  return std::all_of(cases.begin(), cases.end(),
                     [](const InferenceBenchCase& c) { return c.agreement; });
}

}  // namespace mood::core
