// Population-scaling sweep of the attack-inference hot path:
//
//   ./perf_attack_inference [--sweep-users=1000,2500,5000,10000]
//                           [--datasets=city-small] [--scale=0.25]
//                           [--seed=7] [--json=sweep.json]
//
// For each population size, replays every targeted query of the AP
// attack through the linear scans and through its posting index, checks
// the decisions match, and reports exact evaluations per query + prune
// rate. POI and PIT answer by the scans only, so they are not swept. --json then writes a
// "mood-index-sweep/1" document (the committed BENCH_pr6.json): exact
// evaluations per query growing sublinearly in the trained population is
// the acceptance criterion.
//
// Exits 1 if the paths ever disagree, 2 if a sweep size leaves the
// harness no active users (e.g. --sweep-users=200 --scale=0.05).

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "attacks/attack.h"
#include "experiment_common.h"
#include "report/report.h"
#include "support/error.h"

namespace {

using namespace mood;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One attack's scan-vs-index comparison at one population size.
struct SweepPoint {
  std::string attack;
  std::size_t queries = 0;  ///< train/test pairs replayed
  std::size_t trained_users = 0;
  double scan_seconds = 0.0;   ///< one full pass of the queries via scans
  double index_seconds = 0.0;  ///< same pass through the index
  std::uint64_t index_queries = 0;  ///< argmin + is-first per pair
  std::uint64_t exact_evals = 0;
  std::uint64_t pruned = 0;
  bool agreement = true;
  std::string mismatch;

  [[nodiscard]] double exact_evals_per_query() const {
    return index_queries == 0 ? 0.0
                              : static_cast<double>(exact_evals) /
                                    static_cast<double>(index_queries);
  }
  [[nodiscard]] double prune_rate() const {
    const double candidates = static_cast<double>(index_queries) *
                              static_cast<double>(trained_users);
    return candidates == 0.0 ? 0.0 : static_cast<double>(pruned) / candidates;
  }
};

/// Answers + decisions of one pass of every targeted query in the current
/// query mode, with the wall time of the pass.
struct SweepPass {
  std::vector<std::optional<mobility::UserId>> answers;
  std::vector<bool> decisions;
  double seconds = 0.0;
};

SweepPass run_pass(const attacks::Attack& attack,
                   const core::ExperimentHarness& harness) {
  SweepPass pass;
  pass.answers.reserve(harness.pairs().size());
  pass.decisions.reserve(harness.pairs().size());
  const auto start = Clock::now();
  for (const auto& pair : harness.pairs()) {
    pass.answers.push_back(attack.reidentify(pair.test));
    pass.decisions.push_back(
        attack.reidentifies_target(pair.test, pair.test.user()));
  }
  pass.seconds = seconds_since(start);
  return pass;
}

SweepPoint sweep_attack(const attacks::Attack& attack,
                        const core::ExperimentHarness& harness) {
  SweepPoint point;
  point.attack = attack.name();
  point.queries = harness.pairs().size();
  point.trained_users = attack.trained_users();

  harness.set_attack_query_mode(attacks::QueryMode::kScan);
  const SweepPass scan = run_pass(attack, harness);
  point.scan_seconds = scan.seconds;

  harness.set_attack_query_mode(attacks::QueryMode::kIndex);
  const attacks::IndexStats before = attack.index_stats();
  const SweepPass indexed = run_pass(attack, harness);
  const attacks::IndexStats after = attack.index_stats();
  point.index_seconds = indexed.seconds;
  point.index_queries = after.queries - before.queries;
  point.exact_evals = after.exact_evaluations - before.exact_evaluations;
  point.pruned = after.pruned_candidates - before.pruned_candidates;

  for (std::size_t i = 0; i < harness.pairs().size(); ++i) {
    if (scan.answers[i] == indexed.answers[i] &&
        scan.decisions[i] == indexed.decisions[i]) {
      continue;
    }
    point.agreement = false;
    point.mismatch = "user " + harness.pairs()[i].test.user() + ": scan=" +
                     scan.answers[i].value_or("(none)") + " index=" +
                     indexed.answers[i].value_or("(none)");
    break;
  }
  return point;
}

std::vector<std::size_t> parse_sizes(const std::string& list) {
  std::vector<std::size_t> sizes;
  std::string current;
  for (const char c : list + ",") {
    if (c == ',') {
      if (!current.empty()) sizes.push_back(std::stoull(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  return sizes;
}

int run_population_sweep(const bench::BenchContext& ctx,
                         const std::string& preset,
                         const std::vector<std::size_t>& sizes,
                         const std::string& json_path) {
  report::Json points = report::Json::array();
  bool all_ok = true;
  for (const std::size_t users : sizes) {
    bench::print_header("index sweep: " + preset + ", " +
                        std::to_string(users) + " users");
    simulation::GeneratorParams params =
        simulation::preset_params(preset, ctx.scale, ctx.seed);
    if (params.districts > 0) {
      // Hold commuter density constant: a bigger city has more
      // neighbourhoods, not denser ones (the preset's district count is
      // tuned for its nominal population).
      params.districts =
          std::max<std::size_t>(4, params.districts * users / params.users);
    }
    params.users = users;
    const auto dataset = simulation::generate(params);
    std::optional<core::ExperimentHarness> built;
    try {
      built.emplace(dataset, ctx.config, ctx.seed);
    } catch (const support::PreconditionError& error) {
      std::fprintf(stderr,
                   "sweep size %zu: cannot build the harness (%s); raise "
                   "--scale or the size\n",
                   users, error.what());
      return 2;
    }
    const core::ExperimentHarness& harness = *built;
    std::printf("%zu active users, %zu test records\n",
                harness.pairs().size(), harness.total_test_records());
    std::printf("%-18s %8s %10s %9s %9s %10s %8s %s\n", "attack", "queries",
                "trained", "scan_s", "index_s", "evals/qry", "prune",
                "agree");

    report::Json point = report::Json::object();
    point["users"] = users;
    point["active_users"] = harness.pairs().size();
    point["attacks"] = report::Json::array();
    // POI and PIT answer by the scans only: an index row for them would
    // compare the scan with itself.
    const attacks::Attack& ap = *harness.attacks()[harness.ap_attack_index()];
    const SweepPoint result = sweep_attack(ap, harness);
    std::printf("%-18s %8zu %10zu %9.3f %9.3f %10.1f %7.1f%% %s\n",
                result.attack.c_str(), result.queries, result.trained_users,
                result.scan_seconds, result.index_seconds,
                result.exact_evals_per_query(), 100.0 * result.prune_rate(),
                result.agreement ? "yes" : "NO");
    if (!result.agreement) {
      std::printf("  MISMATCH: %s\n", result.mismatch.c_str());
      all_ok = false;
    }
    report::Json entry = report::Json::object();
    entry["name"] = result.attack;
    entry["pairs"] = result.queries;
    entry["index_queries"] = result.index_queries;
    entry["trained_users"] = result.trained_users;
    entry["scan_seconds"] = result.scan_seconds;
    entry["index_seconds"] = result.index_seconds;
    entry["exact_evaluations"] = result.exact_evals;
    entry["exact_evaluations_per_query"] = result.exact_evals_per_query();
    entry["pruned_candidates"] = result.pruned;
    entry["prune_rate"] = result.prune_rate();
    entry["agreement"] = result.agreement;
    point["attacks"].push_back(std::move(entry));
    points.push_back(std::move(point));
  }

  if (!json_path.empty()) {
    report::Json document = report::Json::object();
    document["schema"] = "mood-index-sweep/1";
    document["preset"] = preset;
    document["scale"] = ctx.scale;
    document["seed"] = ctx.seed;
    document["agreement"] = all_ok;
    document["points"] = std::move(points);
    report::write_json_file(json_path, document);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mood;
  const support::Options options(argc, argv);
  const bench::BenchContext ctx = bench::parse_context(argc, argv);
  const std::string preset = options.get_string("datasets", "").empty()
                                 ? "city-small"
                                 : ctx.datasets.front();
  const auto sizes =
      parse_sizes(options.get_string("sweep-users", "1000,2500,5000,10000"));
  if (sizes.empty()) {
    std::fprintf(stderr, "--sweep-users must name at least one size\n");
    return 2;
  }
  return run_population_sweep(ctx, preset, sizes,
                              options.get_string("json", ""));
}
