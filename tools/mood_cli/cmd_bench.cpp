// `mood bench`: run the attack-inference A/B microbenchmarks (the
// population index vs the linear branch-and-bound scans that are its
// oracle) and the optional end-to-end evaluate_mood_full comparison on a
// preset, emit a versioned "mood-bench/1" JSON document (see
// src/report/report.h; "reference" is the scan oracle, "optimized" the
// index), and fail (exit 1) if the two paths ever disagree on a decision —
// the perf-smoke CI gate.

#include <chrono>
#include <ostream>
#include <string>

#include "core/experiment.h"
#include "core/inference_bench.h"
#include "mood_cli/cli.h"
#include "report/report.h"
#include "report/table.h"
#include "simulation/presets.h"
#include "support/error.h"
#include "support/logging.h"
#include "support/options.h"
#include "support/thread_pool.h"

namespace mood::cli {

namespace {

/// "small" is the smoke preset: a PrivaMov-shaped population cut down to
/// laptop/CI size (the equivalence check still crosses every layer, just
/// on less data).
mobility::Dataset make_bench_dataset(const std::string& preset, double scale,
                                     std::int64_t users, std::int64_t days,
                                     std::uint64_t seed) {
  simulation::GeneratorParams params;
  if (preset == "small") {
    params = simulation::preset_params("privamov", scale, seed);
    params.users = 20;
    params.days = 12;
    params.dataset_name = "small";
  } else {
    params = simulation::preset_params(preset, scale, seed);
  }
  if (users > 0) params.users = static_cast<std::size_t>(users);
  if (days > 0) params.days = static_cast<int>(days);
  return simulation::generate(params);
}

}  // namespace

int cmd_bench(int argc, const char* const* argv, std::ostream& out,
              std::ostream& err) {
  support::FlagSet flags(
      "mood bench",
      "Benchmark the attack-inference hot path: times re-identification\n"
      "and the full MooD pipeline through both the linear branch-and-bound\n"
      "scans (the reference oracle) and the population index (the\n"
      "optimized production path), verifies the two agree decision for\n"
      "decision, and writes a mood-bench/1 JSON document. Exits 1 on any\n"
      "disagreement.");
  flags.add_string("preset", "cabspotting",
                   "dataset preset (mdc | privamov | geolife | cabspotting "
                   "| city-small | small)");
  flags.add_double("scale", 0.25, "record-volume scale in (0, 4]");
  flags.add_int("users", 0, "override the preset's user count (0 = keep)");
  flags.add_int("days", 0, "override the simulated period in days (0 = keep)");
  flags.add_int("seed", 7, "generator + harness seed");
  flags.add_int("jobs", 0, "worker threads (0 = hardware concurrency)");
  flags.add_int("repetitions", 3,
                "minimum timed passes per reidentify microbench");
  flags.add_int("min-records", 0,
                "active-user floor per half (0 = default; 'small' uses 8)");
  flags.add_bool("skip-full", false,
                 "skip the end-to-end evaluate_mood_full A/B case");
  flags.add_string("out", "-", "bench JSON path ('-' = stdout)");
  flags.add_bool("verbose", false, "log at info level instead of warn");
  flags.parse(argc, argv);
  if (flags.get_bool("help")) {
    out << flags.help();
    return kExitOk;
  }
  flags.reject_positionals();
  support::set_log_level(flags.get_bool("verbose")
                             ? support::LogLevel::kInfo
                             : support::LogLevel::kWarn);
  // Vet cheap flag constraints before dataset generation and training.
  const auto repetitions = flags.get_int("repetitions");
  if (repetitions <= 0) {
    throw support::UsageError("mood bench: --repetitions must be positive");
  }
  if (const auto jobs = flags.get_int("jobs"); jobs > 0) {
    support::ThreadPool::configure_shared(static_cast<std::size_t>(jobs));
  }

  const auto started = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         started)
        .count();
  };

  report::RunMetadata meta;
  meta.tool = "mood bench";
  meta.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  const std::string preset = flags.get_string("preset");
  const mobility::Dataset dataset = make_bench_dataset(
      preset, flags.get_double("scale"), flags.get_int("users"),
      flags.get_int("days"), meta.seed);
  meta.dataset = dataset.name();
  meta.timings.emplace_back("load", elapsed());

  core::ExperimentConfig config;
  if (const auto floor = flags.get_int("min-records"); floor > 0) {
    config.min_records = static_cast<std::size_t>(floor);
  } else if (preset == "small") {
    config.min_records = 8;
  }
  const auto harness_started = elapsed();
  const core::ExperimentHarness harness(dataset, config, meta.seed);
  meta.timings.emplace_back("harness", elapsed() - harness_started);

  core::InferenceBenchOptions options;
  options.repetitions = static_cast<std::size_t>(repetitions);
  options.run_full = !flags.get_bool("skip-full");
  err << "benchmarking " << harness.pairs().size() << " users on "
      << dataset.name() << "...\n";
  const auto bench_started = elapsed();
  const auto cases = core::run_inference_bench(harness, options);
  meta.timings.emplace_back("bench", elapsed() - bench_started);
  meta.wall_seconds = elapsed();

  report::Json dataset_doc = report::dataset_summary(dataset);
  dataset_doc["active_users"] = harness.pairs().size();
  const report::Json document =
      report::make_bench_report(meta, std::move(dataset_doc), cases);

  const std::string out_path = flags.get_string("out");
  if (out_path == "-") {
    document.write(out);
  } else {
    report::write_json_file(out_path, document);
    err << "wrote " << out_path << '\n';
    auto rows = report::bench_summary_rows(cases);
    report::Table table(std::move(rows.front()));
    for (std::size_t i = 1; i < rows.size(); ++i) {
      table.add_row(std::move(rows[i]));
    }
    table.print(out);
  }

  if (!core::all_agree(cases)) {
    for (const auto& benchmark : cases) {
      if (!benchmark.agreement) {
        err << "mood bench: DISAGREEMENT in " << benchmark.name << ": "
            << benchmark.mismatch << '\n';
      }
    }
    return kExitFailure;
  }
  return kExitOk;
}

}  // namespace mood::cli
