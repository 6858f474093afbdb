// Tests for the `mood` CLI: subcommand dispatch, typed-flag parsing and
// exit codes (0 ok / 1 runtime failure / 2 usage error), plus a small
// end-to-end simulate -> evaluate -> report pipeline exercised in-process
// through mood::cli::run.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "mood_cli/cli.h"
#include "report/json.h"
#include "report/report.h"
#include "fuzz_helpers.h"
#include "stream/engine.h"
#include "support/error.h"
#include "support/options.h"
#include "support/rng.h"

namespace mood::cli {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

/// Runs the CLI in-process with "mood" prepended as argv[0].
CliResult run_cli(std::initializer_list<std::string> args) {
  std::vector<std::string> storage{"mood"};
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<const char*> argv;
  argv.reserve(storage.size());
  for (const auto& arg : storage) argv.push_back(arg.c_str());

  std::ostringstream out, err;
  const int code =
      run(static_cast<int>(argv.size()), argv.data(), out, err);
  return {code, out.str(), err.str()};
}

// ----------------------------------------------------------- dispatch --

TEST(CliDispatch, NoArgumentsIsUsageError) {
  const auto result = run_cli({});
  EXPECT_EQ(result.code, kExitUsage);
  EXPECT_NE(result.err.find("usage: mood"), std::string::npos);
}

TEST(CliDispatch, TopLevelHelpExitsZero) {
  for (const auto* flag : {"--help", "-h", "help"}) {
    const auto result = run_cli({flag});
    EXPECT_EQ(result.code, kExitOk) << flag;
    EXPECT_NE(result.out.find("simulate"), std::string::npos);
    EXPECT_NE(result.out.find("evaluate"), std::string::npos);
    EXPECT_NE(result.out.find("report"), std::string::npos);
  }
}

TEST(CliDispatch, UnknownSubcommandIsUsageError) {
  const auto result = run_cli({"frobnicate"});
  EXPECT_EQ(result.code, kExitUsage);
  EXPECT_NE(result.err.find("unknown command 'frobnicate'"),
            std::string::npos);
}

TEST(CliDispatch, SubcommandHelpExitsZero) {
  for (const auto* command : {"simulate", "evaluate", "report", "replay"}) {
    const auto result = run_cli({command, "--help"});
    EXPECT_EQ(result.code, kExitOk) << command;
    EXPECT_NE(result.out.find("--help"), std::string::npos);
  }
  // And the help text documents the interesting flags.
  EXPECT_NE(run_cli({"evaluate", "--help"}).out.find("--strategies"),
            std::string::npos);
  EXPECT_NE(run_cli({"evaluate", "--help"}).out.find("--geoi-epsilon"),
            std::string::npos);
  EXPECT_NE(run_cli({"replay", "--help"}).out.find("--shards"),
            std::string::npos);
  EXPECT_NE(run_cli({"replay", "--help"}).out.find("--window-hours"),
            std::string::npos);
}

// -------------------------------------------------------------- flags --

TEST(CliFlags, UnknownFlagIsUsageError) {
  const auto result = run_cli({"simulate", "--no-such-flag=1"});
  EXPECT_EQ(result.code, kExitUsage);
  EXPECT_NE(result.err.find("--no-such-flag"), std::string::npos);
}

TEST(CliFlags, MistypedValueIsUsageError) {
  const auto result = run_cli({"simulate", "--scale=abc"});
  EXPECT_EQ(result.code, kExitUsage);
  EXPECT_NE(result.err.find("scale"), std::string::npos);
}

TEST(CliFlags, SpaceSeparatedFlagValueIsUsageError) {
  // `--out city.csv` parses as out=true plus a stray positional; it must
  // be rejected, not silently write a file named "true".
  for (const auto& args : {std::vector<std::string>{"simulate", "--out",
                                                    "city.csv"},
                           std::vector<std::string>{"evaluate", "--input",
                                                    "data.csv"}}) {
    std::vector<std::string> with_prog{"mood"};
    with_prog.insert(with_prog.end(), args.begin(), args.end());
    std::vector<const char*> argv;
    for (const auto& arg : with_prog) argv.push_back(arg.c_str());
    std::ostringstream out, err;
    const int code =
        run(static_cast<int>(argv.size()), argv.data(), out, err);
    EXPECT_EQ(code, kExitUsage) << args[0];
    EXPECT_NE(err.str().find("--name=value"), std::string::npos) << args[0];
  }
}

TEST(CliFlags, UnknownStrategyIsUsageError) {
  const auto result = run_cli({"evaluate", "--strategies=warp-drive"});
  EXPECT_EQ(result.code, kExitUsage);
  EXPECT_NE(result.err.find("warp-drive"), std::string::npos);
}

TEST(CliFlags, UnknownAttackIsUsageError) {
  // The dataset must exist before attacks are resolved, so keep it tiny.
  const auto result = run_cli({"evaluate", "--preset=privamov",
                               "--scale=0.01", "--min-records=2",
                               "--attacks=quantum"});
  EXPECT_EQ(result.code, kExitUsage);
  EXPECT_NE(result.err.find("quantum"), std::string::npos);
}

TEST(CliFlags, UnknownPresetIsRuntimeFailure) {
  const auto result = run_cli({"simulate", "--preset=atlantis", "--out=-"});
  EXPECT_EQ(result.code, kExitFailure);
  EXPECT_NE(result.err.find("atlantis"), std::string::npos);
}

TEST(CliReplay, RejectsBadKnobs) {
  EXPECT_EQ(run_cli({"replay", "--shards=0"}).code, kExitUsage);
  EXPECT_EQ(run_cli({"replay", "--rate=-1"}).code, kExitUsage);
  EXPECT_EQ(run_cli({"replay", "--no-such-flag"}).code, kExitUsage);
  EXPECT_EQ(run_cli({"replay", "--loop-slack=-1"}).code, kExitUsage);
  // Retired flags are unknown flags now: the micro-batch engine's, the
  // stage-timer switch, dataset-time pacing and the index toggle.
  for (const std::string retired :
       {"--engine=loop", "--batch=128", "--serial-drain", "--drain-budget=2",
        "--stage-timers=false", "--compression=86400", "--index=off"}) {
    const auto result = run_cli({"replay", retired});
    EXPECT_EQ(result.code, kExitUsage) << retired;
    EXPECT_NE(result.err.find(retired.substr(0, retired.find('='))),
              std::string::npos)
        << result.err;
  }
}

TEST(CliReplay, RejectsOversizedResourceFlags) {
  // Each shard costs a worker thread and a ring of twice --max-pending
  // slots; values past the caps are usage errors, caught before any
  // dataset is generated.
  for (const std::string& flag :
       {"--shards=" + std::to_string(stream::kMaxShards + 1),
        std::string("--shards=9223372036854775807"),
        "--max-pending=" + std::to_string(stream::kMaxPendingPerShard + 1),
        std::string("--max-pending=9223372036854775807")}) {
    const auto result = run_cli({"replay", flag});
    EXPECT_EQ(result.code, kExitUsage) << flag;
    EXPECT_NE(result.err.find(flag.substr(0, flag.find('='))),
              std::string::npos)
        << result.err;
  }
}

TEST(CliReplay, RetiredRecheckFlagIsUnknown) {
  // The held-mechanism recheck cadence is gone; its flag is rejected as an
  // unknown flag before any dataset is generated.
  const auto result = run_cli({"replay", "--loop-recheck=16"});
  EXPECT_EQ(result.code, kExitUsage);
  EXPECT_NE(result.err.find("unknown flag --loop-recheck"), std::string::npos)
      << result.err;
}

TEST(CliReplay, RetiredStalenessFlagIsUnknown) {
  // The kernel caches no profile, so there is no staleness bound to set;
  // its flag is rejected as an unknown flag before any dataset is
  // generated.
  const auto result = run_cli({"replay", "--staleness=150"});
  EXPECT_EQ(result.code, kExitUsage);
  EXPECT_NE(result.err.find("unknown flag --staleness"), std::string::npos)
      << result.err;
}

TEST(CliBench, RetiredSubcommandIsUnknown) {
  // `mood bench` is gone: the index-vs-scan agreement it checked is a
  // tier-1 test (BoundedScanEquivalence.EvaluateMoodFullIndexMatchesScan)
  // and its timings are the gateway bench's attacks.* layers. It is an
  // unknown command, flags or not.
  for (const auto& result :
       {run_cli({"bench"}), run_cli({"bench", "--preset=small"})}) {
    EXPECT_EQ(result.code, kExitUsage);
    EXPECT_NE(result.err.find("unknown command 'bench'"), std::string::npos)
        << result.err;
  }
}

TEST(CliReplay, RejectsInconsistentCheckpointFlags) {
  // Every checkpoint/restore misconfiguration is a typed usage failure
  // (exit 2), reported before any replay work starts.
  const auto restore_without_dir = run_cli({"replay", "--restore"});
  EXPECT_EQ(restore_without_dir.code, kExitUsage);
  EXPECT_NE(restore_without_dir.err.find("--checkpoint-dir"),
            std::string::npos);

  EXPECT_EQ(run_cli({"replay", "--checkpoint-every=-1"}).code, kExitUsage);
  EXPECT_EQ(run_cli({"replay", "--checkpoint-every=100"}).code, kExitUsage);

  const auto missing_dir =
      run_cli({"replay", "--restore",
               "--checkpoint-dir=/no/such/checkpoint/dir"});
  EXPECT_EQ(missing_dir.code, kExitUsage);
  EXPECT_NE(missing_dir.err.find("does not exist"), std::string::npos);

  // An existing directory with no usable snapshot inside: still exit 2
  // (SnapshotError is UsageError-shaped), never a crash.
  const std::string empty_dir =
      std::string(::testing::TempDir()) + "mood_cli_empty_ckpt";
  std::filesystem::create_directories(empty_dir);
  const auto empty = run_cli(
      {"replay", "--preset=small", "--scale=0.05", "--users=6", "--days=4",
       "--restore", "--checkpoint-dir=" + empty_dir});
  EXPECT_EQ(empty.code, kExitUsage);
  EXPECT_NE(empty.err.find("no usable snapshot"), std::string::npos);
}

TEST(CliReplay, CheckpointThenRestoreReproducesTheRunExactly) {
  // The restore drill, in-process: a checkpointed replay, then a --restore
  // replay resuming from its newest snapshot. Decisions, per-user state
  // and the cost counters must be byte-identical; only timings and the
  // checkpoint block may differ.
  const std::string dir =
      std::string(::testing::TempDir()) + "mood_cli_ckpt";
  std::filesystem::remove_all(dir);

  auto straight = run_cli({"replay", "--preset=small", "--scale=0.05",
                           "--users=8", "--days=6", "--seed=3", "--shards=3"});
  ASSERT_EQ(straight.code, kExitOk) << straight.err;

  auto checkpointed = run_cli(
      {"replay", "--preset=small", "--scale=0.05", "--users=8", "--days=6",
       "--seed=3", "--shards=3", "--checkpoint-dir=" + dir,
       "--checkpoint-every=256"});
  ASSERT_EQ(checkpointed.code, kExitOk) << checkpointed.err;

  auto restored = run_cli(
      {"replay", "--preset=small", "--scale=0.05", "--users=8", "--days=6",
       "--seed=3", "--shards=3", "--restore", "--checkpoint-dir=" + dir});
  ASSERT_EQ(restored.code, kExitOk) << restored.err;
  EXPECT_NE(restored.err.find("restored checkpoint at position"),
            std::string::npos);

  const report::Json want = report::Json::parse(straight.out);
  for (const auto* result : {&checkpointed, &restored}) {
    const report::Json got = report::Json::parse(result->out);
    ASSERT_NE(got.find("per_user"), nullptr);
    EXPECT_EQ(*got.find("per_user"), *want.find("per_user"));
    const report::Json* replay_got = got.find("replay");
    const report::Json* replay_want = want.find("replay");
    ASSERT_NE(replay_got, nullptr);
    EXPECT_EQ(*replay_got->find("decisions"), *replay_want->find("decisions"));
    EXPECT_EQ(*replay_got->find("cost"), *replay_want->find("cost"));
    EXPECT_EQ(*replay_got->find("events"), *replay_want->find("events"));
  }

  // The restored run reports its resume position in the checkpoint block,
  // and it is a multiple of the configured checkpoint cadence.
  const report::Json restored_doc = report::Json::parse(restored.out);
  const report::Json* checkpoint =
      restored_doc.find("replay")->find("checkpoint");
  ASSERT_NE(checkpoint, nullptr);
  const std::int64_t resume = checkpoint->int_or("resume_events", 0);
  EXPECT_GT(resume, 0);
  EXPECT_EQ(resume % 256, 0);

  // A fingerprint mismatch (different seed) is refused with exit 2.
  const auto mismatched = run_cli(
      {"replay", "--preset=small", "--scale=0.05", "--users=8", "--days=6",
       "--seed=4", "--shards=3", "--restore", "--checkpoint-dir=" + dir});
  EXPECT_EQ(mismatched.code, kExitUsage);
  EXPECT_NE(mismatched.err.find("different replay"), std::string::npos);
}

TEST(CliReplay, RejectsBadTelemetryFlags) {
  const auto bad_level = run_cli({"replay", "--log-level=loud"});
  EXPECT_EQ(bad_level.code, kExitUsage);
  EXPECT_NE(bad_level.err.find("--log-level"), std::string::npos);
  EXPECT_EQ(run_cli({"replay", "--metrics-every=-1"}).code, kExitUsage);
  // A periodic cadence without a destination is a misconfiguration.
  const auto no_sink = run_cli({"replay", "--metrics-every=100"});
  EXPECT_EQ(no_sink.code, kExitUsage);
  EXPECT_NE(no_sink.err.find("--metrics-out"), std::string::npos);
}

TEST(CliReplay, TelemetrySinksWriteMetricsAndTraceArtifacts) {
  // End-to-end telemetry drill: one replay writing the stream document,
  // the exposition and the Chrome trace; then `mood metrics` renders
  // both machine formats as tables.
  const std::string dir =
      std::string(::testing::TempDir()) + "mood_cli_telemetry";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string metrics_path = dir + "/metrics.prom";
  const std::string trace_path = dir + "/trace.json";
  const std::string stream_path = dir + "/stream.json";

  const auto replayed = run_cli(
      {"replay", "--preset=small", "--scale=0.05", "--users=8", "--days=6",
       "--seed=3", "--shards=3", "--out=" + stream_path,
       "--metrics-out=" + metrics_path, "--trace-out=" + trace_path,
       "--log-level=warn"});
  ASSERT_EQ(replayed.code, kExitOk) << replayed.err;
  EXPECT_NE(replayed.err.find("trace spans"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(metrics_path + ".tmp"));

  // The stream document carries the latency histogram block, consistent
  // with itself and with the exposition.
  std::ifstream stream_file(stream_path);
  std::stringstream stream_text;
  stream_text << stream_file.rdbuf();
  const report::Json document = report::Json::parse(stream_text.str());
  const report::Json* latency = document.find("replay")->find("latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->int_or("count", -1),
            document.find("replay")->int_or("events", -2));
  EXPECT_EQ(latency->string_or("unit", ""), "seconds");
  const report::Json* per_shard = latency->find("per_shard");
  ASSERT_NE(per_shard, nullptr);
  ASSERT_EQ(per_shard->items().size(), 3u);
  std::int64_t shard_total = 0;
  for (const auto& shard : per_shard->items()) {
    shard_total += shard.int_or("count", 0);
  }
  EXPECT_EQ(shard_total, latency->int_or("count", -1));
  // The canonical finish() pass is timed and folded into the end-to-end
  // rate, which can only be the slower of the two.
  const report::Json* replay = document.find("replay");
  EXPECT_GT(replay->number_or("finish_seconds", -1.0), 0.0);
  EXPECT_GT(replay->number_or("end_to_end_events_per_second", -1.0), 0.0);
  EXPECT_LT(replay->number_or("end_to_end_events_per_second", 0.0),
            replay->number_or("events_per_second", 0.0));

  // The trace is valid JSON with trace_event rows.
  std::ifstream trace_file(trace_path);
  std::stringstream trace_text;
  trace_text << trace_file.rdbuf();
  const report::Json trace = report::Json::parse(trace_text.str());
  ASSERT_NE(trace.find("traceEvents"), nullptr);
  EXPECT_FALSE(trace.find("traceEvents")->items().empty());

  // `mood metrics` renders both the exposition and the stream document.
  const auto exposition = run_cli({"metrics", metrics_path});
  ASSERT_EQ(exposition.code, kExitOk) << exposition.err;
  EXPECT_NE(exposition.out.find("mood_stream_events_total"),
            std::string::npos);
  EXPECT_NE(exposition.out.find("mood_replay_latency_seconds_p95"),
            std::string::npos);
  const auto summary = run_cli({"metrics", stream_path});
  ASSERT_EQ(summary.code, kExitOk) << summary.err;
  EXPECT_NE(summary.out.find("latency_p50_ms"), std::string::npos);
  EXPECT_NE(summary.out.find("latency_shard0_events"), std::string::npos);
  EXPECT_NE(summary.out.find("finish_seconds"), std::string::npos);
  EXPECT_NE(summary.out.find("end_to_end_events_per_second"),
            std::string::npos);
}

TEST(CliMetrics, RejectsMissingAndUnsupportedInputs) {
  EXPECT_EQ(run_cli({"metrics"}).code, kExitUsage);
  EXPECT_EQ(run_cli({"metrics", "/no/such/metrics.prom"}).code,
            kExitFailure);
  // A JSON document of the wrong schema is a typed usage error.
  const std::string path =
      std::string(::testing::TempDir()) + "mood_cli_wrong_schema.json";
  std::ofstream(path) << "{\"schema\": \"mood-result/1\"}";
  const auto wrong = run_cli({"metrics", path});
  EXPECT_EQ(wrong.code, kExitUsage);
  EXPECT_NE(wrong.err.find("mood-stream/1"), std::string::npos);
}

/// Writes `text` to a scratch exposition file and runs `mood metrics
/// --per-shard` on it.
CliResult run_metrics_on(const std::string& text) {
  const std::string path =
      std::string(::testing::TempDir()) + "mood_cli_metrics_input.prom";
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
  return run_cli({"metrics", "--per-shard", path});
}

TEST(CliMetrics, RejectsNonFiniteHistogramInputs) {
  // A NaN bucket bound once reached std::sort (undefined behaviour: NaN
  // breaks strict weak ordering), and a NaN or huge count reached
  // llround (an unspecified value). Each is now a usage error naming the
  // line.
  const std::string head =
      "# TYPE h histogram\n"
      "h_bucket{le=\"0.5\"} 1\n";
  const std::string tail =
      "h_bucket{le=\"+Inf\"} 2\n"
      "h_sum 1\n"
      "h_count 2\n";
  for (const std::string& bad :
       {std::string("h_bucket{le=\"nan\"} 1\n"),
        std::string("h_bucket{le=\"inf\"} 1\n"),
        std::string("h_bucket{le=\"-Inf\"} 1\n"),
        std::string("h_bucket{le=\"1x\"} 1\n"),
        std::string("h_bucket{le=\"1\"} nan\n"),
        std::string("h_bucket{le=\"1\"} 1e300\n"),
        std::string("h_bucket{le=\"1\"} -1\n"),
        std::string("h_count{shard=\"0\"} inf\n")}) {
    const auto result = run_metrics_on(head + bad + tail);
    EXPECT_EQ(result.code, kExitUsage) << bad;
    EXPECT_NE(result.err.find(":3:"), std::string::npos)
        << bad << result.err;
  }
  const auto good = run_metrics_on(head + tail);
  EXPECT_EQ(good.code, kExitOk) << good.err;
  EXPECT_NE(good.out.find("h_p50"), std::string::npos);
}

TEST(MetricsFuzz, MutatedExpositionsRenderOrExitUsage) {
  // A fixed budget of seeded mutations of expositions rendered by
  // render_exposition (merged and per-shard histograms, escaped labels):
  // `mood metrics` must render each input or reject it as a usage error
  // (exit 2) — never a runtime failure, a crash or undefined behaviour
  // (the sanitize preset runs this too). Mutants that start with '{' take
  // the JSON path, which JsonFuzz covers. A failing input is printed
  // escaped, to be pinned as a regression case.
  const auto corpus = testing::seed_corpus(
      std::string(MOOD_TEST_DATA_DIR) + "/exposition",
      {"single.prom", "sharded.prom", "labels.prom"});
  ASSERT_EQ(corpus.size(), 3u);
  for (const auto& seed : corpus) {
    const auto result = run_metrics_on(seed);
    EXPECT_EQ(result.code, kExitOk) << result.err << testing::escaped(seed);
  }
  support::RngStream rng(2026);
  std::size_t rendered = 0;
  std::size_t rejected = 0;
  for (int iteration = 0; iteration < 2000; ++iteration) {
    const std::string input = testing::mutate(corpus, rng);
    const std::size_t head = input.find_first_not_of(" \t\r\n");
    if (head != std::string::npos && input[head] == '{') continue;
    const auto result = run_metrics_on(input);
    if (result.code == kExitOk) {
      ++rendered;
    } else if (result.code == kExitUsage) {
      ++rejected;
    } else {
      ADD_FAILURE() << "exit " << result.code << " (" << result.err
                    << ") on \"" << testing::escaped(input)
                    << "\" (iteration " << iteration << ")";
    }
  }
  // Not vacuous: mutations both render and get rejected.
  EXPECT_GT(rendered, 100u);
  EXPECT_GT(rejected, 100u);
}

TEST(CliReport, NoInputsIsUsageError) {
  EXPECT_EQ(run_cli({"report"}).code, kExitUsage);
}

TEST(CliReport, MissingFileIsRuntimeFailure) {
  const auto result = run_cli({"report", "/no/such/file.json"});
  EXPECT_EQ(result.code, kExitFailure);
}

TEST(CliReport, BadFormatIsUsageError) {
  EXPECT_EQ(run_cli({"report", "x.json", "--format=xml"}).code, kExitUsage);
}

TEST(CliReport, DispatchesStreamAndRejectsRetiredBenchSchema) {
  const std::string dir = ::testing::TempDir();
  const std::string bench_path = dir + "mood_cli_test_bench.json";
  const std::string stream_path = dir + "mood_cli_test_stream.json";

  report::Json stream = report::Json::object();
  stream["schema"] = "mood-stream/1";
  report::Json stream_meta = report::Json::object();
  stream_meta["dataset"] = "smoke";
  stream["meta"] = std::move(stream_meta);
  report::Json replay = report::Json::object();
  replay["events"] = 1000;
  replay["batches"] = 4;
  replay["users"] = 7;
  replay["wall_seconds"] = 0.5;
  replay["events_per_second"] = 2000.0;
  stream["replay"] = std::move(replay);
  report::write_json_file(stream_path, stream);

  // Table format renders one schema-appropriate block per file.
  const auto table = run_cli({"report", stream_path});
  ASSERT_EQ(table.code, kExitOk) << table.err;
  EXPECT_NE(table.out.find("events_per_second"), std::string::npos);
  EXPECT_NE(table.out.find("mood-stream/1"), std::string::npos);
  // An older document's micro-batch count still renders.
  EXPECT_NE(table.out.find("batches"), std::string::npos);

  // JSON merging accepts any known schema.
  const auto merged = run_cli({"report", stream_path, "--format=json"});
  ASSERT_EQ(merged.code, kExitOk) << merged.err;
  const report::Json doc = report::Json::parse(merged.out);
  EXPECT_EQ(doc.string_or("schema", ""), "mood-report/1");
  EXPECT_EQ(doc.find("runs")->size(), 1u);

  // CSV output stays a uniform row shape: non-result schemas are a typed
  // usage error, not silently mangled rows.
  EXPECT_EQ(run_cli({"report", stream_path, "--format=csv"}).code,
            kExitUsage);

  // The retired perf-bench layout is an unsupported schema, named in
  // the error, in every format.
  report::Json bench = report::Json::object();
  bench["schema"] = "mood-bench/1";
  bench["benchmarks"] = report::Json::array();
  report::write_json_file(bench_path, bench);
  for (const auto& result :
       {run_cli({"report", bench_path}),
        run_cli({"report", stream_path, bench_path, "--format=json"})}) {
    EXPECT_EQ(result.code, kExitUsage);
    EXPECT_NE(result.err.find("mood-bench/1"), std::string::npos)
        << result.err;
  }
}

TEST(CliReport, UnknownSchemaIsUsageError) {
  const std::string path =
      std::string(::testing::TempDir()) + "mood_cli_test_unknown.json";
  report::Json doc = report::Json::object();
  doc["schema"] = "mood-quux/9";
  report::write_json_file(path, doc);
  const auto result = run_cli({"report", path});
  EXPECT_EQ(result.code, kExitUsage);
  EXPECT_NE(result.err.find("unsupported schema"), std::string::npos);
}

// --------------------------------------------------------- end-to-end --

TEST(CliPipeline, SimulateEvaluateReport) {
  const std::string dir = ::testing::TempDir();
  const std::string csv = dir + "mood_cli_test_dataset.csv";
  const std::string json = dir + "mood_cli_test_result.json";

  // simulate: small city so the whole pipeline stays fast in Debug.
  auto simulate = run_cli({"simulate", "--preset=privamov", "--scale=0.05",
                           "--users=8", "--days=6", "--seed=3",
                           "--out=" + csv});
  ASSERT_EQ(simulate.code, kExitOk) << simulate.err;
  // The summary on stdout is valid JSON.
  const report::Json summary = report::Json::parse(simulate.out);
  EXPECT_EQ(summary.int_or("users", 0), 8);

  // evaluate: cheap strategies only.
  auto evaluate = run_cli({"evaluate", "--input=" + csv, "--name=e2e",
                           "--strategies=no-lppm,geoi", "--min-records=4",
                           "--seed=3", "--out=" + json});
  ASSERT_EQ(evaluate.code, kExitOk) << evaluate.err;

  std::ifstream in(json);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const report::Json document = report::Json::parse(buffer.str());
  EXPECT_EQ(document.string_or("schema", ""), "mood-result/1");
  const report::Json* strategies = document.find("strategies");
  ASSERT_NE(strategies, nullptr);
  ASSERT_EQ(strategies->size(), 2u);
  for (const auto& strategy : strategies->items()) {
    EXPECT_NE(strategy.find("data_loss"), nullptr);
    EXPECT_NE(strategy.find("distortion_bands"), nullptr);
    EXPECT_NE(strategy.find("per_user"), nullptr);
  }
  EXPECT_EQ(strategies->items()[0].string_or("strategy", ""), "no-LPPM");

  // report: the table mentions both strategies and the dataset name.
  auto report_run = run_cli({"report", json});
  ASSERT_EQ(report_run.code, kExitOk) << report_run.err;
  EXPECT_NE(report_run.out.find("no-LPPM"), std::string::npos);
  EXPECT_NE(report_run.out.find("GeoI"), std::string::npos);
  EXPECT_NE(report_run.out.find("e2e"), std::string::npos);

  // report --format=json wraps the document unchanged.
  auto merged = run_cli({"report", json, "--format=json"});
  ASSERT_EQ(merged.code, kExitOk);
  const report::Json bundle = report::Json::parse(merged.out);
  EXPECT_EQ(bundle.string_or("schema", ""), "mood-report/1");
  ASSERT_EQ(bundle.find("runs")->size(), 1u);
  EXPECT_EQ(*bundle.find("runs")->items()[0].find("report"), document);
}

TEST(CliReplay, ReplaysAndVerifiesAgainstBatch) {
  // End-to-end `mood replay` on a tiny population: the gateway replays the
  // stream, the built-in verification compares the final decisions to the
  // batch evaluators (exit 1 on divergence), and the emitted document is a
  // well-formed mood-stream/1.
  auto replay = run_cli({"replay", "--preset=small", "--scale=0.05",
                         "--users=8", "--days=6", "--seed=3", "--shards=3"});
  ASSERT_EQ(replay.code, kExitOk) << replay.err;
  const report::Json document = report::Json::parse(replay.out);
  EXPECT_EQ(document.string_or("schema", ""), "mood-stream/1");
  // One execution engine: the configuration block is the shard layout,
  // windows, slack cadence and target rate — no engine, micro-batch,
  // recheck-cadence, compression, stage-timer or staleness keys — and no
  // batch count is written.
  EXPECT_EQ(document.find("stream")->find("engine"), nullptr);
  EXPECT_EQ(document.find("stream")->find("staleness_points"), nullptr);
  EXPECT_EQ(document.find("stream")->size(), 6u);
  EXPECT_EQ(document.find("replay")->find("batches"), nullptr);

  const report::Json* replay_doc = document.find("replay");
  ASSERT_NE(replay_doc, nullptr);
  EXPECT_GT(replay_doc->int_or("events", 0), 0);
  const report::Json* match = replay_doc->find("batch_match");
  ASSERT_NE(match, nullptr);
  EXPECT_TRUE(match->is_bool() && match->as_bool());
  EXPECT_EQ(replay_doc->find("latency_seconds"), nullptr);
  const report::Json* latency = replay_doc->find("latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_GE(latency->number_or("p99", -1.0), latency->number_or("p50", 0.0));

  const report::Json* per_user = document.find("per_user");
  ASSERT_NE(per_user, nullptr);
  EXPECT_EQ(static_cast<std::int64_t>(per_user->size()),
            replay_doc->int_or("users", -1));
  for (const auto& user : per_user->items()) {
    const std::string decision = user.string_or("decision", "");
    EXPECT_TRUE(decision == "expose" || decision == "protect") << decision;
  }

  // A lossy window configuration skips verification (batch_match: null)
  // but still succeeds.
  auto windowed = run_cli({"replay", "--preset=small", "--scale=0.05",
                           "--users=8", "--days=6", "--seed=3",
                           "--window-hours=24", "--max-points=64"});
  ASSERT_EQ(windowed.code, kExitOk) << windowed.err;
  const report::Json windowed_doc = report::Json::parse(windowed.out);
  const report::Json* windowed_match =
      windowed_doc.find("replay")->find("batch_match");
  ASSERT_NE(windowed_match, nullptr);
  EXPECT_TRUE(windowed_match->is_null());
}

}  // namespace
}  // namespace mood::cli
