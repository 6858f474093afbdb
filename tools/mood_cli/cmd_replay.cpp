// `mood replay`: drive the online MooD gateway (src/stream) from an
// offline dataset. Builds the usual ExperimentHarness (train attacks on
// the background halves), converts the test halves into one globally
// time-ordered event stream, replays it through the sharded StreamEngine
// (per-shard worker threads deciding each event at admission time),
// optionally paced by a target event rate, and emits a versioned "mood-stream/1" JSON document (see
// src/report/report.h) with sustained throughput and p50/p95/p99 decision
// latency.
//
// Unless the window knobs make the replay lossy, the final per-user
// decisions are verified against harness.evaluate_gateway() — the same
// DecisionKernel run in batch mode (one pass per full test trace), which
// by construction equals the no-LPPM row's expose/protect set plus the
// whole-trace mechanism-search winners. The check therefore gates the
// *incremental* path (window folds, held verdicts, recheck policy)
// against the one-shot path — the stream-smoke CI gate. Exit 1 on any
// mismatch.

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "attacks/attack.h"
#include "core/experiment.h"
#include "mobility/io.h"
#include "mood_cli/cli.h"
#include "report/report.h"
#include "report/table.h"
#include "simulation/presets.h"
#include "stream/engine.h"
#include "stream/replay.h"
#include "stream/snapshot.h"
#include "support/error.h"
#include "support/failpoint.h"
#include "support/logging.h"
#include "support/options.h"
#include "support/thread_pool.h"
#include "telemetry/trace.h"

namespace mood::cli {

namespace {

/// "small" is the CI smoke population: PrivaMov-shaped, cut down to 20
/// users, with an 8-record active-user floor.
mobility::Dataset make_replay_dataset(const std::string& preset, double scale,
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

/// Compares the gateway's final per-user decisions against the shared
/// decision kernel run in batch mode (harness.evaluate_gateway — one
/// kernel pass per full test trace). Returns true when they agree
/// exactly; logs every divergence to `err`.
bool verify_against_batch(const core::ExperimentHarness& harness,
                          const std::vector<stream::UserDecision>& decisions,
                          std::ostream& err) {
  const core::GatewayResult batch = harness.evaluate_gateway();
  std::unordered_map<mobility::UserId, const core::GatewayOutcome*> expected;
  for (const auto& user : batch.users) expected[user.user] = &user;

  bool ok = true;
  if (decisions.size() != batch.users.size()) {
    err << "mood replay: VERIFY failed: gateway saw " << decisions.size()
        << " users, batch kernel pass has " << batch.users.size() << '\n';
    ok = false;
  }
  for (const auto& decision : decisions) {
    const auto it = expected.find(decision.user);
    if (it == expected.end()) {
      err << "mood replay: VERIFY failed: user " << decision.user
          << " unknown to the batch harness\n";
      ok = false;
      continue;
    }
    if (decision.decision != it->second->decision) {
      err << "mood replay: VERIFY failed: user " << decision.user
          << " decided " << stream::to_string(decision.decision)
          << " by the gateway but "
          << stream::to_string(it->second->decision)
          << " by the batch kernel pass\n";
      ok = false;
      continue;
    }
    // Same engine seed => the batch search's candidate is bit-identical to
    // what finish() computed; only genuine divergence trips this.
    if (decision.winner != it->second->winner) {
      err << "mood replay: VERIFY failed: user " << decision.user
          << " winner '" << decision.winner << "' != batch search winner '"
          << it->second->winner << "'\n";
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int cmd_replay(int argc, const char* const* argv, std::ostream& out,
               std::ostream& err) {
  support::FlagSet flags(
      "mood replay",
      "Replay a dataset as a live event stream through the online MooD\n"
      "gateway: sharded per-user sliding windows, per-event protect/expose\n"
      "decisions (the full tier every --loop-slack events, the held tier\n"
      "between them) and a canonical finish() pass over every user's final\n"
      "window. Writes a\n"
      "mood-stream/1 JSON document with sustained throughput and decision\n"
      "latency percentiles; verifies the final decisions against the batch\n"
      "evaluators (exit 1 on mismatch) unless the window knobs make the\n"
      "replay deliberately lossy.");
  flags.add_string("input", "",
                   "dataset CSV (user,lat,lon,timestamp; '-' = stdin); "
                   "empty: generate --preset instead");
  flags.add_string("preset", "small",
                   "preset to generate when --input is empty (mdc | privamov "
                   "| geolife | cabspotting | city-small | small)");
  flags.add_double("scale", 0.25, "record-volume scale for --preset");
  flags.add_string("name", "", "dataset display name (default: input/preset)");
  flags.add_int("users", 0, "override the preset's user count (0 = keep)");
  flags.add_int("days", 0, "override the simulated period in days (0 = keep)");
  flags.add_int("seed", 7, "generator + harness seed");
  flags.add_int("jobs", 0, "worker threads (0 = hardware concurrency)");
  flags.add_int("min-records", 0,
                "active-user floor per half (0 = default; 'small' uses 8)");
  flags.add_int("shards", 8, "user-state shards (each with its own mutex)");
  flags.add_double("window-hours", 0.0,
                   "sliding-window span per user (0 = keep everything)");
  flags.add_int("max-points", 0, "per-user window point cap (0 = unbounded)");
  flags.add_int("max-users", 0,
                "resident users per shard before LRU eviction (0 = "
                "unbounded)");
  flags.add_int("loop-slack", 64,
                "full re-decision every N folded events per user; held "
                "verdicts between (0 = decide every event)");
  flags.add_double("rate", 0.0,
                   "target ingest rate in events/second (0 = unpaced)");
  flags.add_bool("verify", true,
                 "check final decisions against the batch evaluators run "
                 "on the linear-scan oracle — an index-vs-scan divergence "
                 "gate (skipped automatically for lossy window "
                 "configurations)");
  flags.add_string("checkpoint-dir", "",
                   "directory for crash-consistent mood-snapshot/6 "
                   "checkpoints (empty = checkpointing off)");
  flags.add_int("checkpoint-every", 0,
                "write a checkpoint every N ingested events, at a quiesced "
                "cut (0 = off; requires --checkpoint-dir)");
  flags.add_bool("restore", false,
                 "resume from the newest usable snapshot in "
                 "--checkpoint-dir instead of replaying from the start");
  flags.add_string("on-bad-record", "fail",
                   "admission policy for malformed events: fail (throw, the "
                   "strict default) | skip (drop + count) | quarantine "
                   "(isolate the user, dead-letter their events)");
  flags.add_int("max-pending", 0,
                "per-shard ring depth before ingest signals backpressure "
                "(0 = unbounded, no signal)");
  flags.add_int("shed-high", 0,
                "per-shard ring depth at which a shard sheds load — held "
                "verdicts instead of full decisions (0 = never shed)");
  flags.add_int("shed-low", 0,
                "ring depth at which a shedding shard recovers (hysteresis; "
                "0 with --shed-high set = half of --shed-high)");
  flags.add_int("poison-users", 0,
                "chaos drill: corrupt events of the first N user ids in "
                "place before replaying (0 = off)");
  flags.add_int("poison-stride", 3,
                "chaos drill: corrupt every stride-th event of a poisoned "
                "user");
  flags.add_bool("per-user", true, "include the per_user array in the JSON");
  flags.add_string("out", "-", "stream JSON path ('-' = stdout)");
  flags.add_string("metrics-out", "",
                   "rewrite a Prometheus-style metrics exposition here "
                   "(atomic tmp+fsync+rename) on the export cadence and "
                   "once after the replay (empty = off)");
  flags.add_int("metrics-every", 0,
                "rewrite --metrics-out every N ingested events, at a "
                "quiesced cut (0 = follow --checkpoint-every; final "
                "rewrite always happens)");
  flags.add_string("trace-out", "",
                   "dump a Chrome trace_event JSON of the replay's spans "
                   "here — load in chrome://tracing or Perfetto (empty = "
                   "tracing off)");
  flags.add_string("log-level", "off",
                   "gateway transition logging to stderr: off | warn | "
                   "info | debug (off keeps stderr to progress lines "
                   "only; stdout JSON is never touched)");
  flags.parse(argc, argv);
  if (flags.get_bool("help")) {
    out << flags.help();
    return kExitOk;
  }
  flags.reject_positionals();
  const std::string log_level = flags.get_string("log-level");
  if (log_level == "off") {
    support::set_log_level(support::LogLevel::kOff);
  } else if (log_level == "warn") {
    support::set_log_level(support::LogLevel::kWarn);
  } else if (log_level == "info") {
    support::set_log_level(support::LogLevel::kInfo);
  } else if (log_level == "debug") {
    support::set_log_level(support::LogLevel::kDebug);
  } else {
    throw support::UsageError(
        "mood replay: --log-level must be off, warn, info or debug");
  }

  // Vet cheap flag constraints before dataset generation and training.
  const auto shards = flags.get_int("shards");
  if (shards <= 0 || shards > static_cast<std::int64_t>(stream::kMaxShards)) {
    throw support::UsageError("mood replay: --shards must be in [1, " +
                              std::to_string(stream::kMaxShards) + "]");
  }
  if (flags.get_int("max-pending") >
      static_cast<std::int64_t>(stream::kMaxPendingPerShard)) {
    throw support::UsageError(
        "mood replay: --max-pending must not exceed " +
        std::to_string(stream::kMaxPendingPerShard));
  }
  if (flags.get_double("window-hours") < 0.0 || flags.get_int("max-points") < 0 ||
      flags.get_int("max-users") < 0 || flags.get_double("rate") < 0.0) {
    throw support::UsageError(
        "mood replay: window/pacing knobs must be non-negative");
  }
  if (flags.get_int("checkpoint-every") < 0) {
    throw support::UsageError(
        "mood replay: --checkpoint-every must be non-negative");
  }
  if (flags.get_int("metrics-every") < 0) {
    throw support::UsageError(
        "mood replay: --metrics-every must be non-negative");
  }
  if (flags.get_int("metrics-every") > 0 &&
      flags.get_string("metrics-out").empty()) {
    throw support::UsageError(
        "mood replay: --metrics-every requires --metrics-out");
  }
  if (flags.get_int("max-pending") < 0 || flags.get_int("shed-high") < 0 ||
      flags.get_int("shed-low") < 0 || flags.get_int("poison-users") < 0) {
    throw support::UsageError(
        "mood replay: resilience knobs must be non-negative");
  }
  if (flags.get_int("poison-stride") <= 0) {
    throw support::UsageError("mood replay: --poison-stride must be positive");
  }
  if (flags.get_int("loop-slack") < 0) {
    throw support::UsageError(
        "mood replay: --loop-slack must be non-negative");
  }
  const stream::BadRecordPolicy bad_record_policy =
      stream::parse_bad_record_policy(flags.get_string("on-bad-record"));
  std::size_t shed_high = static_cast<std::size_t>(flags.get_int("shed-high"));
  std::size_t shed_low = static_cast<std::size_t>(flags.get_int("shed-low"));
  if (shed_high > 0 && shed_low == 0) shed_low = shed_high / 2;
  if (shed_low > shed_high) {
    throw support::UsageError(
        "mood replay: --shed-low must not exceed --shed-high");
  }
  const std::string checkpoint_dir = flags.get_string("checkpoint-dir");
  if (flags.get_int("checkpoint-every") > 0 && checkpoint_dir.empty()) {
    throw support::UsageError(
        "mood replay: --checkpoint-every requires --checkpoint-dir");
  }
  if (flags.get_bool("restore")) {
    if (checkpoint_dir.empty()) {
      throw support::UsageError(
          "mood replay: --restore requires --checkpoint-dir");
    }
    if (!std::filesystem::is_directory(checkpoint_dir)) {
      throw support::UsageError("mood replay: checkpoint directory '" +
                                checkpoint_dir + "' does not exist");
    }
  }
  // Fault-injection hook (tests/CI only; compiled out of Release builds —
  // a no-op unless MOOD_FAILPOINTS is set in the environment).
  testing::FailPoint::arm_from_env();
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
  meta.tool = "mood replay";
  meta.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  // ---- Dataset --------------------------------------------------------
  const std::string input = flags.get_string("input");
  const std::string preset = flags.get_string("preset");
  mobility::Dataset dataset;
  if (input.empty()) {
    dataset = make_replay_dataset(preset, flags.get_double("scale"),
                                  flags.get_int("users"),
                                  flags.get_int("days"), meta.seed);
  } else if (input == "-") {
    dataset = mobility::read_dataset_csv(std::cin, "stdin");
  } else {
    dataset = mobility::read_dataset_csv_file(input, input);
  }
  if (const std::string name = flags.get_string("name"); !name.empty()) {
    dataset.set_name(name);
  }
  meta.dataset = dataset.name();
  meta.timings.emplace_back("load", elapsed());

  // ---- Harness (train attacks on the background halves) ---------------
  core::ExperimentConfig config;
  if (const auto floor = flags.get_int("min-records"); floor > 0) {
    config.min_records = static_cast<std::size_t>(floor);
  } else if (input.empty() && preset == "small") {
    config.min_records = 8;
  }
  const auto harness_started = elapsed();
  const core::ExperimentHarness harness(dataset, config, meta.seed);
  meta.timings.emplace_back("harness", elapsed() - harness_started);

  // ---- Gateway + replay ----------------------------------------------
  stream::StreamConfig stream_config;
  stream_config.loop_slack =
      static_cast<std::size_t>(flags.get_int("loop-slack"));
  stream_config.shards = static_cast<std::size_t>(flags.get_int("shards"));
  stream_config.window_seconds = static_cast<mobility::Timestamp>(
      flags.get_double("window-hours") * 3600.0);
  stream_config.max_points =
      static_cast<std::size_t>(flags.get_int("max-points"));
  stream_config.max_users_per_shard =
      static_cast<std::size_t>(flags.get_int("max-users"));
  stream_config.resilience.on_bad_record = bad_record_policy;
  stream_config.resilience.max_pending_per_shard =
      static_cast<std::size_t>(flags.get_int("max-pending"));
  stream_config.resilience.shed_high_watermark = shed_high;
  stream_config.resilience.shed_low_watermark = shed_low;

  stream::ReplayOptions replay_options;
  replay_options.target_rate = flags.get_double("rate");

  auto events = stream::make_event_stream(harness.pairs());
  if (const auto victims = flags.get_int("poison-users"); victims > 0) {
    stream::PoisonSpec poison;
    poison.users = static_cast<std::size_t>(victims);
    poison.stride = static_cast<std::size_t>(flags.get_int("poison-stride"));
    const std::size_t poisoned = stream::inject_poison(events, poison);
    err << "chaos drill: poisoned " << poisoned << " events across "
        << poison.users << " users (stride " << poison.stride << ")\n";
  }
  stream::StreamEngine engine(harness.make_engine(), stream_config);

  // ---- Telemetry sinks -------------------------------------------------
  const std::string metrics_out = flags.get_string("metrics-out");
  if (!metrics_out.empty()) {
    // Default the periodic rewrite to the checkpoint cadence; 0 of both
    // means the only exposition is the final one after finish().
    std::uint64_t every =
        static_cast<std::uint64_t>(flags.get_int("metrics-every"));
    if (every == 0) {
      every = static_cast<std::uint64_t>(flags.get_int("checkpoint-every"));
    }
    engine.configure_metrics_export(metrics_out, every);
  }
  const std::string trace_out = flags.get_string("trace-out");
  if (!trace_out.empty()) {
    telemetry::TraceSession::instance().start();
  }

  // ---- Checkpoint / restore -------------------------------------------
  stream::SnapshotContext snapshot_context;
  snapshot_context.seed = meta.seed;
  snapshot_context.dataset = dataset.name();
  snapshot_context.total_events = events.size();
  if (!checkpoint_dir.empty() && flags.get_int("checkpoint-every") > 0) {
    stream::CheckpointPolicy policy;
    policy.dir = checkpoint_dir;
    policy.every_events =
        static_cast<std::uint64_t>(flags.get_int("checkpoint-every"));
    engine.configure_checkpoints(policy, snapshot_context);
  }
  if (flags.get_bool("restore")) {
    const auto restore_started = elapsed();
    std::size_t quarantined_files = 0;
    const stream::SnapshotData snapshot =
        stream::read_latest_snapshot(checkpoint_dir, &quarantined_files);
    // The snapshot must describe this exact replay: same seed, dataset
    // and stream length — anything else would resume a different stream
    // and silently change the published decisions. (restore_snapshot
    // additionally vets the gateway config.)
    if (snapshot.context.seed != snapshot_context.seed ||
        snapshot.context.dataset != snapshot_context.dataset ||
        snapshot.context.total_events != snapshot_context.total_events) {
      throw support::UsageError(
          "mood replay: snapshot in '" + checkpoint_dir +
          "' fingerprints a different replay (seed/dataset/stream "
          "mismatch) — refusing to resume from it");
    }
    if (snapshot.stream_position > events.size()) {
      throw support::UsageError(
          "mood replay: snapshot position " +
          std::to_string(snapshot.stream_position) +
          " is past the end of this stream");
    }
    engine.restore_snapshot(snapshot);
    engine.note_quarantined_snapshots(quarantined_files);
    replay_options.resume_events =
        static_cast<std::size_t>(snapshot.stream_position);
    err << "restored checkpoint at position " << snapshot.stream_position
        << " (" << snapshot.users.size() << " users) from " << checkpoint_dir;
    if (quarantined_files > 0) {
      err << " after quarantining " << quarantined_files
          << " corrupt snapshot file(s)";
    }
    err << '\n';
    meta.timings.emplace_back("restore", elapsed() - restore_started);
  }

  err << "replaying " << events.size() << " events from "
      << harness.pairs().size() << " users through " << stream_config.shards
      << " shards...\n";
  const auto replay_started = elapsed();
  const stream::ReplayResult result =
      stream::run_replay(engine, events, replay_options);
  meta.timings.emplace_back("replay", elapsed() - replay_started);

  // Trace covers exactly the replay (ingest through finish); the batch
  // verification pass below is offline kernel work, not gateway spans.
  if (!trace_out.empty()) {
    telemetry::TraceSession& session = telemetry::TraceSession::instance();
    session.stop();
    std::ofstream trace_file(trace_out, std::ios::binary | std::ios::trunc);
    if (!trace_file) {
      throw support::IoError("mood replay: cannot open trace output '" +
                             trace_out + "'");
    }
    session.dump_chrome_json(trace_file);
    trace_file.flush();
    if (!trace_file) {
      throw support::IoError("mood replay: failed writing trace output '" +
                             trace_out + "'");
    }
    err << "wrote " << session.span_count() << " trace spans to " << trace_out;
    if (session.dropped() > 0) {
      err << " (" << session.dropped() << " dropped: ring full)";
    }
    err << '\n';
  }
  // One final exposition so the file reflects the finished replay even
  // when the event-count cadence never fired (or --metrics-every=0).
  if (!metrics_out.empty()) {
    const std::uint64_t bytes = engine.export_metrics_now();
    err << "wrote " << bytes << " bytes of metrics to " << metrics_out
        << '\n';
  }

  // ---- Batch-equivalence verification ---------------------------------
  // A bounded window / point cap / LRU cap deliberately forgets data, so
  // the final windows no longer equal the batch test traces — verification
  // would compare different inputs and is skipped.
  const bool lossy = stream_config.window_seconds > 0 ||
                     stream_config.max_points > 0 ||
                     stream_config.max_users_per_shard > 0;
  // Dropped or dead-lettered events likewise mean the gateway decided on
  // different inputs than the batch pass would. Shedding does NOT skip
  // verification: finish() canonicalizes every user, so final
  // decisions must still match the batch oracle exactly.
  const bool degraded_inputs = result.stats.bad_records > 0 ||
                               result.stats.quarantined_users > 0;
  std::optional<bool> batch_match;
  if (flags.get_bool("verify")) {
    if (lossy) {
      err << "mood replay: skipping batch verification (bounded window "
             "configuration is deliberately lossy)\n";
    } else if (degraded_inputs) {
      err << "mood replay: skipping batch verification (bad records were "
             "dropped or quarantined — the gateway decided on different "
             "inputs than the batch pass)\n";
    } else {
      const auto verify_started = elapsed();
      // The stream queried the AP posting index (its default); run the
      // batch pass on the linear-scan oracle, so the replay is verified
      // against independent machinery (decisions must be bit-identical
      // across modes).
      harness.set_attack_query_mode(attacks::QueryMode::kScan);
      batch_match = verify_against_batch(harness, result.decisions, err);
      meta.timings.emplace_back("verify", elapsed() - verify_started);
    }
  }
  meta.wall_seconds = elapsed();

  // ---- Emit -----------------------------------------------------------
  report::Json dataset_doc = report::dataset_summary(dataset);
  dataset_doc["active_users"] = harness.pairs().size();
  const report::Json document = report::make_stream_report(
      meta, std::move(dataset_doc), stream_config, replay_options, result,
      batch_match, flags.get_bool("per-user"));

  const std::string out_path = flags.get_string("out");
  if (out_path == "-") {
    document.write(out);
  } else {
    report::write_json_file(out_path, document);
    err << "wrote " << out_path << '\n';
    auto rows = report::stream_summary_rows(result);
    report::Table table(std::move(rows.front()));
    for (std::size_t i = 1; i < rows.size(); ++i) {
      table.add_row(std::move(rows[i]));
    }
    table.print(out);
  }

  if (batch_match.has_value() && !*batch_match) {
    err << "mood replay: replayed decisions DIVERGE from the batch "
           "evaluators\n";
    return kExitFailure;
  }
  return kExitOk;
}

}  // namespace mood::cli
