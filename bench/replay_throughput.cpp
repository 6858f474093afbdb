// Throughput/latency bench for the online gateway (src/stream): replays
// one preset through the StreamEngine over a (shard count x staleness
// bound x arrival rate) grid and reports sustained events/sec plus
// p50/p95/p99 decision latency per run — the scaling story behind the
// committed BENCH_pr5.json and the loop-engine BENCH_pr10.json.
//
//   ./replay_throughput [--datasets=privamov] [--scale=0.25] [--seed=7]
//                       [--shards=1,2,4,8] [--staleness=0]
//                       [--arrival-rate=0]
//                       [--loop-slack=64]
//                       [--checkpoint-every=0] [--checkpoint-dir=DIR]
//                       [--shed-high=0] [--shed-low=0]
//                       [--json=replay.json]
//
// Defaults to privamov (the most at-risk population, so the mechanism-
// selection path is exercised hard) at scale 0.25. --staleness accepts a
// comma list (e.g. 0,64,256) to measure the staleness-vs-throughput
// tradeoff instead of anecdotes: higher bounds defer the PIT/POI profile
// refreshes at the cost of mid-stream decisions lagging the window (the
// final decisions are canonicalised by finish() and must stay identical).
// --arrival-rate is a comma list of paced open-loop arrival rates in
// events/sec (0 = unpaced, the throughput mode); paced runs measure the
// per-event decision latency a caller observes, which an unpaced run's
// queueing would swamp.
// --checkpoint-every=N additionally re-runs every grid point with
// periodic mood-snapshot/3 checkpoints (cadence N events, written to
// --checkpoint-dir or a temp directory) and prints the throughput
// overhead — the number the PR 7 acceptance bar caps at 10%.
// --shed-high/--shed-low switch on load shedding for every grid point,
// pricing the degraded-decision path (validating admission is always on
// and costs the same either way).
// --telemetry-twin=1 (the default) runs each grid point twice — stage
// timers off, then stage timers on with an active trace session — and
// prints the telemetry overhead, the number the PR 9 acceptance bar
// caps at 3%. Set --telemetry-twin=0 for the old single-run grid
// (stage timers on, no trace).
// Shedding only defers work that finish() re-does canonically, so the
// determinism gate below still applies unchanged — a divergence under
// shedding is a real bug, not an expected artefact.
// --json writes an array of "mood-stream/1" documents, one per grid
// point. Every run's final decisions are compared across the whole grid
// (checkpointed runs included — checkpointing must never perturb them);
// exits non-zero if they ever diverge (the determinism gate, cheaper than
// the full batch verification `mood replay` performs).

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "experiment_common.h"
#include "report/report.h"
#include "stream/engine.h"
#include "stream/replay.h"
#include "telemetry/trace.h"

namespace {

/// Strict comma-list parse: every element must be a bare non-negative
/// decimal integer (no sign, no trailing junk — "64x" must not silently
/// measure 64, "-1" must not wrap), or the bench exits 2 with a usage
/// message like Options::get_int would.
std::vector<std::size_t> parse_list(const std::string& flag,
                                    const std::string& list) {
  std::vector<std::size_t> values;
  std::string current;
  for (const char c : list + ",") {
    if (c != ',') {
      current.push_back(c);
      continue;
    }
    if (current.empty()) continue;
    // All-digits check before stoul: stoul would happily wrap "-1" into
    // 2^64-1 and accept leading whitespace, both violating the contract.
    bool digits = true;
    for (const char d : current) digits = digits && d >= '0' && d <= '9';
    unsigned long value = 0;
    try {
      value = digits ? std::stoul(current) : 0;
    } catch (const std::exception&) {
      digits = false;
    }
    if (!digits) {
      std::fprintf(stderr,
                   "--%s: expected a comma list of non-negative integers, "
                   "got '%s'\n",
                   flag.c_str(), current.c_str());
      std::exit(2);
    }
    values.push_back(static_cast<std::size_t>(value));
    current.clear();
  }
  return values;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mood;
  const support::Options options(argc, argv);
  bench::BenchContext ctx = bench::parse_context(argc, argv);
  if (options.get_string("datasets", "").empty()) {
    ctx.datasets = {"privamov"};
  }
  const auto shard_counts = parse_list("shards", options.get_string("shards", "1,2,4,8"));
  const auto staleness_bounds =
      parse_list("staleness", options.get_string("staleness", "0"));
  const auto arrival_rates =
      parse_list("arrival-rate", options.get_string("arrival-rate", "0"));
  if (shard_counts.empty() || staleness_bounds.empty() ||
      arrival_rates.empty()) {
    std::fprintf(stderr,
                 "--shards/--staleness/--arrival-rate lists must be "
                 "non-empty\n");
    return 2;
  }
  const auto loop_slack =
      static_cast<std::size_t>(options.get_int("loop-slack", 64));

  stream::ReplayOptions replay_options;
  const auto checkpoint_every =
      static_cast<std::uint64_t>(options.get_int("checkpoint-every", 0));
  const bool telemetry_twin = options.get_int("telemetry-twin", 1) != 0;
  stream::ResilienceConfig resilience;
  resilience.shed_high_watermark =
      static_cast<std::size_t>(options.get_int("shed-high", 0));
  resilience.shed_low_watermark =
      static_cast<std::size_t>(options.get_int("shed-low", 0));
  if (resilience.shed_low_watermark > resilience.shed_high_watermark) {
    std::fprintf(stderr, "--shed-low must not exceed --shed-high\n");
    return 2;
  }
  std::string checkpoint_dir = options.get_string("checkpoint-dir", "");
  if (checkpoint_every > 0 && checkpoint_dir.empty()) {
    checkpoint_dir = (std::filesystem::temp_directory_path() /
                      "mood_replay_throughput_ckpt")
                         .string();
  }

  report::Json documents = report::Json::array();
  int exit_code = 0;
  for (const auto& name : ctx.datasets) {
    const mobility::Dataset dataset =
        simulation::make_preset_dataset(name, ctx.scale, ctx.seed);
    const core::ExperimentHarness harness(dataset, ctx.config, ctx.seed);
    const auto events = stream::make_event_stream(harness.pairs());
    std::printf("%s: %zu users, %zu events\n", name.c_str(),
                harness.pairs().size(), events.size());
    std::printf("%8s %8s %10s %5s %12s %10s %10s %10s %10s %10s\n", "rate",
                "shards", "staleness", "mode", "events/s", "p50_ms", "p95_ms",
                "p99_ms", "searches", "refreshes");

    // Final decisions must agree across the whole grid: shard count and
    // arrival pacing never affect them, staleness short-cuts and
    // cheap-path verdicts are repaired by finish()'s canonical
    // re-decision, and checkpoint writes happen at quiesced cuts.
    std::vector<stream::UserDecision> reference;
    const auto gate = [&](const stream::ReplayResult& result,
                          std::size_t rate, std::size_t shards,
                          std::size_t staleness) {
      if (reference.empty()) {
        reference = result.decisions;
        return;
      }
      if (result.decisions.size() != reference.size()) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: %zu users decided at "
                     "rate=%zu shards=%zu staleness=%zu, %zu in the "
                     "reference run\n",
                     result.decisions.size(), rate, shards, staleness,
                     reference.size());
        exit_code = 1;
        return;
      }
      for (std::size_t i = 0; i < result.decisions.size(); ++i) {
        const auto& a = reference[i];
        const auto& b = result.decisions[i];
        if (a.user != b.user || a.decision != b.decision ||
            a.winner != b.winner) {
          std::fprintf(stderr,
                       "DETERMINISM VIOLATION: user %s decided "
                       "differently at rate=%zu shards=%zu "
                       "staleness=%zu\n",
                       b.user.c_str(), rate, shards, staleness);
          exit_code = 1;
        }
      }
    };

    for (const std::size_t arrival_rate : arrival_rates) {
    for (const std::size_t staleness : staleness_bounds) {
      for (const std::size_t shards : shard_counts) {
        stream::StreamConfig config;
        config.loop_slack = loop_slack;
        config.shards = shards;
        config.staleness_points = staleness;
        config.resilience = resilience;
        replay_options.target_rate = static_cast<double>(arrival_rate);

        // One baseline run per grid point, plus the telemetry twin
        // (stage timers + an active trace session) and, with
        // --checkpoint-every, a checkpointed twin pricing the snapshot
        // writes. Overheads are quoted against the first run.
        struct Variant {
          const char* tag;
          bool stage_timers;
          bool traced;
          bool checkpointed;
        };
        std::vector<Variant> variants;
        if (telemetry_twin) {
          variants.push_back({"off", false, false, false});
          variants.push_back({"tel", true, true, false});
        } else {
          variants.push_back({"on", true, false, false});
        }
        if (checkpoint_every > 0) {
          variants.push_back({"ckpt", true, false, true});
        }
        double baseline_eps = 0.0;
        for (const Variant& variant : variants) {
          config.telemetry.stage_timers = variant.stage_timers;
          stream::StreamEngine engine(harness.make_engine(), config);
          if (variant.checkpointed) {
            std::filesystem::remove_all(checkpoint_dir);
            engine.configure_checkpoints(
                {checkpoint_dir, checkpoint_every},
                {ctx.seed, dataset.name(), events.size()});
          }
          if (variant.traced) telemetry::TraceSession::instance().start();
          const stream::ReplayResult result =
              stream::run_replay(engine, events, replay_options);
          if (variant.traced) telemetry::TraceSession::instance().stop();
          std::printf(
              "%8zu %8zu %10zu %5s %12.0f %10.3f %10.3f %10.3f %10llu "
              "%10llu",
              arrival_rate, shards, staleness, variant.tag, result.events_per_second,
              result.latency.p50 * 1e3, result.latency.p95 * 1e3,
              result.latency.p99 * 1e3,
              static_cast<unsigned long long>(result.stats.searches),
              static_cast<unsigned long long>(
                  result.stats.profile_refreshes));
          if (&variant == &variants.front()) {
            baseline_eps = result.events_per_second;
            std::printf("\n");
          } else {
            const double overhead =
                baseline_eps > 0.0
                    ? (baseline_eps - result.events_per_second) /
                          baseline_eps * 100.0
                    : 0.0;
            if (variant.checkpointed) {
              std::printf("  (%llu snapshots, %.1f%% overhead)\n",
                          static_cast<unsigned long long>(
                              result.stats.checkpoints),
                          overhead);
            } else {
              std::printf(
                  "  (%llu spans, %.1f%% overhead)\n",
                  static_cast<unsigned long long>(
                      telemetry::TraceSession::instance().span_count()),
                  overhead);
            }
          }
          gate(result, arrival_rate, shards, staleness);

          report::RunMetadata meta;
          meta.tool = "replay_throughput";
          meta.dataset = dataset.name();
          meta.seed = ctx.seed;
          meta.wall_seconds = result.wall_seconds;
          documents.push_back(report::make_stream_report(
              meta, report::dataset_summary(dataset), config, replay_options,
              result, std::nullopt, /*include_users=*/false));
        }
      }
    }
    }
  }

  if (const std::string path = options.get_string("json", "");
      !path.empty()) {
    report::write_json_file(path, documents);
    std::printf("wrote %s\n", path.c_str());
  }
  return exit_code;
}
