#pragma once

/// \file report.h
/// Structured result reporting: the one place where experiment outcomes
/// become JSON documents and CSV tables.
///
/// Every front end — the `mood` CLI, the figure benches, the examples —
/// serializes through these functions, so a result produced anywhere can be
/// consumed anywhere (`mood report` aggregates and compares the emitted
/// files). The JSON document layout is versioned through the top-level
/// `schema` member, currently `"mood-result/1"`:
///
/// \verbatim
/// {
///   "schema": "mood-result/1",
///   "meta": {            // RunMetadata: provenance of the run
///     "tool": "mood evaluate", "dataset": "PrivaMov", "seed": 7,
///     "wall_seconds": 12.3, "timings": {"harness": 1.9, "strategies": 8.1},
///     "config": { ... every ExperimentConfig knob ... }
///   },
///   "dataset": {         // summary statistics of the evaluated dataset
///     "name": "PrivaMov", "users": 41, "records": 102345,
///     "first_time": 1546300800, "last_time": 1548892800,
///     "span_days": 30.0, "mean_records_per_user": 2496.2
///   },
///   "strategies": [      // one uniform object per evaluated strategy
///     {
///       "strategy": "GeoI", "users": 41,
///       "non_protected_users": 12, "non_protected_ratio": 0.2926,
///       "data_loss": 0.3105,
///       "distortion_bands": {"low": 10, "medium": 9, "high": 8,
///                             "extremely_high": 2},
///       "per_user": [ {"user": "u01", "protected": true, ...}, ... ]
///     },
///     {
///       "strategy": "MooD-full", ...,  // same members as above, plus:
///       "search_cost": {"lppm_applications": 410,
///                        "attack_invocations": 1290}
///     }
///   ]
/// }
/// \endverbatim
///
/// `data_loss` and the ratios are fractions in [0, 1]; distortions are
/// metres; timestamps are Unix seconds. `per_user` is optional (large) and
/// `search_cost` appears only on the full-pipeline strategy ("MooD-full",
/// serialized from MoodResult — the other rows don't count search
/// effort). Strategy objects carry no timing: one harness pass shares
/// their work, timed as `meta.timings.strategies`.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "decision/mood_engine.h"
#include "mobility/dataset.h"
#include "report/json.h"
#include "stream/engine.h"
#include "stream/replay.h"
#include "telemetry/metrics.h"

namespace mood::report {

/// Identifier of the result-document layout produced by make_report().
inline constexpr const char* kResultSchema = "mood-result/1";

/// Identifier of the online-gateway replay layout produced by
/// make_stream_report() (`mood replay`):
///
/// \verbatim
/// {
///   "schema": "mood-stream/1",
///   "meta": { ... RunMetadata, as in mood-result/1 ... },
///   "dataset": { ... dataset_summary() ... },
///   "stream": {          // gateway + replay configuration (documents
///                        // written by older builds also carry the
///                        // engine mode, micro-batch size, recheck
///                        // cadence, time-compression pacing factor,
///                        // stage-timer switch and staleness bound
///                        // here, "replay.batches", and the
///                        // profile-refresh, stay-tracker and
///                        // heatmap-update counts in "replay.cost")
///     "loop_slack": 64,
///     "shards": 8, "window_seconds": 0, "max_points": 0,
///     "max_users_per_shard": 0, "target_rate": 0.0
///   },
///   "replay": {          // measured outcome
///     "events": 24576, "users": 20,
///     "wall_seconds": 1.84, "events_per_second": 13356.5,
///     "finish_seconds": 0.21,   // the timed canonical finish() pass
///     "end_to_end_events_per_second": 11992.7,  // events /
///                                // (wall_seconds + finish_seconds)
///     "latency": {         // decision latency: the per-shard
///                          // log-bucketed histogram
///                          // (telemetry/metrics.h). Percentiles are
///                          // bucket midpoints (<= ~3.2% relative
///                          // error); count/sum/mean are exact. Like
///                          // "checkpoint", this block is per-process
///                          // timing and lives outside "cost".
///       "unit": "seconds", "count": 24576, "sum": 18.4,
///       "p50": ..., "p95": ..., "p99": ..., "max": ..., "mean": ...,
///       "buckets": [[upper_bound, count], ...],   // sparse, ascending;
///                          // the overflow bucket's bound serializes as
///                          // the string "+Inf"
///       "per_shard": [     // lane views, index == shard
///         {"shard": 0, "count": ..., "p50": ..., "p95": ..., "p99": ...,
///          "buckets": [[upper_bound, count], ...]}, ...
///       ]
///     },
///     "decisions": {"exposed_events": ..., "protected_events": ...,
///                    "exposed_users": ..., "protected_users": ...},
///     "cost": {"searches": ..., "rechecks": ...,
///               "evicted_points": ..., "evicted_users": ...,
///               "lppm_applications": ..., "attack_invocations": ...,
///               "index_prunes": ..., "exact_evals": ...,
///               "index_rebuilds": ...},  // prunes and rebuilds are the
///                          // AP posting index's; exact_evals sums every
///                          // attack's priced distances
///     "checkpoint": {"written": 3, "bytes": 183200, "failures": 0,
///                     "resume_events": 0,    // this process's checkpoint
///                     "quarantined_snapshots": 0},  // corrupt snapshot
///                          // files renamed aside during restore
///                          // activity (mood-snapshot/6 files written /
///                          // the restore position) — deliberately
///                          // outside "cost": a restored run's per_user +
///                          // cost + decisions are bit-identical to the
///                          // uninterrupted run's, only this block and
///                          // the timing numbers differ
///     "resilience": {      // fault-tolerance counters (resilience.h);
///                          // all zero at the strict defaults
///       "bad_records": 0, "dead_letters": 0, "quarantined_users": 0,
///       "shed_decisions": 0,
///       "degraded_batches": 0,   // shed engagements
///       "backpressure_events": 0},
///     "batch_match": true  // replayed final decisions == batch evaluators
///                          // (null when verification was skipped)
///   },
///   "per_user": [        // final gateway state, sorted by user
///     {"user": "u01", "decision": "protect", "winner": "GeoI",
///      "events": 640, "risk_transitions": 1, "searches": 2,
///      "window_points": 640, "window_slices": 12,
///      "quarantined": false, "quarantine_reason": "",
///      "dead_letters": 0, "degraded": 0}, ...
///   ]
/// }
/// \endverbatim
///
/// Latencies are seconds; `window_slices` counts the 24 h preslice
/// partitions of the user's final window. Decisions and counters are
/// deterministic in the event stream — identical across --jobs and shard
/// counts; only the timing numbers vary.
inline constexpr const char* kStreamSchema = "mood-stream/1";

/// Provenance of one run: which tool produced it, on what data, with which
/// seed, and where the wall-clock time went. Timings are (phase, seconds)
/// pairs in execution order.
struct RunMetadata {
  std::string tool;
  std::string dataset;
  std::uint64_t seed = 0;
  double wall_seconds = 0.0;
  std::vector<std::pair<std::string, double>> timings;
};

// ---- Domain -> JSON --------------------------------------------------

/// Every ExperimentConfig knob, flat, using the CLI flag spellings
/// (geoi_epsilon, trl_radius_m, ...) so a result file documents exactly
/// how to re-run it.
Json to_json(const core::ExperimentConfig& config);

Json to_json(const RunMetadata& meta);

/// {"user", "protected", "distortion", "records", "winner"}.
Json to_json(const core::UserOutcome& outcome);

/// Uniform strategy object (see file comment). `include_users` controls
/// the potentially large "per_user" array.
Json to_json(const core::StrategyResult& result, bool include_users = true);

/// Full per-user MooD pipeline outcome, including slicing and search-cost
/// counters.
Json to_json(const core::MoodUserOutcome& outcome);

/// Uniform strategy object for the full pipeline, reported under the
/// strategy name "MooD-full" with aggregate "search_cost".
Json to_json(const core::MoodResult& result, bool include_users = true);

/// Single-trace Algorithm 1 outcome (engine-level; used by examples that
/// drive MoodEngine::protect directly), including the published pieces.
Json to_json(const core::ProtectionResult& result);

/// Summary statistics of a dataset: user/record counts, covered time span,
/// record volume per user. Callers may add context-specific members (e.g.
/// the harness's active-user count) to the returned object.
Json dataset_summary(const mobility::Dataset& dataset);

/// Assembles the versioned result document from its parts.
Json make_report(const RunMetadata& meta, const core::ExperimentConfig& config,
                 Json dataset, std::vector<Json> strategies);

/// Final gateway state of one user (see kStreamSchema's "per_user").
Json to_json(const stream::UserDecision& decision);

/// One latency histogram as a JSON object: exact count/sum, sparse
/// [upper_bound, count] bucket pairs (ascending; "+Inf" for the overflow
/// bucket's bound), and derived p50/p95/p99/max/mean. The building block
/// of the mood-stream/1 "latency" block.
Json to_json(const telemetry::HistogramSnapshot& histogram);

/// Assembles the versioned "mood-stream/1" document from its parts.
/// `batch_match` is the batch-equivalence verification verdict: true /
/// false when it ran, nullopt (serialized as null) when skipped (e.g.
/// windowed replays, whose final windows are deliberately partial).
Json make_stream_report(const RunMetadata& meta, Json dataset,
                        const stream::StreamConfig& config,
                        const stream::ReplayOptions& options,
                        const stream::ReplayResult& result,
                        std::optional<bool> batch_match,
                        bool include_users = true);

/// Key-figure rows (header first) for one replay result: events, rate,
/// latency percentiles, decision split, profile-maintenance cost — the
/// human-readable companion of the mood-stream/1 document.
std::vector<std::vector<std::string>> stream_summary_rows(
    const stream::ReplayResult& result);

/// Same key-figure rows extracted from an already-serialized mood-stream/1
/// document (`mood report` renders foreign stream files through this).
std::vector<std::vector<std::string>> stream_summary_rows(
    const Json& stream_document);

// ---- Domain -> CSV ---------------------------------------------------

/// Per-user rows (header first): user, protected, distortion_m, records,
/// winner.
std::vector<std::vector<std::string>> outcome_rows(
    const core::StrategyResult& result);

/// Per-user rows (header first) for the full pipeline: user, level,
/// records, lost_records, subtraces, protected_subtraces, distortion_m,
/// winner, lppm_applications, attack_invocations.
std::vector<std::vector<std::string>> outcome_rows(
    const core::MoodResult& result);

/// One summary row per strategy object of a result document (header
/// first): dataset, strategy, users, non_protected, data_loss, bands.
/// Accepts any JSON produced by make_report(), including older documents
/// whose strategy objects still carry `wall_seconds`.
std::vector<std::vector<std::string>> strategy_summary_rows(
    const Json& report_document);

// ---- Files -----------------------------------------------------------

/// Pretty-prints `document` to `path` ("-" writes to stdout). Throws
/// support::IoError on failure.
void write_json_file(const std::string& path, const Json& document);

/// Parses a JSON document from `path` ("-" reads stdin). Throws
/// support::IoError on failure.
Json read_json_file(const std::string& path);

}  // namespace mood::report
