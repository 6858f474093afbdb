#include "report/report.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "report/table.h"
#include "support/error.h"

namespace mood::report {

namespace {

/// Fixed-precision decimal for the human-readable summary tables.
std::string fixed(double value, int precision) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << value;
  return out.str();
}

/// Distortions can be +infinity (empty output); numbers stored as doubles
/// already serialize non-finite values to null, so no clamping needed here.
Json bands_json(const std::array<std::size_t, 4>& bands) {
  Json object = Json::object();
  object["low"] = bands[0];
  object["medium"] = bands[1];
  object["high"] = bands[2];
  object["extremely_high"] = bands[3];
  return object;
}

}  // namespace

Json to_json(const core::ExperimentConfig& config) {
  Json object = Json::object();
  object["train_fraction"] = config.train_fraction;
  object["min_records"] = config.min_records;
  object["poi_max_diameter_m"] = config.attack_params.poi.max_diameter_m;
  object["poi_min_dwell_s"] =
      static_cast<std::int64_t>(config.attack_params.poi.min_dwell);
  object["poi_min_points"] = config.attack_params.poi.min_points;
  object["heatmap_cell_m"] = config.attack_params.heatmap_cell_m;
  object["pit_proximity_scale_m"] = config.attack_params.pit_proximity_scale_m;
  object["geoi_epsilon"] = config.geoi_epsilon;
  object["trl_radius_m"] = config.trl_radius_m;
  object["hmc_hot_coverage"] = config.hmc_hot_coverage;
  object["hmc_max_cells"] = config.hmc_max_cells;
  object["hmc_budget_m"] = config.hmc_budget_m;
  object["mood_delta_s"] = static_cast<std::int64_t>(config.mood.delta);
  object["mood_preslice_s"] = static_cast<std::int64_t>(config.mood.preslice);
  object["mood_first_hit"] = config.mood.first_hit;
  return object;
}

Json to_json(const RunMetadata& meta) {
  Json object = Json::object();
  object["tool"] = meta.tool;
  object["dataset"] = meta.dataset;
  object["seed"] = static_cast<std::int64_t>(meta.seed);
  object["wall_seconds"] = meta.wall_seconds;
  Json timings = Json::object();
  for (const auto& [phase, seconds] : meta.timings) {
    timings[phase] = seconds;
  }
  object["timings"] = std::move(timings);
  return object;
}

Json to_json(const core::UserOutcome& outcome) {
  Json object = Json::object();
  object["user"] = outcome.user;
  object["protected"] = outcome.is_protected;
  object["distortion_m"] = outcome.distortion;
  object["records"] = outcome.records;
  object["winner"] = outcome.winner;
  return object;
}

Json to_json(const core::StrategyResult& result, bool include_users) {
  Json object = Json::object();
  object["strategy"] = result.strategy;
  object["users"] = result.user_count();
  object["non_protected_users"] = result.non_protected_users();
  object["non_protected_ratio"] = result.non_protected_ratio();
  object["data_loss"] = result.data_loss();
  object["distortion_bands"] = bands_json(result.distortion_bands());
  object["wall_seconds"] = result.wall_seconds;
  if (include_users) {
    Json users = Json::array();
    for (const auto& user : result.users) users.push_back(to_json(user));
    object["per_user"] = std::move(users);
  }
  return object;
}

Json to_json(const core::MoodUserOutcome& outcome) {
  Json object = Json::object();
  object["user"] = outcome.user;
  object["level"] = core::to_string(outcome.level);
  object["protected"] = outcome.fully_protected();
  object["records"] = outcome.records;
  object["lost_records"] = outcome.lost_records;
  object["subtraces"] = outcome.subtraces;
  object["protected_subtraces"] = outcome.protected_subtraces;
  object["distortion_m"] = outcome.distortion;
  object["winner"] = outcome.winner;
  object["lppm_applications"] = outcome.lppm_applications;
  object["attack_invocations"] = outcome.attack_invocations;
  return object;
}

Json to_json(const core::MoodResult& result, bool include_users) {
  Json object = Json::object();
  object["strategy"] = "MooD-full";
  object["users"] = result.users.size();
  object["non_protected_users"] = result.non_protected_users();
  object["non_protected_ratio"] =
      result.users.empty()
          ? 0.0
          : static_cast<double>(result.non_protected_users()) /
                static_cast<double>(result.users.size());
  object["data_loss"] = result.data_loss();
  object["distortion_bands"] = bands_json(result.distortion_bands());
  object["wall_seconds"] = result.wall_seconds;
  Json cost = Json::object();
  cost["lppm_applications"] = result.total_lppm_applications();
  cost["attack_invocations"] = result.total_attack_invocations();
  object["search_cost"] = std::move(cost);
  if (include_users) {
    Json users = Json::array();
    for (const auto& user : result.users) users.push_back(to_json(user));
    object["per_user"] = std::move(users);
  }
  return object;
}

Json to_json(const core::ProtectionResult& result) {
  Json object = Json::object();
  object["level"] = core::to_string(result.level);
  object["original_records"] = result.original_records;
  object["lost_records"] = result.lost_records;
  object["protected_records"] = result.protected_records();
  object["fully_protected"] = result.fully_protected();
  object["mean_distortion_m"] = result.mean_distortion();
  Json cost = Json::object();
  cost["lppm_applications"] = result.lppm_applications;
  cost["attack_invocations"] = result.attack_invocations;
  object["search_cost"] = std::move(cost);
  Json pieces = Json::array();
  for (const auto& piece : result.pieces) {
    Json entry = Json::object();
    entry["user"] = piece.trace.user();
    entry["lppm"] = piece.lppm;
    entry["level"] = core::to_string(piece.level);
    entry["records"] = piece.trace.size();
    entry["original_records"] = piece.original_records;
    entry["distortion_m"] = piece.distortion;
    pieces.push_back(std::move(entry));
  }
  object["pieces"] = std::move(pieces);
  return object;
}

Json dataset_summary(const mobility::Dataset& dataset) {
  Json object = Json::object();
  object["name"] = dataset.name();
  object["users"] = dataset.user_count();
  object["records"] = dataset.record_count();

  mobility::Timestamp first = std::numeric_limits<mobility::Timestamp>::max();
  mobility::Timestamp last = std::numeric_limits<mobility::Timestamp>::min();
  bool any = false;
  for (const auto& trace : dataset.traces()) {
    if (trace.empty()) continue;
    any = true;
    first = std::min(first, trace.front().time);
    last = std::max(last, trace.back().time);
  }
  if (any) {
    object["first_time"] = static_cast<std::int64_t>(first);
    object["last_time"] = static_cast<std::int64_t>(last);
    object["span_days"] =
        static_cast<double>(last - first) / (24.0 * 3600.0);
  }
  object["mean_records_per_user"] =
      dataset.user_count() == 0
          ? 0.0
          : static_cast<double>(dataset.record_count()) /
                static_cast<double>(dataset.user_count());
  return object;
}

Json make_report(const RunMetadata& meta, const core::ExperimentConfig& config,
                 Json dataset, std::vector<Json> strategies) {
  Json document = Json::object();
  document["schema"] = kResultSchema;
  Json meta_json = to_json(meta);
  meta_json["config"] = to_json(config);
  document["meta"] = std::move(meta_json);
  document["dataset"] = std::move(dataset);
  Json list = Json::array();
  for (auto& strategy : strategies) list.push_back(std::move(strategy));
  document["strategies"] = std::move(list);
  return document;
}

Json to_json(const core::InferenceBenchCase& result) {
  Json object = Json::object();
  object["name"] = result.name;
  object["queries"] = result.queries;
  object["reference_passes"] = result.reference_passes;
  object["optimized_passes"] = result.optimized_passes;
  object["reference_seconds"] = result.reference_seconds;
  object["optimized_seconds"] = result.optimized_seconds;
  object["speedup"] = result.speedup();
  object["agreement"] = result.agreement;
  object["mismatch"] = result.mismatch;
  if (result.scan_passes > 0) {
    object["scan_seconds"] = result.scan_seconds;
    object["scan_passes"] = result.scan_passes;
  }
  if (result.index_timed) {
    Json index = Json::object();
    index["queries"] = result.index_queries;
    index["candidates"] = result.index_candidates;
    index["pruned_candidates"] = result.index_pruned;
    index["exact_evaluations"] = result.index_exact_evals;
    index["prune_rate"] = result.prune_rate();
    index["exact_evaluations_per_query"] = result.exact_evals_per_query();
    object["index"] = std::move(index);
  }
  return object;
}

Json make_bench_report(const RunMetadata& meta, Json dataset,
                       const std::vector<core::InferenceBenchCase>& cases) {
  Json document = Json::object();
  document["schema"] = kBenchSchema;
  document["meta"] = to_json(meta);
  document["dataset"] = std::move(dataset);
  document["agreement"] = core::all_agree(cases);
  Json list = Json::array();
  for (const auto& benchmark : cases) list.push_back(to_json(benchmark));
  document["benchmarks"] = std::move(list);
  return document;
}

std::vector<std::vector<std::string>> bench_summary_rows(
    const std::vector<core::InferenceBenchCase>& cases) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"benchmark", "queries", "reference_s", "optimized_s",
                  "speedup", "prune", "agreement"});
  for (const auto& benchmark : cases) {
    rows.push_back({benchmark.name, std::to_string(benchmark.queries),
                    fixed(benchmark.reference_seconds, 3),
                    fixed(benchmark.optimized_seconds, 3),
                    fixed(benchmark.speedup(), 1) + "x",
                    benchmark.index_timed
                        ? fixed(100.0 * benchmark.prune_rate(), 1) + "%"
                        : "-",
                    benchmark.agreement ? "yes" : "NO"});
  }
  return rows;
}

Json to_json(const stream::UserDecision& decision) {
  Json object = Json::object();
  object["user"] = decision.user;
  object["decision"] = stream::to_string(decision.decision);
  object["winner"] = decision.winner;
  object["events"] = decision.events;
  object["risk_transitions"] = decision.risk_transitions;
  object["searches"] = decision.searches;
  object["window_points"] = decision.window_points;
  object["window_slices"] = decision.window_slices;
  object["quarantined"] = decision.quarantined;
  object["quarantine_reason"] = decision.quarantine_reason;
  object["dead_letters"] = decision.dead_letters;
  object["degraded"] = decision.degraded;
  return object;
}

Json to_json(const telemetry::HistogramSnapshot& histogram) {
  Json object = Json::object();
  object["count"] = histogram.count;
  object["sum"] = histogram.sum;
  object["p50"] = histogram.percentile(0.50);
  object["p95"] = histogram.percentile(0.95);
  object["p99"] = histogram.percentile(0.99);
  object["max"] = histogram.max();
  object["mean"] = histogram.mean();
  Json buckets = Json::array();
  for (const auto& bucket : histogram.buckets) {
    Json pair = Json::array();
    const double upper = telemetry::Histogram::bucket_upper_bound(bucket.index);
    // JSON has no infinity literal; the overflow bucket's bound is the
    // string "+Inf", matching the exposition format's `le` label.
    if (std::isfinite(upper)) {
      pair.push_back(upper);
    } else {
      pair.push_back(std::string("+Inf"));
    }
    pair.push_back(bucket.count);
    buckets.push_back(std::move(pair));
  }
  object["buckets"] = std::move(buckets);
  return object;
}

Json make_stream_report(const RunMetadata& meta, Json dataset,
                        const stream::StreamConfig& config,
                        const stream::ReplayOptions& options,
                        const stream::ReplayResult& result,
                        std::optional<bool> batch_match, bool include_users) {
  Json document = Json::object();
  document["schema"] = kStreamSchema;
  document["meta"] = to_json(meta);
  document["dataset"] = std::move(dataset);

  Json stream_doc = Json::object();
  stream_doc["engine"] = stream::to_string(config.engine);
  stream_doc["loop_slack"] = config.loop_slack;
  stream_doc["loop_recheck"] = config.loop_recheck;
  stream_doc["shards"] = config.shards;
  stream_doc["window_seconds"] =
      static_cast<std::int64_t>(config.window_seconds);
  stream_doc["max_points"] = config.max_points;
  stream_doc["max_users_per_shard"] = config.max_users_per_shard;
  stream_doc["staleness_points"] = config.staleness_points;
  stream_doc["batch_events"] = options.batch_events;
  stream_doc["target_rate"] = options.target_rate;
  stream_doc["time_compression"] = options.time_compression;
  stream_doc["stage_timers"] = config.telemetry.stage_timers;
  document["stream"] = std::move(stream_doc);

  Json replay = Json::object();
  replay["events"] = result.events;
  replay["batches"] = result.batches;
  replay["users"] = result.decisions.size();
  replay["wall_seconds"] = result.wall_seconds;
  replay["events_per_second"] = result.events_per_second;
  replay["finish_seconds"] = result.finish_seconds;
  replay["end_to_end_events_per_second"] =
      result.end_to_end_events_per_second;
  Json latency = Json::object();
  latency["p50"] = result.latency.p50;
  latency["p95"] = result.latency.p95;
  latency["p99"] = result.latency.p99;
  latency["max"] = result.latency.max;
  latency["mean"] = result.latency.mean;
  replay["latency_seconds"] = std::move(latency);
  // Full distribution behind the summary above: the gateway's per-shard
  // log-bucketed histogram (telemetry/metrics.h). "latency_seconds" stays
  // for consumers of older documents; new tooling should prefer this.
  Json latency_hist = to_json(result.latency_histogram);
  latency_hist["unit"] = "seconds";
  Json per_shard = Json::array();
  for (std::size_t shard = 0; shard < result.latency_per_shard.size();
       ++shard) {
    Json view = to_json(result.latency_per_shard[shard]);
    view["shard"] = shard;
    per_shard.push_back(std::move(view));
  }
  latency_hist["per_shard"] = std::move(per_shard);
  replay["latency"] = std::move(latency_hist);
  std::size_t exposed_users = 0;
  for (const auto& decision : result.decisions) {
    exposed_users += decision.decision == stream::Decision::kExpose ? 1 : 0;
  }
  Json decisions = Json::object();
  decisions["exposed_events"] = result.stats.exposed_events;
  decisions["protected_events"] = result.stats.protected_events;
  decisions["exposed_users"] = exposed_users;
  decisions["protected_users"] = result.decisions.size() - exposed_users;
  replay["decisions"] = std::move(decisions);
  Json cost = Json::object();
  cost["searches"] = result.stats.searches;
  cost["rechecks"] = result.stats.rechecks;
  cost["profile_refreshes"] = result.stats.profile_refreshes;
  cost["stay_updates"] = result.stats.stay_updates;
  cost["stay_rebuilds"] = result.stats.stay_rebuilds;
  cost["heatmap_updates"] = result.stats.heatmap_updates;
  cost["evicted_points"] = result.stats.evicted_points;
  cost["evicted_users"] = result.stats.evicted_users;
  cost["lppm_applications"] = result.stats.lppm_applications;
  cost["attack_invocations"] = result.stats.attack_invocations;
  cost["index_prunes"] = result.stats.index_prunes;
  cost["exact_evals"] = result.stats.exact_evals;
  cost["index_rebuilds"] = result.stats.index_rebuilds;
  replay["cost"] = std::move(cost);
  // Checkpoint activity is *this process's*, reported outside "cost" so a
  // restored run's per_user + cost + decisions diff clean against an
  // uninterrupted run (the CI restart drill relies on that).
  Json checkpoint = Json::object();
  checkpoint["written"] = result.stats.checkpoints;
  checkpoint["bytes"] = result.stats.checkpoint_bytes;
  checkpoint["failures"] = result.stats.checkpoint_failures;
  checkpoint["resume_events"] = options.resume_events;
  checkpoint["quarantined_snapshots"] = result.stats.quarantined_snapshots;
  replay["checkpoint"] = std::move(checkpoint);
  // Fault-tolerance counters (resilience.h) — all zero at the strict
  // defaults, so a default replay's document diffs clean against pre-PR 8
  // consumers that ignore unknown members.
  Json resilience = Json::object();
  resilience["bad_records"] = result.stats.bad_records;
  resilience["dead_letters"] = result.stats.dead_letters;
  resilience["quarantined_users"] = result.stats.quarantined_users;
  resilience["shed_decisions"] = result.stats.shed_decisions;
  resilience["degraded_batches"] = result.stats.degraded_batches;
  resilience["backpressure_events"] = result.stats.backpressure_events;
  replay["resilience"] = std::move(resilience);
  replay["batch_match"] = batch_match ? Json(*batch_match) : Json();
  document["replay"] = std::move(replay);

  if (include_users) {
    Json users = Json::array();
    for (const auto& decision : result.decisions) {
      users.push_back(to_json(decision));
    }
    document["per_user"] = std::move(users);
  }
  return document;
}

std::vector<std::vector<std::string>> stream_summary_rows(
    const stream::ReplayResult& result) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"metric", "value"});
  std::size_t exposed_users = 0;
  for (const auto& decision : result.decisions) {
    exposed_users += decision.decision == stream::Decision::kExpose ? 1 : 0;
  }
  rows.push_back({"events", std::to_string(result.events)});
  rows.push_back({"batches", std::to_string(result.batches)});
  rows.push_back({"users", std::to_string(result.decisions.size())});
  rows.push_back({"wall_seconds", fixed(result.wall_seconds, 3)});
  rows.push_back({"events_per_second", fixed(result.events_per_second, 1)});
  rows.push_back({"finish_seconds", fixed(result.finish_seconds, 3)});
  rows.push_back({"end_to_end_events_per_second",
                  fixed(result.end_to_end_events_per_second, 1)});
  rows.push_back({"latency_p50_ms", fixed(result.latency.p50 * 1e3, 3)});
  rows.push_back({"latency_p95_ms", fixed(result.latency.p95 * 1e3, 3)});
  rows.push_back({"latency_p99_ms", fixed(result.latency.p99 * 1e3, 3)});
  rows.push_back({"exposed_users", std::to_string(exposed_users)});
  rows.push_back({"protected_users",
                  std::to_string(result.decisions.size() - exposed_users)});
  rows.push_back({"searches", std::to_string(result.stats.searches)});
  rows.push_back({"rechecks", std::to_string(result.stats.rechecks)});
  rows.push_back({"profile_refreshes",
                  std::to_string(result.stats.profile_refreshes)});
  rows.push_back(
      {"stay_rebuilds", std::to_string(result.stats.stay_rebuilds)});
  if (result.stats.checkpoints > 0 || result.stats.checkpoint_failures > 0) {
    rows.push_back({"checkpoints", std::to_string(result.stats.checkpoints)});
    rows.push_back({"checkpoint_failures",
                    std::to_string(result.stats.checkpoint_failures)});
  }
  if (result.stats.bad_records > 0 || result.stats.dead_letters > 0 ||
      result.stats.quarantined_users > 0 || result.stats.shed_decisions > 0 ||
      result.stats.degraded_batches > 0 ||
      result.stats.backpressure_events > 0) {
    rows.push_back({"bad_records", std::to_string(result.stats.bad_records)});
    rows.push_back(
        {"dead_letters", std::to_string(result.stats.dead_letters)});
    rows.push_back({"quarantined_users",
                    std::to_string(result.stats.quarantined_users)});
    rows.push_back(
        {"shed_decisions", std::to_string(result.stats.shed_decisions)});
    rows.push_back(
        {"degraded_batches", std::to_string(result.stats.degraded_batches)});
    rows.push_back({"backpressure_events",
                    std::to_string(result.stats.backpressure_events)});
  }
  return rows;
}

std::vector<std::vector<std::string>> stream_summary_rows(
    const Json& stream_document) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"metric", "value"});
  const Json* replay = stream_document.find("replay");
  if (replay == nullptr) return rows;
  auto count = [&](const Json& object, const char* key) {
    return std::to_string(object.int_or(key, 0));
  };
  rows.push_back({"events", count(*replay, "events")});
  rows.push_back({"batches", count(*replay, "batches")});
  rows.push_back({"users", count(*replay, "users")});
  rows.push_back(
      {"wall_seconds", fixed(replay->number_or("wall_seconds", 0.0), 3)});
  rows.push_back({"events_per_second",
                  fixed(replay->number_or("events_per_second", 0.0), 1)});
  // Older documents carry no finish timing; omit rather than print zeros.
  if (replay->find("end_to_end_events_per_second") != nullptr) {
    rows.push_back({"finish_seconds",
                    fixed(replay->number_or("finish_seconds", 0.0), 3)});
    rows.push_back(
        {"end_to_end_events_per_second",
         fixed(replay->number_or("end_to_end_events_per_second", 0.0), 1)});
  }
  if (const Json* latency = replay->find("latency_seconds")) {
    rows.push_back(
        {"latency_p50_ms", fixed(latency->number_or("p50", 0.0) * 1e3, 3)});
    rows.push_back(
        {"latency_p95_ms", fixed(latency->number_or("p95", 0.0) * 1e3, 3)});
    rows.push_back(
        {"latency_p99_ms", fixed(latency->number_or("p99", 0.0) * 1e3, 3)});
  }
  // Per-shard latency (the "latency" histogram block, PR 9+ documents).
  if (const Json* latency = replay->find("latency")) {
    if (const Json* per_shard = latency->find("per_shard");
        per_shard != nullptr && per_shard->is_array()) {
      for (const Json& shard : per_shard->items()) {
        const std::string label =
            "latency_shard" + std::to_string(shard.int_or("shard", 0));
        rows.push_back({label + "_events", count(shard, "count")});
        rows.push_back({label + "_p95_ms",
                        fixed(shard.number_or("p95", 0.0) * 1e3, 3)});
      }
    }
  }
  if (const Json* decisions = replay->find("decisions")) {
    rows.push_back({"exposed_users", count(*decisions, "exposed_users")});
    rows.push_back({"protected_users", count(*decisions, "protected_users")});
  }
  if (const Json* cost = replay->find("cost")) {
    rows.push_back({"searches", count(*cost, "searches")});
    rows.push_back({"rechecks", count(*cost, "rechecks")});
    rows.push_back({"profile_refreshes", count(*cost, "profile_refreshes")});
    rows.push_back({"stay_rebuilds", count(*cost, "stay_rebuilds")});
  }
  if (const Json* checkpoint = replay->find("checkpoint")) {
    if (checkpoint->int_or("written", 0) > 0 ||
        checkpoint->int_or("failures", 0) > 0) {
      rows.push_back({"checkpoints", count(*checkpoint, "written")});
      rows.push_back(
          {"checkpoint_failures", count(*checkpoint, "failures")});
    }
  }
  if (const Json* resilience = replay->find("resilience")) {
    if (resilience->int_or("bad_records", 0) > 0 ||
        resilience->int_or("dead_letters", 0) > 0 ||
        resilience->int_or("quarantined_users", 0) > 0 ||
        resilience->int_or("shed_decisions", 0) > 0 ||
        resilience->int_or("degraded_batches", 0) > 0 ||
        resilience->int_or("backpressure_events", 0) > 0) {
      rows.push_back({"bad_records", count(*resilience, "bad_records")});
      rows.push_back({"dead_letters", count(*resilience, "dead_letters")});
      rows.push_back(
          {"quarantined_users", count(*resilience, "quarantined_users")});
      rows.push_back(
          {"shed_decisions", count(*resilience, "shed_decisions")});
      rows.push_back(
          {"degraded_batches", count(*resilience, "degraded_batches")});
      rows.push_back(
          {"backpressure_events", count(*resilience, "backpressure_events")});
    }
  }
  return rows;
}

std::vector<std::vector<std::string>> bench_summary_rows(
    const Json& bench_document) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"benchmark", "queries", "reference_s", "optimized_s",
                  "speedup", "prune", "agreement"});
  const Json* benchmarks = bench_document.find("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) return rows;
  for (const Json& benchmark : benchmarks->items()) {
    const Json* index = benchmark.find("index");
    rows.push_back(
        {benchmark.string_or("name", "?"),
         std::to_string(benchmark.int_or("queries", 0)),
         fixed(benchmark.number_or("reference_seconds", 0.0), 3),
         fixed(benchmark.number_or("optimized_seconds", 0.0), 3),
         fixed(benchmark.number_or("speedup", 0.0), 1) + "x",
         index != nullptr
             ? fixed(100.0 * index->number_or("prune_rate", 0.0), 1) + "%"
             : "-",
         [&] {
           const Json* agree = benchmark.find("agreement");
           return agree != nullptr && agree->is_bool() && agree->as_bool();
         }() ? "yes"
             : "NO"});
  }
  return rows;
}

std::vector<std::vector<std::string>> user_outcome_rows(
    const core::StrategyResult& result) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"user", "protected", "distortion_m", "records", "winner"});
  for (const auto& user : result.users) {
    rows.push_back({user.user, user.is_protected ? "1" : "0",
                    format_double(user.distortion, 1),
                    std::to_string(user.records), user.winner});
  }
  return rows;
}

std::vector<std::vector<std::string>> mood_outcome_rows(
    const core::MoodResult& result) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"user", "level", "records", "lost_records", "subtraces",
                  "protected_subtraces", "distortion_m", "winner",
                  "lppm_applications", "attack_invocations"});
  for (const auto& user : result.users) {
    rows.push_back({user.user, core::to_string(user.level),
                    std::to_string(user.records),
                    std::to_string(user.lost_records),
                    std::to_string(user.subtraces),
                    std::to_string(user.protected_subtraces),
                    format_double(user.distortion, 1), user.winner,
                    std::to_string(user.lppm_applications),
                    std::to_string(user.attack_invocations)});
  }
  return rows;
}

std::vector<std::vector<std::string>> strategy_summary_rows(
    const Json& report_document) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"dataset", "strategy", "users", "non_protected", "data_loss",
                  "bands(l/m/h/x)", "seconds"});
  const Json* meta = report_document.find("meta");
  const std::string dataset =
      meta != nullptr ? meta->string_or("dataset", "?") : "?";
  const Json* strategies = report_document.find("strategies");
  if (strategies == nullptr || !strategies->is_array()) return rows;
  for (const Json& strategy : strategies->items()) {
    std::array<std::size_t, 4> bands{0, 0, 0, 0};
    if (const Json* b = strategy.find("distortion_bands")) {
      bands[0] = static_cast<std::size_t>(b->int_or("low", 0));
      bands[1] = static_cast<std::size_t>(b->int_or("medium", 0));
      bands[2] = static_cast<std::size_t>(b->int_or("high", 0));
      bands[3] = static_cast<std::size_t>(b->int_or("extremely_high", 0));
    }
    rows.push_back({dataset, strategy.string_or("strategy", "?"),
                    std::to_string(strategy.int_or("users", 0)),
                    std::to_string(strategy.int_or("non_protected_users", 0)),
                    format_percent(strategy.number_or("data_loss", 0.0)),
                    format_bands(bands),
                    format_double(strategy.number_or("wall_seconds", 0.0), 2)});
  }
  return rows;
}

void write_json_file(const std::string& path, const Json& document) {
  if (path == "-") {
    document.write(std::cout);
    return;
  }
  std::ofstream out(path);
  if (!out) throw support::IoError("cannot open for writing: " + path);
  document.write(out);
  out.flush();
  if (!out) throw support::IoError("failed writing: " + path);
}

Json read_json_file(const std::string& path) {
  std::ostringstream buffer;
  if (path == "-") {
    buffer << std::cin.rdbuf();
  } else {
    std::ifstream in(path);
    if (!in) throw support::IoError("cannot open for reading: " + path);
    buffer << in.rdbuf();
  }
  return Json::parse(buffer.str());
}

}  // namespace mood::report
