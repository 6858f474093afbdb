#include "stream/replay.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <thread>

#include "support/error.h"

namespace mood::stream {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// LatencySummary from the merged histogram: nearest-rank percentiles at
/// bucket midpoints (<= ~3.2% relative error, see replay.h), exact mean.
LatencySummary summarize(const telemetry::HistogramSnapshot& histogram) {
  LatencySummary summary;
  if (histogram.empty()) return summary;
  summary.p50 = histogram.percentile(0.50);
  summary.p95 = histogram.percentile(0.95);
  summary.p99 = histogram.percentile(0.99);
  summary.max = histogram.max();
  summary.mean = histogram.mean();
  return summary;
}

}  // namespace

std::vector<StreamEvent> make_event_stream(
    const std::vector<mobility::TrainTestPair>& pairs) {
  std::vector<StreamEvent> events;
  std::size_t total = 0;
  for (const auto& pair : pairs) total += pair.test.size();
  events.reserve(total);
  for (const auto& pair : pairs) {
    for (const auto& record : pair.test.records()) {
      events.push_back(StreamEvent{pair.test.user(), record, 0});
    }
  }
  // Stable sort on time only: records of one user stay in their original
  // relative order on ties, so each user's sub-stream equals their test
  // trace record for record.
  std::stable_sort(events.begin(), events.end(),
                   [](const StreamEvent& a, const StreamEvent& b) {
                     return a.record.time < b.record.time;
                   });
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i].seq = static_cast<std::uint64_t>(i);
  }
  return events;
}

std::size_t inject_poison(std::vector<StreamEvent>& events,
                          const PoisonSpec& spec) {
  if (spec.users == 0 || events.empty()) return 0;
  support::expects(spec.stride > 0, "inject_poison: stride must be > 0");

  // Victims: the first `users` ids in sorted order — a pure function of
  // the stream content, so chaos runs are reproducible.
  std::set<mobility::UserId> ids;
  for (const StreamEvent& event : events) ids.insert(event.user);
  std::set<mobility::UserId> victims;
  for (const auto& id : ids) {
    if (victims.size() >= spec.users) break;
    victims.insert(id);
  }

  // Rotate through the malformed kinds the admission path classifies.
  // Everything is in-place: stream length and order never change, so
  // healthy users see exactly the clean stream.
  std::size_t victim_event = 0;
  std::size_t poisoned = 0;
  for (StreamEvent& event : events) {
    if (victims.count(event.user) == 0) continue;
    if (victim_event++ % spec.stride != 0) continue;
    switch (poisoned % 4) {
      case 0:
        event.record.position.lat = std::numeric_limits<double>::quiet_NaN();
        break;
      case 1:
        event.record.position.lon = std::numeric_limits<double>::infinity();
        break;
      case 2:
        event.record.position.lat = 95.0;  // finite but off the planet
        break;
      default:
        event.record.time -= 7 * mobility::kDay;  // timestamp regression
        break;
    }
    ++poisoned;
  }
  return poisoned;
}

ReplayResult run_replay(StreamEngine& engine,
                        const std::vector<StreamEvent>& events,
                        const ReplayOptions& options) {
  support::expects(options.target_rate >= 0.0 &&
                       options.time_compression >= 0.0,
                   "run_replay: pacing knobs must be non-negative");
  const std::size_t resume = options.resume_events;
  support::expects(resume <= events.size(),
                   "run_replay: resume_events is past the stream end");

  ReplayResult result;
  const bool paced = options.target_rate > 0.0 ||
                     options.time_compression > 0.0;
  const Clock::time_point start = Clock::now();
  if (resume < events.size()) {
    const mobility::Timestamp t0 = events[resume].record.time;
    // Scheduled arrival offset (seconds from *session* start) of event i.
    const auto scheduled = [&](std::size_t i) {
      if (options.target_rate > 0.0) {
        return static_cast<double>(i - resume) / options.target_rate;
      }
      return static_cast<double>(events[i].record.time - t0) /
             options.time_compression;
    };
    // Open-loop arrival process: pace each event individually, hand it
    // straight to the shard workers, and pump the checkpoint/export
    // cadences (two integer compares when nothing is due). The workers
    // record each event's arrival→decision latency themselves.
    for (std::size_t i = resume; i < events.size(); ++i) {
      if (paced) {
        const double due = scheduled(i);
        if (seconds_since(start) < due) {
          std::this_thread::sleep_until(
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(due)));
        }
      }
      engine.ingest(events[i]);
      engine.pump_cadences();
    }
    // The throughput clock covers the full decision work: stop it only
    // once every queued event is decided.
    engine.quiesce();
    result.wall_seconds = seconds_since(start);
  }

  // The canonical pass is part of what a verdict costs: timed on its own
  // so both the serving rate and the end-to-end rate can be reported.
  const Clock::time_point finish_start = Clock::now();
  engine.finish();
  result.finish_seconds = seconds_since(finish_start);

  result.session_events = events.size() - resume;
  const auto rate = [&](double seconds) {
    return seconds > 0.0
               ? static_cast<double>(result.session_events) / seconds
               : 0.0;
  };
  result.events_per_second = rate(result.wall_seconds);
  result.end_to_end_events_per_second =
      rate(result.wall_seconds + result.finish_seconds);
  result.latency_histogram = engine.replay_latency();
  result.latency_per_shard = engine.replay_latency_shards();
  result.latency = summarize(result.latency_histogram);
  result.decisions = engine.decisions();
  result.stats = engine.stats();
  // Cumulative across a restore (continued engine counters); equal to the
  // plain stream length when no restore happened.
  result.events = static_cast<std::size_t>(result.stats.events);
  return result;
}

}  // namespace mood::stream
