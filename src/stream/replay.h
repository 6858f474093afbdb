#pragma once

/// \file replay.h
/// Replay — drive the online gateway from an offline dataset and measure
/// it.
///
/// Converts per-user test traces into one globally time-ordered event
/// stream and pushes it through a StreamEngine in fixed-size micro-batches,
/// optionally paced (a target event rate, or dataset-time compression),
/// measuring sustained throughput and per-event decision latency
/// (p50/p95/p99). Batch boundaries are event-count based and therefore
/// deterministic: pacing and thread counts shape the latency numbers, never
/// the decisions.
///
/// Latency accounting: an event's latency runs from its (scheduled)
/// arrival at the gateway to the completion of the drain() that decided
/// its micro-batch — ingest queueing plus decision time, which is what a
/// caller blocked on the gateway would observe. The canonical finish()
/// pass is timed separately (finish_seconds) and counted in the
/// end-to-end throughput, not in per-event latency.
///
/// Since PR 9 the percentiles come from the engine's per-shard
/// log-bucketed latency histogram (mood_replay_latency_seconds, see
/// telemetry/metrics.h) instead of buffering every sample for one big
/// sort: memory is O(batch_events) instead of O(stream length), at the
/// price of bucket resolution. With 16 log buckets per power-of-two
/// octave the reported p50/p95/p99/max carry a relative error of at most
/// (1/16)/2 ~= 3.2% — comfortably inside a 5% bound — while count and
/// mean stay exact (the histogram accumulates the true sum).

#include <cstdint>
#include <vector>

#include "mobility/dataset.h"
#include "stream/engine.h"
#include "stream/event.h"
#include "telemetry/metrics.h"

namespace mood::stream {

/// Replay pacing + batching knobs.
struct ReplayOptions {
  /// Events per wall-clock second pushed into the gateway; 0 = unpaced
  /// (maximum sustainable rate — the throughput-bench mode).
  double target_rate = 0.0;
  /// Dataset seconds replayed per wall-clock second; 0 = off. Ignored when
  /// target_rate is set. (A 30-day dataset at 86400 replays in ~30 s.)
  double time_compression = 0.0;
  /// Micro-batch size: drain() runs after this many events (and once more
  /// for the trailing partial batch). Must be > 0.
  std::size_t batch_events = 256;
  /// Resume position: skip the first `resume_events` events (already
  /// folded into the engine by restore_snapshot) and continue from there.
  /// Batch engines: must be a multiple of batch_events (or ==
  /// events.size()), so the resumed run's micro-batch boundaries — which
  /// decisions may depend on — line up with the uninterrupted run's.
  /// Checkpoints fire at drain() boundaries, so any restored position
  /// satisfies this. Loop engines have no batch boundaries: any position
  /// a loop checkpoint produced (the engine quiesces first, so the
  /// position covers every processed event) is valid.
  std::size_t resume_events = 0;
};

/// Nearest-rank latency percentiles over the decided events, in seconds,
/// derived from the log-bucketed histogram (bucket-midpoint values,
/// <= ~3.2% relative error; mean is exact).
struct LatencySummary {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  double mean = 0.0;
};

/// Outcome of one replay run. After a resume, `events`/`batches` are
/// cumulative across the restored prefix (mirroring the engine's
/// continued counters) while the wall-clock, throughput, and latency
/// numbers describe this session only — a restore cannot retroactively
/// measure the crashed process's timings.
struct ReplayResult {
  std::size_t events = 0;
  std::size_t batches = 0;
  std::size_t session_events = 0;  ///< events ingested by this process
  double wall_seconds = 0.0;       ///< first arrival -> last drain done
  double events_per_second = 0.0;  ///< session_events / wall_seconds
  double finish_seconds = 0.0;     ///< the canonical finish() pass
  /// session_events / (wall_seconds + finish_seconds): the serving rate
  /// with the final verdicts' cost included.
  double end_to_end_events_per_second = 0.0;
  LatencySummary latency;
  /// The full latency distribution behind `latency`: merged across
  /// shards, plus one per-shard view (index == shard). Serialized as the
  /// mood-stream/1 `replay.latency` histogram block.
  telemetry::HistogramSnapshot latency_histogram;
  std::vector<telemetry::HistogramSnapshot> latency_per_shard;
  std::vector<UserDecision> decisions;  ///< final per-user state (sorted)
  StreamStats stats;                    ///< engine counters after finish()
};

/// Flattens the test halves of `pairs` into one event stream sorted by
/// record time; ties keep each user's original record order, so every
/// user's sub-stream re-assembles their test trace exactly. `seq` is the
/// global stream position.
std::vector<StreamEvent> make_event_stream(
    const std::vector<mobility::TrainTestPair>& pairs);

/// Deterministic poison injection for chaos drills (the CLI's
/// --poison-users/--poison-stride flags and the chaos-smoke CI job).
struct PoisonSpec {
  /// Poison the first `users` user ids (in sorted id order) that appear
  /// in the stream. 0 = no-op.
  std::size_t users = 0;
  /// Corrupt every stride-th event of a poisoned user (1 = every event).
  std::size_t stride = 3;
};

/// Corrupts events of the selected users *in place* — rotating through
/// malformed-coordinate and time-regression kinds — and returns the
/// number of events poisoned. Stream length and order are untouched, so
/// micro-batch boundaries (and therefore every healthy user's decision
/// inputs) are byte-identical to the clean stream: under
/// --on-bad-record=quarantine a chaos run must reproduce healthy users'
/// decisions exactly, and this is the property that makes it testable.
std::size_t inject_poison(std::vector<StreamEvent>& events,
                          const PoisonSpec& spec);

/// Ingests `events` in order through `engine`, then finish()es and
/// snapshots decisions. The execution mode follows the engine's config:
/// batch engines drain every options.batch_events; loop engines stream
/// every event straight to the shard workers (pumping the checkpoint/
/// export cadences per event) and quiesce before the clock stops, so
/// events_per_second covers every admission-time decision;
/// end_to_end_events_per_second adds the timed finish() pass. Pacing
/// (target_rate/time_compression) is per-event in both modes — but only
/// loop mode turns it into per-event decision latency; batch latency is
/// floored by batch accumulation. The engine should be freshly
/// constructed (its counters and state are not reset).
ReplayResult run_replay(StreamEngine& engine,
                        const std::vector<StreamEvent>& events,
                        const ReplayOptions& options = {});

}  // namespace mood::stream
