#pragma once

/// \file engine.h
/// StreamEngine — the online MooD gateway's ingest and scheduling layer.
///
/// The batch harness answers "is this user protected?" once per dataset;
/// the gateway answers it continuously. Since PR 5 the per-user decision
/// procedure itself — window folding, targeted branch-and-bound risk
/// queries of all three attacks on the window, the keep/recheck/search
/// mechanism-selection policy — lives in decision::DecisionKernel, shared
/// verbatim with the batch evaluators
/// (ExperimentHarness::evaluate_gateway), which are the oracle. What
/// remains here is the online plumbing around it, one execution engine:
///
///   * ingest(): stateless admission checks on the producer, then a push
///     into the owning shard's lock-free SPSC ring (spsc_queue.h);
///   * one long-lived worker thread per shard: dequeue → stateful
///     admission → one-record kernel.fold → one kernel.step at the tier
///     decision::tier_for picks: full risk+search on the slack cadence
///     (loop_slack), held otherwise, shed while the shard is overloaded;
///   * quiesce(): the cut barrier (rings empty, worker state visible) that
///     checkpoints and metrics exports run behind;
///   * finish(): retires the workers and steps every resident user
///     through Tier::kFinal, in parallel on the shared ThreadPool (the
///     pool --jobs sizes), so the final per-user decisions and winners are
///     exactly what the kernel's batch pass computes on the final window.
///
/// Determinism invariants (CI-enforced):
///   * A user's decision sequence is a pure function of that user's event
///     sequence — never of the shard count, --jobs, wall-clock timing, or
///     where a checkpoint cut fell.
///   * finish() canonicalises winners whatever held-verdict or shed
///     short-cuts were taken mid-stream.
///
/// PR 8 adds the resilience layer (see resilience.h): a validating
/// admission path with per-user quarantine, fault isolation around each
/// user's fold/decide, and overload control (backpressure signal on ring
/// depth, shed hysteresis). All off by default; a poisoned user never
/// perturbs a healthy one, and shed verdicts are repaired by finish().

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "decision/kernel.h"
#include "stream/event.h"
#include "stream/resilience.h"
#include "stream/user_state.h"
#include "telemetry/metrics.h"

namespace mood::stream {

/// The one execution mode: per-shard workers fed by SPSC ingest rings.
/// Kept as a lone value because bench/gateway/gateway_bench.cpp assigns
/// StreamConfig::engine.
enum class EngineMode : std::uint8_t {
  kLoop = 1,
};

/// Caps on the knobs that size per-shard resources: a shard costs an OS
/// thread and a ring of twice max_pending_per_shard slots.
inline constexpr std::size_t kMaxShards = 256;
inline constexpr std::size_t kMaxPendingPerShard = std::size_t{1} << 20;

/// Gateway tuning knobs. The window subset configures the embedded
/// DecisionKernel; the rest is scheduling.
struct StreamConfig {
  std::size_t shards = 8;  ///< user-state shards, in [1, kMaxShards]
  mobility::Timestamp window_seconds = 0;  ///< sliding window span; 0 = keep all
  std::size_t max_points = 0;           ///< per-user point cap; 0 = unbounded
  std::size_t max_users_per_shard = 0;  ///< LRU capacity; 0 = unbounded
  /// Must be 0 (the kernel refuses any other value). Pinned because
  /// bench/gateway/gateway_bench.cpp reads it; ROADMAP item 1(c) deletes it.
  std::size_t staleness_points = 0;
  /// Read by nothing; kept because bench/gateway/gateway_bench.cpp assigns it.
  EngineMode engine = EngineMode::kLoop;
  /// Full risk+search decision every `loop_slack`-th folded event of a
  /// user (plus always on their first). 0 = full decision every event
  /// (slow). Shapes the mid-stream decision sequence, so it participates
  /// in the snapshot config fingerprint.
  std::size_t loop_slack = 64;
  /// Read by nothing: the engine and snapshot restore ignore it. Pinned
  /// because bench/gateway/gateway_bench.cpp reads it; ROADMAP item 1(c)
  /// deletes it.
  std::size_t loop_recheck = 16;
  /// Start the shard workers lazily on the first ingest (default). Tests
  /// set false to pre-fill the rings — e.g. to drive the shed latch
  /// deterministically; the workers then start at start_loop(), at the
  /// first quiesce()/finish(), or when a push finds its ring full.
  /// Timing-only, never serialized.
  bool loop_autostart = true;
  /// Fault-tolerance knobs (see resilience.h); the defaults are strict —
  /// everything off — so the batch-equivalence gates are untouched.
  ResilienceConfig resilience;
};

/// Aggregate gateway counters (monotonic; snapshot via stats()). Mostly a
/// re-export of the kernel's counters plus the store/scheduler ones.
struct StreamStats {
  std::uint64_t events = 0;            ///< ingested
  std::uint64_t decisions = 0;         ///< per-event verdicts
  std::uint64_t exposed_events = 0;    ///< events carried by expose verdicts
  std::uint64_t protected_events = 0;  ///< events carried by protect verdicts
  std::uint64_t searches = 0;          ///< full mechanism selections
  /// Cheap current-winner re-checks; only the slack-cadence ones that
  /// precede a search decision (the held tier runs none).
  std::uint64_t rechecks = 0;
  std::uint64_t evicted_points = 0;    ///< records expired out of windows
  std::uint64_t evicted_users = 0;     ///< LRU evictions (store)
  std::uint64_t lppm_applications = 0; ///< search/recheck cost counters
  std::uint64_t attack_invocations = 0;
  /// Population-index counters (via the kernel, from the trained
  /// attacks). Zero when queries run in scan mode.
  std::uint64_t index_prunes = 0;    ///< candidates skipped via lower bounds
  std::uint64_t exact_evals = 0;     ///< candidates priced exactly
  std::uint64_t index_rebuilds = 0;  ///< full index (re)builds
  /// Checkpoint counters (see snapshot.h). Reported separately from the
  /// decision-cost block so restore bit-identity diffs stay clean.
  std::uint64_t checkpoints = 0;         ///< snapshots committed
  std::uint64_t checkpoint_bytes = 0;    ///< bytes committed
  std::uint64_t checkpoint_failures = 0; ///< writes aborted (I/O failure)
  /// Resilience counters (see resilience.h); all zero at the strict
  /// defaults. Reported in the mood-stream/1 `resilience` block.
  std::uint64_t bad_records = 0;         ///< malformed events at admission
  std::uint64_t dead_letters = 0;        ///< events dropped via quarantine
  std::uint64_t quarantined_users = 0;   ///< users ever quarantined
  std::uint64_t shed_decisions = 0;      ///< degraded held-verdict decisions
  std::uint64_t degraded_batches = 0;    ///< shed engagements (ring depth)
  std::uint64_t backpressure_events = 0; ///< ingests over the shard bound
  /// Snapshot files renamed aside (.quarantined) during restore — this
  /// process's forensics, raw like the checkpoint counters.
  std::uint64_t quarantined_snapshots = 0;
};

/// One StreamStats counter, listed once for every consumer.
struct StreamStatField {
  std::uint64_t StreamStats::* member;
  /// Mirror gauge published at exposition time (refresh_gauges), named for
  /// the stream report vocabulary; nullptr for none. Gauges, not counters,
  /// because stats() already applies the continuation math — re-counting
  /// would double-apply it.
  const char* gauge;
  /// Continues across a restore as baseline + (raw - floor). The
  /// checkpoint counters and quarantined_snapshots do not: they describe
  /// *this process's* checkpoint activity (reported outside the decision
  /// cost block), not the logical stream, so they stay raw.
  bool continued;
};

/// Every StreamStats counter in declaration order, which is also the order
/// of the mood-snapshot/5 STATS section. Drives stats() continuation, the
/// mood_gateway_* mirror gauges and the snapshot codec.
inline constexpr StreamStatField kStreamStatFields[] = {
    {&StreamStats::events, "mood_gateway_events", true},
    {&StreamStats::decisions, "mood_gateway_decisions", true},
    {&StreamStats::exposed_events, "mood_gateway_exposed_events", true},
    {&StreamStats::protected_events, "mood_gateway_protected_events", true},
    {&StreamStats::searches, "mood_gateway_searches", true},
    {&StreamStats::rechecks, "mood_gateway_rechecks", true},
    {&StreamStats::evicted_points, "mood_gateway_evicted_points", true},
    {&StreamStats::evicted_users, "mood_gateway_evicted_users", true},
    {&StreamStats::lppm_applications, "mood_gateway_lppm_applications", true},
    {&StreamStats::attack_invocations, "mood_gateway_attack_invocations",
     true},
    {&StreamStats::index_prunes, "mood_gateway_index_prunes", true},
    {&StreamStats::exact_evals, "mood_gateway_exact_evals", true},
    {&StreamStats::index_rebuilds, "mood_gateway_index_rebuilds", true},
    {&StreamStats::checkpoints, nullptr, false},
    {&StreamStats::checkpoint_bytes, nullptr, false},
    {&StreamStats::checkpoint_failures, nullptr, false},
    {&StreamStats::bad_records, nullptr, true},
    {&StreamStats::dead_letters, nullptr, true},
    {&StreamStats::quarantined_users, nullptr, true},
    {&StreamStats::shed_decisions, "mood_gateway_shed_decisions", true},
    {&StreamStats::degraded_batches, nullptr, true},
    {&StreamStats::backpressure_events, nullptr, true},
    {&StreamStats::quarantined_snapshots, nullptr, false},
};

static_assert(
    [] {
      for (std::size_t i = 0; i < std::size(kStreamStatFields); ++i) {
        for (std::size_t j = 0; j < i; ++j) {
          if (kStreamStatFields[i].member == kStreamStatFields[j].member) {
            return false;
          }
        }
      }
      return std::size(kStreamStatFields) * sizeof(std::uint64_t) ==
             sizeof(StreamStats);
    }(),
    "kStreamStatFields must list every StreamStats counter exactly once");

/// Periodic checkpointing knobs. Disabled unless both are set. A
/// checkpoint is written at a quiesced cut as soon as the cumulative
/// ingested-event position advanced `every_events` past the last one
/// (pump_cadences) — an event-count cadence, so checkpoint positions are a
/// deterministic function of the event stream, never of wall-clock timing.
struct CheckpointPolicy {
  std::string dir;                  ///< snapshot directory; "" = disabled
  std::uint64_t every_events = 0;   ///< cadence in events; 0 = disabled
};

/// Identity fingerprint stored in every snapshot alongside the
/// StreamConfig. restore refuses a snapshot whose fingerprint (or config)
/// does not match the running gateway — resuming someone else's state
/// would silently change published decisions.
struct SnapshotContext {
  std::uint64_t seed = 0;          ///< generator + harness seed
  std::string dataset;             ///< dataset display name
  std::uint64_t total_events = 0;  ///< full replay stream length
  /// Not encoded; kept because bench/gateway/gateway_bench.cpp
  /// aggregate-initialises all four fields.
  std::uint64_t batch_events = 0;
};

struct SnapshotData;  // full definition in stream/snapshot.h

/// Final state of one user after finish().
struct UserDecision {
  mobility::UserId user;
  Decision decision = Decision::kExpose;
  std::string winner;                 ///< "" when exposed or nothing protects
  std::uint64_t events = 0;
  std::uint64_t risk_transitions = 0;
  std::uint64_t searches = 0;
  std::size_t window_points = 0;
  std::size_t window_slices = 0;      ///< preslice partitions, computed at read
  /// Resilience flags: a quarantined user's decision is the held last
  /// verdict (state frozen, reason recorded); `degraded` counts verdicts
  /// issued on the shed path (always repaired by the canonical finish).
  bool quarantined = false;
  std::string quarantine_reason;
  std::uint64_t dead_letters = 0;
  std::uint64_t degraded = 0;
};

/// What ingest() did with one event — the admission verdict callers can
/// react to (the replay driver counts; a real service would also slow its
/// reads on kAdmittedSlow).
enum class IngestStatus : std::uint8_t {
  kAdmitted,     ///< pushed on the fast path
  kAdmittedSlow, ///< pushed, but the shard's ring depth crossed the
                 ///< backpressure bound — an explicit slow-down signal
  kRejected,     ///< malformed, dropped (kSkip; kFail throws instead)
  kQuarantined,  ///< malformed, and it tripped quarantine on its user
  kDeadLettered, ///< user already quarantined; event dropped
};

class StreamEngine {
 public:
  /// Takes ownership of a configured MoodEngine (typically
  /// harness.make_engine()) and wraps it in the shared decision kernel;
  /// the engine's attacks must outlive this object.
  StreamEngine(decision::MoodEngine engine, StreamConfig config);

  /// Joins the shard workers; worker faults pending at destruction are
  /// swallowed — call finish()/quiesce() to observe them.
  ~StreamEngine();
  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Admits one event (producer thread only). The stateless checks — id
  /// shape, coordinate range — classify here: an unattributable event
  /// (empty or oversized id) is handled per
  /// config().resilience.on_bad_record right away (kFail throws
  /// BadRecordError, the strict default; otherwise dead-lettered). Every
  /// other event is pushed into its shard's ring — blocking, never
  /// dropping, when the ring is full — and the stateful half of admission
  /// (monotonicity, quarantine) runs on the shard worker, so ingest()
  /// returns kAdmitted (or kAdmittedSlow once the ring depth crosses
  /// max_pending_per_shard) for events a worker later rejects; their
  /// outcomes surface in stats() and decisions(). A worker fault (e.g.
  /// BadRecordError under the strict policy) is rethrown here on a
  /// subsequent ingest, or at quiesce()/finish(). Every presented event
  /// advances stream_position(), admitted or not, so checkpoint/resume
  /// indices stay aligned with the replay stream.
  IngestStatus ingest(const StreamEvent& event);

  /// Starts the per-shard workers. Implicit on the first ingest when
  /// config().loop_autostart; explicit start lets tests pre-fill rings.
  /// No-op when already started.
  void start_loop();

  /// Blocks until every event pushed so far has been fully processed by
  /// its shard worker (the rings are empty and the last decision done),
  /// then returns with all worker-side state visible to the caller.
  /// Starts the workers first if the rings were pre-filled without them.
  /// Rethrows a captured worker fault. This is the checkpoint-cut
  /// protocol: capture_snapshot() is only meaningful after a quiesce.
  void quiesce();

  /// Producer-side cadence pump: when the checkpoint or metrics-export
  /// cadence has elapsed, quiesces the workers and runs it. Call once per
  /// ingested event (run_replay does); two integer compares when nothing
  /// is due, so checkpoint cuts stay an event-count-deterministic
  /// function of the stream.
  void pump_cadences();

  /// Final flush: quiesces and joins the shard workers, then runs the
  /// kernel's canonical final tier on every resident user (full search on
  /// the final window for every at-risk user not already searched there),
  /// fanned out per user on the shared ThreadPool — serially when called
  /// from a pool task. Strict policies rethrow the first decision fault;
  /// kQuarantine isolates the faulting user. Call once, after the last
  /// ingest; run_replay reports its time as finish_seconds.
  void finish();

  [[nodiscard]] std::vector<UserDecision> decisions() const;

  [[nodiscard]] StreamStats stats() const;
  [[nodiscard]] const StreamConfig& config() const { return config_; }
  [[nodiscard]] const decision::DecisionKernel& kernel() const {
    return kernel_;
  }
  [[nodiscard]] const decision::MoodEngine& engine() const {
    return kernel_.engine();
  }
  [[nodiscard]] std::size_t user_count() const { return store_.user_count(); }

  // ---- Checkpoint / restore ------------------------------------------
  /// Enables periodic crash-consistent snapshots (see snapshot.h for the
  /// mood-snapshot/5 format and the write protocol). `context` is the
  /// identity fingerprint embedded in every snapshot.
  void configure_checkpoints(CheckpointPolicy policy, SnapshotContext context);

  /// Serializes the complete gateway state — every resident user's
  /// window, stay origin, verdict and counters, plus shard/LRU
  /// metadata and the cumulative stats — as of now. Call after quiesce()
  /// (pump_cadences() does, on the checkpoint cadence).
  [[nodiscard]] SnapshotData capture_snapshot() const;

  /// Rehydrates a captured snapshot into this engine. Two-phase by
  /// construction: `data` was already fully decoded and CRC-validated, so
  /// no partial restore can occur here. Must run on a freshly constructed
  /// engine with the same StreamConfig (enforced); continuing the stream
  /// from data.stream_position then reproduces the uninterrupted run's
  /// decisions and counters bit-identically.
  void restore_snapshot(const SnapshotData& data);

  /// Writes one snapshot through the crash-consistent protocol to the
  /// configured directory, immediately. Returns bytes committed. Throws
  /// support::IoError on failure (the periodic path catches it and counts
  /// a checkpoint_failure instead — a gateway outlives a full disk).
  std::uint64_t checkpoint_now();

  /// Cumulative ingested-event position: events ingested this process
  /// plus the restored snapshot's position (the replay resume index).
  [[nodiscard]] std::uint64_t stream_position() const;

  /// Folds snapshot-restore forensics into stats(): `n` snapshot files
  /// were renamed aside (.quarantined) while locating the restore source.
  void note_quarantined_snapshots(std::uint64_t n);

  // ---- Telemetry (see src/telemetry and ARCHITECTURE.md) -------------
  /// The engine's metrics registry: every gateway counter site records
  /// here (one lane per shard), and external wiring may add instruments
  /// of its own. Per-process and timing-adjacent — registry contents are
  /// never serialized into snapshots and never feed back into decisions.
  [[nodiscard]] telemetry::MetricsRegistry& metrics() { return registry_; }

  /// Name-sorted snapshot of every instrument, with the gateway's
  /// instantaneous gauges (resident users, ring depths, continued stats
  /// mirror) refreshed first. The input to the exposition writer
  /// and the mood-stream/1 latency block.
  [[nodiscard]] telemetry::MetricsSnapshot metrics_snapshot() const;

  /// Enables periodic Prometheus-style exposition rewrites to `path`
  /// (atomic tmp->fsync->rename, see telemetry/exposition.h) at a
  /// quiesced cut once the stream position advanced `every_events` past
  /// the last export — the same event-count cadence contract as
  /// checkpoints. 0 disables the periodic path; export_metrics_now()
  /// still works.
  void configure_metrics_export(std::string path, std::uint64_t every_events);

  /// Writes one exposition now; returns bytes written. Throws IoError on
  /// failure (the periodic path catches, counts and retries instead).
  std::uint64_t export_metrics_now() const;

  /// Owning shard of a user id (stable within a run) — the histogram
  /// lane replay latency recording keys on.
  [[nodiscard]] std::size_t shard_of(const mobility::UserId& user) const {
    return store_.shard_of(user);
  }

  /// Merged / per-shard views of the replay-latency histogram. Session-
  /// scoped like wall-clock throughput: a restored gateway cannot
  /// retroactively measure the crashed process's timings.
  [[nodiscard]] telemetry::HistogramSnapshot replay_latency() const {
    return replay_latency_->snapshot();
  }
  [[nodiscard]] std::vector<telemetry::HistogramSnapshot>
  replay_latency_shards() const;

 private:
  /// Fault-isolation wrapper around one user's kernel work: runs `run`
  /// directly under strict policies, or quarantines the user (freeze +
  /// dead-letter `queued` events) when a fault escapes under kQuarantine.
  /// Defined in engine.cpp (instantiated there only).
  template <typename Run>
  void run_isolated(UserState& state, std::size_t queued, Run&& run);

  struct LoopItem;   // one queued ingest (engine.cpp)
  struct LoopState;  // per-shard rings, workers, counters (engine.cpp)

  /// Allocates the per-shard rings without spawning workers (the
  /// autostart-off pre-fill path); start_loop() spawns on top.
  void ensure_loop_lanes();

  /// One worker's run loop: pop → loop_process → progress counter.
  /// Faults are captured into LoopState and rethrown on the producer.
  void loop_worker(std::size_t shard);

  /// Processes one dequeued item: shed-latch check on the ring depth,
  /// stateful admission + fold + tier decide under the shard lock,
  /// latency accounting. Throws on strict-policy faults.
  void loop_process(std::size_t shard, LoopItem& item);

  /// The admitted-event decision: a one-record fold of `record`, then one
  /// kernel.step at decision::tier_for(state, loop_slack, shed) — full on
  /// the slack cadence (or first verdict), held otherwise, shed while the
  /// shard's shed latch is engaged.
  /// Under the quarantine policy a non-finite `record` (in-memory poison that
  /// slipped past admission — in practice the `stream.drain.corrupt` fail
  /// point) throws BadRecordError before it can reach the window, so the
  /// user is quarantined instead. Runs under the shard lock on the worker.
  void loop_decide_user(UserState& state, mobility::Record record,
                        std::size_t shard, bool shed);

  /// Joins the workers; rethrows the first captured fault unless
  /// `swallow` (destructor path).
  void stop_loop(bool swallow);

  /// Rethrows the first captured worker fault, if any (producer side).
  void check_loop_failure();

  /// Cadence hook: checkpoint when the cadence has elapsed.
  void maybe_checkpoint();

  /// Cadence hook: rewrite the metrics exposition when the export cadence
  /// has elapsed. Failures are counted, never fatal.
  void maybe_export_metrics();

  /// Refreshes the mirror gauges (resident users, ring depths, continued
  /// stats) ahead of a snapshot/exposition.
  void refresh_gauges() const;

  /// This process's own counters, before restore continuation is applied.
  [[nodiscard]] StreamStats raw_stats() const;

  decision::DecisionKernel kernel_;
  StreamConfig config_;
  /// Declared before store_ (the store registers its eviction counter
  /// here) and mutable so const observers (stats(), metrics_snapshot())
  /// can refresh gauges and take instrument references.
  mutable telemetry::MetricsRegistry registry_;
  UserStateStore store_;

  // ---- Registry-backed counter sites (one instrument per former
  // atomic member; cached references so the hot path never touches the
  // registry map). All raw per-process values; stats() applies the
  // restore continuation on top.
  telemetry::Counter* events_ = nullptr;
  telemetry::Counter* checkpoints_ = nullptr;
  telemetry::Counter* checkpoint_bytes_ = nullptr;
  telemetry::Counter* checkpoint_failures_ = nullptr;
  telemetry::Counter* bad_records_ = nullptr;
  telemetry::Counter* dead_letters_ = nullptr;
  telemetry::Counter* quarantined_users_ = nullptr;
  telemetry::Counter* degraded_batches_ = nullptr;
  telemetry::Counter* backpressure_events_ = nullptr;
  telemetry::Counter* quarantined_snapshots_ = nullptr;
  telemetry::Counter* metrics_export_failures_ = nullptr;
  // Stage histograms (lane = shard; two steady_clock reads per timed
  // section) and the replay-latency histogram, all always on.
  telemetry::Histogram* stage_ingest_ = nullptr;
  telemetry::Histogram* stage_decide_ = nullptr;
  telemetry::Histogram* stage_checkpoint_ = nullptr;
  /// Ring residence time (arrival → worker dequeue), lane = shard.
  telemetry::Histogram* stage_dequeue_ = nullptr;
  telemetry::Histogram* replay_latency_ = nullptr;

  /// Rings, worker threads, fault slot; null before the first ingest and
  /// after finish(). The pointee is owned here and joined in stop_loop().
  std::unique_ptr<LoopState> loop_;

  CheckpointPolicy checkpoint_policy_;
  SnapshotContext snapshot_context_;
  /// Restored stream position; stats()/stream_position() add it on top of
  /// this process's own counters so a restored gateway reports cumulative
  /// numbers, bit-identical to an uninterrupted run.
  std::uint64_t position_offset_ = 0;
  std::uint64_t last_checkpoint_position_ = 0;
  /// Counter continuation across restore: stats() = baseline + (raw -
  /// floor). `baseline` is the restored snapshot's cumulative stats;
  /// `floor` is this process's raw stats captured right after restore —
  /// it subtracts out counters the fresh process accrued before resuming
  /// (e.g. the attack-training index rebuilds, which the baseline already
  /// includes once).
  StreamStats stats_baseline_;
  StreamStats stats_floor_;

  // ---- Metrics export (see telemetry/exposition.h) --------------------
  std::string metrics_path_;
  std::uint64_t metrics_every_events_ = 0;
  std::uint64_t last_metrics_position_ = 0;

  /// Per-shard shed latch (the hysteresis state). Only the shard's own
  /// worker reads/writes its slot while it runs (the producer reads them
  /// at quiesced cuts), so no atomics are needed; the latches round-trip
  /// through snapshots.
  std::vector<std::uint8_t> shedding_;
};

}  // namespace mood::stream
