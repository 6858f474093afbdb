#pragma once

/// \file engine.h
/// StreamEngine — the online MooD gateway's ingest and scheduling layer.
///
/// The batch harness answers "is this user protected?" once per dataset;
/// the gateway answers it continuously. Since PR 5 the per-user decision
/// procedure itself — window folding, incremental compiled profiles for
/// all three attacks, targeted branch-and-bound risk queries, the
/// keep/recheck/search mechanism-selection policy — lives in
/// decision::DecisionKernel, shared verbatim with the batch evaluators
/// (ExperimentHarness::evaluate_gateway). What remains here is the online
/// plumbing around it:
///
///   * ingest(): events enqueue O(1) into the sharded UserStateStore
///     (any thread);
///   * drain(): one task per shard on the shared ThreadPool; every user
///     that received points since the last drain is folded
///     (kernel.fold — window deltas + incremental profile maintenance)
///     and decided (kernel.decide — risk + mechanism selection);
///   * finish(): folds leftovers and kernel.finalize()s every resident
///     user, per user in parallel on the shared ThreadPool (the pool
///     --jobs sizes), so the final per-user decisions and winners are
///     exactly what the kernel's batch pass computes on the final window
///     — a structural property now, since both modes execute the same
///     kernel code, and still CI-verified end to end by `mood replay`.
///
/// Determinism invariants (CI-enforced):
///   * A user's decision sequence is a pure function of that user's event
///     sequence and the micro-batch boundaries — never of the shard
///     count, --jobs, or wall-clock timing. The kernel's incremental
///     profile state is likewise a pure function of the window content
///     (chunk-independent), so batch size cannot leak into decisions.
///   * finish() canonicalises winners whatever staleness or recheck
///     short-cuts were taken mid-stream.
///
/// PR 8 adds the resilience layer (see resilience.h): a validating
/// admission path in ingest() with per-user quarantine, fault isolation
/// around each user's fold/decide, and count-triggered overload control
/// (backpressure signal, shed hysteresis, drain budget). All off by
/// default; every trigger is event-count based, so the invariants above
/// extend to chaos runs — a poisoned user never perturbs a healthy one.
///
/// PR 10 adds the continuous execution mode (EngineMode::kLoop): one
/// long-lived worker thread per shard, fed by a lock-free SPSC ring
/// (spsc_queue.h) the producer pushes into from ingest(). Each worker
/// runs dequeue → fold → admission-time cheap path: a full risk+search
/// decision only on the per-user slack cadence (loop_slack), an inline
/// held-mechanism recheck on the recheck cadence (loop_recheck), and a
/// pure held verdict otherwise — the shed/degrade idiom, but as the
/// steady state, with the canonical finish() unchanged. The decision
/// tier is a pure function of the user's own folded-event ordinal, so
/// counters and decisions stay deterministic (independent of timing,
/// shard count, and checkpoint cut position), and finish() makes the
/// final decisions bit-identical to batch mode — batch is retained as
/// the determinism oracle (`--engine=loop|batch`).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "decision/kernel.h"
#include "stream/event.h"
#include "stream/resilience.h"
#include "stream/user_state.h"
#include "telemetry/metrics.h"

namespace mood::stream {

/// Observability knobs (see src/telemetry). Telemetry is timing-only: no
/// knob here may influence a decision, so none of them participate in the
/// snapshot config fingerprint.
struct TelemetryConfig {
  /// Per-stage latency histograms (ingest admission, per-user decide,
  /// shard drain, checkpoint write). Costs two steady_clock reads per
  /// instrumented section; off leaves the stage histograms empty. The
  /// replay-latency histogram is independent of this knob — it replaces
  /// the old sort-all-samples percentile pass outright.
  bool stage_timers = true;
};

/// Execution mode of the decision pipeline.
enum class EngineMode : std::uint8_t {
  /// ingest()/drain() micro-batches — the determinism oracle, and the
  /// code-level default so direct engine users keep the PR ≤ 9 contract.
  kBatch = 0,
  /// Long-lived per-shard workers fed by SPSC ingest rings; decisions
  /// happen at admission time, drain() is unused. The CLI default.
  kLoop = 1,
};

[[nodiscard]] const char* to_string(EngineMode mode);
/// Parses "batch"/"loop"; throws support::Error on anything else.
[[nodiscard]] EngineMode parse_engine_mode(const std::string& name);

/// Gateway tuning knobs. The window/staleness subset configures the
/// embedded DecisionKernel; the rest is scheduling.
struct StreamConfig {
  std::size_t shards = 8;               ///< user-state shards (> 0)
  mobility::Timestamp window_seconds = 0;  ///< sliding window span; 0 = keep all
  std::size_t max_points = 0;           ///< per-user point cap; 0 = unbounded
  std::size_t max_users_per_shard = 0;  ///< LRU capacity; 0 = unbounded
  std::size_t staleness_points = 0;     ///< PIT/POI refresh bound; 0 = every fold
  bool parallel_drain = true;           ///< shard tasks on the shared pool
  /// Execution mode (see EngineMode). Decision-relevant mid-stream (the
  /// loop cadences below shape the decision sequence), so it participates
  /// in the snapshot config fingerprint.
  EngineMode engine = EngineMode::kBatch;
  /// Loop mode: full risk+search decision every `loop_slack`-th folded
  /// event of a user (plus always on their first). 0 = full decision
  /// every event (the batch-per-event oracle, slow).
  std::size_t loop_slack = 64;
  /// Loop mode: inline held-mechanism recheck every `loop_recheck`-th
  /// folded event of a user (between slack cadences). 0 = never.
  std::size_t loop_recheck = 16;
  /// Loop mode: start the shard workers lazily on the first ingest
  /// (default). Tests set false and call start_loop() explicitly to
  /// pre-fill the rings — e.g. to drive the shed latch deterministically.
  /// Timing-only, never serialized.
  bool loop_autostart = true;
  /// Fault-tolerance knobs (see resilience.h); the defaults are strict —
  /// everything off — so the batch-equivalence gates are untouched.
  ResilienceConfig resilience;
  /// Observability knobs; never serialized, never decision-relevant.
  TelemetryConfig telemetry;
};

/// Aggregate gateway counters (monotonic; snapshot via stats()). Mostly a
/// re-export of the kernel's counters plus the store/scheduler ones.
struct StreamStats {
  std::uint64_t events = 0;            ///< ingested
  std::uint64_t batches = 0;           ///< drain() calls
  std::uint64_t decisions = 0;         ///< per-user-per-batch verdicts
  std::uint64_t exposed_events = 0;    ///< events carried by expose verdicts
  std::uint64_t protected_events = 0;  ///< events carried by protect verdicts
  std::uint64_t searches = 0;          ///< full mechanism selections
  std::uint64_t rechecks = 0;          ///< cheap current-winner re-checks
  std::uint64_t profile_refreshes = 0; ///< PIT/POI compiled-form refreshes
  std::uint64_t stay_updates = 0;      ///< incremental stay-tracker syncs
  std::uint64_t stay_rebuilds = 0;     ///< full re-extractions among them
  std::uint64_t heatmap_updates = 0;   ///< incremental AP folds
  std::uint64_t evicted_points = 0;    ///< records expired out of windows
  std::uint64_t evicted_users = 0;     ///< LRU evictions (store)
  std::uint64_t lppm_applications = 0; ///< search/recheck cost counters
  std::uint64_t attack_invocations = 0;
  /// Population-index counters (via the kernel, from the trained
  /// attacks). Zero when queries run in scan/reference mode.
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
  std::uint64_t degraded_batches = 0;    ///< shard drains that shed work
  std::uint64_t backpressure_events = 0; ///< ingests over the shard bound
  /// Snapshot files renamed aside (.quarantined) during restore — this
  /// process's forensics, raw like the checkpoint counters.
  std::uint64_t quarantined_snapshots = 0;
};

/// Periodic checkpointing knobs. Disabled unless both are set. A
/// checkpoint is written at the end of any drain() whose cumulative
/// ingested-event position advanced `every_events` or more past the last
/// checkpoint — an event-count cadence, so checkpoint boundaries are a
/// deterministic function of the event stream and batch size, never of
/// wall-clock timing.
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
  std::uint64_t batch_events = 0;  ///< micro-batch size (drain cadence)
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
  std::size_t window_slices = 0;      ///< preslice partitions (tracked, O(1))
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
  kAdmitted,     ///< enqueued on the fast path
  kAdmittedSlow, ///< enqueued, but the shard backlog crossed the
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

  /// Joins the loop workers (loop mode); worker faults pending at
  /// destruction are swallowed — call finish()/quiesce() to observe them.
  ~StreamEngine();
  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Admits one event (thread-safe, O(1)). The admission path classifies
  /// malformed events — non-finite or out-of-range coordinates, per-user
  /// timestamp regressions, oversized/empty ids — and handles them per
  /// config().resilience.on_bad_record: kFail throws BadRecordError (the
  /// strict default), kSkip drops the record, kQuarantine freezes the
  /// carrying user. Every presented event advances stream_position(),
  /// admitted or not, so checkpoint/resume indices stay aligned with the
  /// replay stream.
  ///
  /// Loop mode: the stateless checks (id shape, coordinate range) still
  /// classify here on the producer, but the stateful half of admission —
  /// monotonicity, quarantine — happens asynchronously on the shard
  /// worker, so ingest() returns kAdmitted (or kAdmittedSlow once the
  /// ring depth crosses max_pending_per_shard) for events a worker later
  /// rejects; their outcomes surface in stats() and decisions(). A worker
  /// fault (e.g. BadRecordError under the strict policy) is rethrown here
  /// on a subsequent ingest, or at quiesce()/finish().
  IngestStatus ingest(const StreamEvent& event);

  /// Decides every user with pending points; returns users decided.
  /// Batch mode only (loop workers decide at admission time).
  std::size_t drain();

  // ---- Loop mode (EngineMode::kLoop) ---------------------------------
  /// Starts the per-shard workers. Implicit on the first ingest when
  /// config().loop_autostart; explicit start lets tests pre-fill rings.
  /// No-op when already started or in batch mode.
  void start_loop();

  /// Blocks until every event pushed so far has been fully processed by
  /// its shard worker (the rings are empty and the last decision done),
  /// then returns with all worker-side state visible to the caller.
  /// Rethrows a captured worker fault. This is the checkpoint-cut
  /// protocol: capture_snapshot() in loop mode is only meaningful after a
  /// quiesce. No-op in batch mode or before the workers started.
  void quiesce();

  /// Producer-side cadence pump: when the checkpoint or metrics-export
  /// cadence has elapsed, quiesces the workers and runs it. Call once per
  /// ingested event (run_replay does); two integer compares when nothing
  /// is due, so checkpoint cuts stay an event-count-deterministic
  /// function of the stream. No-op in batch mode (drain() pumps there).
  void pump_cadences();

  /// Final flush: folds leftovers and runs the kernel's canonical
  /// finalize on every resident user (full search on the final window for
  /// every at-risk user not already searched there), fanned out per user
  /// on the shared ThreadPool — serially when called from a pool task.
  /// Loop mode quiesces and joins the shard workers first. Strict
  /// policies rethrow the first decision fault; kQuarantine isolates the
  /// faulting user. Call once, after the last drain(); run_replay reports
  /// its time as finish_seconds.
  void finish();

  /// Snapshot of every resident user's final state, sorted by user id.
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
  /// Ingested-but-unfolded events resident in `shard` (0 after finish()).
  [[nodiscard]] std::size_t pending_events(std::size_t shard) const {
    return store_.pending_events(shard);
  }

  // ---- Checkpoint / restore ------------------------------------------
  /// Enables periodic crash-consistent snapshots (see snapshot.h for the
  /// mood-snapshot/1 format and the write protocol). `context` is the
  /// identity fingerprint embedded in every snapshot.
  void configure_checkpoints(CheckpointPolicy policy, SnapshotContext context);

  /// Serializes the complete gateway state — every resident user's
  /// window, incremental profiles, verdict and counters, plus shard/LRU
  /// metadata and the cumulative stats — as of now. Call between drains
  /// (drain() itself calls it on the checkpoint cadence).
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
  /// support::IoError on failure (drain()'s periodic path catches it and
  /// counts a checkpoint_failure instead — a gateway outlives a full
  /// disk).
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
  /// instantaneous gauges (resident users, pending backlog, continued
  /// stats mirror) refreshed first. The input to the exposition writer
  /// and the mood-stream/1 latency block.
  [[nodiscard]] telemetry::MetricsSnapshot metrics_snapshot() const;

  /// Enables periodic Prometheus-style exposition rewrites to `path`
  /// (atomic tmp->fsync->rename, see telemetry/exposition.h) at the end
  /// of any drain() whose stream position advanced `every_events` or
  /// more past the last export — the same event-count cadence contract
  /// as checkpoints. 0 disables the periodic path; export_metrics_now()
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

  /// Records one end-to-end decision latency (seconds) into the
  /// mood_replay_latency_seconds histogram on the user's shard lane.
  /// Called by run_replay once per event, after the deciding drain.
  void record_decision_latency(const mobility::UserId& user, double seconds) {
    replay_latency_->record(seconds, store_.shard_of(user));
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
  /// Folds state.pending through the kernel; returns points folded.
  /// Under the quarantine policy it first scans the batch for non-finite
  /// coordinates (in-memory poison that slipped past admission — in
  /// practice the `stream.drain.corrupt` fail point) and throws
  /// BadRecordError so the caller quarantines instead of corrupting the
  /// compiled profiles.
  std::size_t fold_pending(UserState& state);

  enum class DecideOutcome : std::uint8_t {
    kSkipped,      ///< user already quarantined — untouched
    kFull,         ///< full fold+decide (counts against a drain budget)
    kDegraded,     ///< held-verdict shed path
    kQuarantined,  ///< a fault escaped; the user was quarantined here
  };

  /// Fault-isolation wrapper shared by the batch and loop decide paths:
  /// runs `run` directly under strict policies, or quarantines the user
  /// (freeze + dead-letter `queued` points) when a fault escapes under
  /// kQuarantine. Defined in engine.cpp (instantiated there only).
  template <typename Run>
  DecideOutcome run_isolated(UserState& state, std::size_t queued, Run&& run);

  /// One user's fold+decide under the fault-isolation policy; shared by
  /// drain() and finish() (`canonical` selects finalize over decide).
  DecideOutcome decide_user(UserState& state, bool canonical, bool degrade);

  // ---- Loop-mode internals (engine == kLoop; see LoopState) ----------
  struct LoopItem;   // one queued ingest (engine.cpp)
  struct LoopState;  // per-shard rings, workers, counters (engine.cpp)

  /// ingest()'s loop branch: stateless classification on the producer,
  /// then push into the owning shard's ring (blocking, never dropping,
  /// when full). Returns kAdmittedSlow past the max_pending bound.
  IngestStatus loop_ingest(const StreamEvent& event);

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

  /// The admitted-event decision: fold, then pick the tier — full decide
  /// on the slack cadence (or first verdict), inline recheck on the
  /// recheck cadence, held verdict otherwise; decide_degraded while the
  /// shed latch is engaged. Runs under the shard lock on the worker.
  void loop_decide_user(UserState& state, std::size_t shard, bool shed);

  /// Joins the workers; rethrows the first captured fault unless
  /// `swallow` (destructor path).
  void stop_loop(bool swallow);

  /// Rethrows the first captured worker fault, if any (producer side).
  void check_loop_failure();

  /// drain()-tail hook: checkpoint when the cadence has elapsed.
  void maybe_checkpoint();

  /// drain()-tail hook: rewrite the metrics exposition when the export
  /// cadence has elapsed. Failures are counted, never fatal.
  void maybe_export_metrics();

  /// Refreshes the mirror gauges (resident users, backlog, continued
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
  telemetry::Counter* batches_ = nullptr;
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
  // Stage histograms (lane = shard; empty when telemetry.stage_timers is
  // off) and the always-on replay-latency histogram.
  telemetry::Histogram* stage_ingest_ = nullptr;
  telemetry::Histogram* stage_decide_ = nullptr;
  telemetry::Histogram* stage_drain_ = nullptr;
  telemetry::Histogram* stage_checkpoint_ = nullptr;
  /// Loop mode: ring residence time (arrival → worker dequeue), lane =
  /// shard. Empty in batch mode or with the stage timers off.
  telemetry::Histogram* stage_dequeue_ = nullptr;
  telemetry::Histogram* replay_latency_ = nullptr;

  /// Loop-mode machinery (rings, worker threads, fault slot); null in
  /// batch mode. The pointee is owned here and joined in stop_loop().
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
  /// drain task reads/writes its slot, so no atomics are needed; the
  /// latches round-trip through snapshots so a restored gateway sheds
  /// exactly like the uninterrupted run.
  std::vector<std::uint8_t> shedding_;
};

}  // namespace mood::stream
