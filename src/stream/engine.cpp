#include "stream/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>

#include "stream/snapshot.h"
#include "stream/spsc_queue.h"
#include "support/error.h"
#include "support/failpoint.h"
#include "support/logging.h"
#include "support/thread_pool.h"
#include "telemetry/exposition.h"
#include "telemetry/trace.h"

namespace mood::stream {

namespace {

using Clock = std::chrono::steady_clock;

/// Elapsed seconds for the stage and replay-latency histograms.
double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Same bounds the dataset loader enforces (mobility/io.cpp); a finite
/// fix outside them is corrupt, not exotic.
bool valid_coordinate(const geo::GeoPoint& p) {
  return std::isfinite(p.lat) && std::isfinite(p.lon) && p.lat > -89.0 &&
         p.lat < 89.0 && p.lon >= -180.0 && p.lon <= 180.0;
}

/// Ring capacity. With a backpressure bound, the ring is the
/// bounded buffer --max-pending promises: the kAdmittedSlow signal fires
/// at the bound, and the producer only blocks (never drops) at 2x it.
/// Unbounded configs get a deep default so the producer rarely stalls.
std::size_t ring_capacity(const ResilienceConfig& res) {
  if (res.max_pending_per_shard > 0) {
    return std::max<std::size_t>(2 * res.max_pending_per_shard, 2);
  }
  return 8192;
}

/// The constructor's preconditions, checked before a member is sized.
const StreamConfig& checked(const StreamConfig& config) {
  support::expects(config.shards > 0 && config.shards <= kMaxShards,
                   "StreamEngine: shards must be in [1, kMaxShards]");
  const ResilienceConfig& res = config.resilience;
  support::expects(res.max_pending_per_shard <= kMaxPendingPerShard,
                   "StreamEngine: max_pending_per_shard exceeds "
                   "kMaxPendingPerShard");
  support::expects(
      res.shed_low_watermark <= res.shed_high_watermark ||
          res.shed_high_watermark == 0,
      "StreamEngine: shed_low_watermark must not exceed shed_high_watermark");
  return config;
}

/// Worker/producer wait loop backoff: spin briefly (the common
/// sub-microsecond case), then sleep — bounded idle CPU at a latency cost
/// far below the p99 target.
void backoff(std::size_t& spins) {
  if (++spins < 64) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}
}  // namespace

/// One queued ingest: the event, its arrival stamp (latency accounting
/// starts at admission), and the producer's stateless poison
/// classification.
struct StreamEngine::LoopItem {
  StreamEvent event;
  Clock::time_point arrival;
  const char* fault = nullptr;
};

/// The execution machinery: one SPSC ring + worker thread per shard, plus
/// the producer-visible fault slot. Owned by the engine, torn down (joined)
/// in stop_loop().
struct StreamEngine::LoopState {
  struct Lane {
    explicit Lane(std::size_t capacity) : ring(capacity) {}
    SpscQueue<LoopItem> ring;
    /// Producer / worker progress counters; quiesce() waits for
    /// processed == pushed (acquire on processed pairs with the worker's
    /// release, making all worker-side state visible at the cut).
    alignas(64) std::atomic<std::uint64_t> pushed{0};
    alignas(64) std::atomic<std::uint64_t> processed{0};
    std::thread worker;
  };

  /// deque: Lane is neither movable nor copyable (atomics, thread).
  std::deque<Lane> lanes;
  bool started = false;
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::mutex failure_mutex;
  std::exception_ptr failure;  ///< first captured worker fault
};

StreamEngine::StreamEngine(decision::MoodEngine engine, StreamConfig config)
    : kernel_(std::move(engine),
              decision::KernelConfig{config.window_seconds, config.max_points,
                                     config.staleness_points}),
      config_(checked(config)),
      registry_(config_.shards),
      store_(StoreConfig{config_.shards, config_.max_users_per_shard,
                         &registry_}),
      shedding_(config_.shards, 0) {
  // Wire every counter site once; the hot paths below only ever touch
  // these cached instruments (lock-free lanes), never the registry map.
  events_ = &registry_.counter("mood_stream_events_total");
  checkpoints_ = &registry_.counter("mood_stream_checkpoints_total");
  checkpoint_bytes_ = &registry_.counter("mood_stream_checkpoint_bytes_total");
  checkpoint_failures_ =
      &registry_.counter("mood_stream_checkpoint_failures_total");
  bad_records_ = &registry_.counter("mood_stream_bad_records_total");
  dead_letters_ = &registry_.counter("mood_stream_dead_letters_total");
  quarantined_users_ =
      &registry_.counter("mood_stream_quarantined_users_total");
  degraded_batches_ = &registry_.counter("mood_stream_degraded_batches_total");
  backpressure_events_ =
      &registry_.counter("mood_stream_backpressure_events_total");
  quarantined_snapshots_ =
      &registry_.counter("mood_stream_quarantined_snapshots_total");
  metrics_export_failures_ =
      &registry_.counter("mood_stream_metrics_export_failures_total");
  stage_ingest_ = &registry_.histogram("mood_stage_ingest_seconds");
  stage_decide_ = &registry_.histogram("mood_stage_decide_seconds");
  stage_checkpoint_ = &registry_.histogram("mood_stage_checkpoint_seconds");
  stage_dequeue_ = &registry_.histogram("mood_stage_dequeue_seconds");
  replay_latency_ = &registry_.histogram("mood_replay_latency_seconds");
}

StreamEngine::~StreamEngine() {
  try {
    stop_loop(/*swallow=*/true);
  } catch (...) {
    // Joining only; nothing here may throw past a destructor.
  }
}

void StreamEngine::ensure_loop_lanes() {
  if (loop_ != nullptr) return;
  loop_ = std::make_unique<LoopState>();
  const std::size_t capacity = ring_capacity(config_.resilience);
  for (std::size_t shard = 0; shard < config_.shards; ++shard) {
    loop_->lanes.emplace_back(capacity);
  }
}

void StreamEngine::start_loop() {
  ensure_loop_lanes();
  if (loop_->started) return;
  loop_->started = true;
  for (std::size_t shard = 0; shard < loop_->lanes.size(); ++shard) {
    loop_->lanes[shard].worker =
        std::thread([this, shard] { loop_worker(shard); });
  }
  support::log_info("loop engine started ", loop_->lanes.size(),
                    " shard workers (ring capacity ",
                    loop_->lanes.front().ring.capacity(), ")");
}

void StreamEngine::check_loop_failure() {
  if (loop_ == nullptr || !loop_->failed.load(std::memory_order_acquire)) {
    return;
  }
  stop_loop(/*swallow=*/false);
}

void StreamEngine::stop_loop(bool swallow) {
  if (loop_ == nullptr) return;
  loop_->stop.store(true, std::memory_order_release);
  for (auto& lane : loop_->lanes) {
    if (lane.worker.joinable()) lane.worker.join();
  }
  std::exception_ptr failure;
  {
    const std::lock_guard lock(loop_->failure_mutex);
    failure = loop_->failure;
  }
  loop_.reset();
  if (failure != nullptr && !swallow) std::rethrow_exception(failure);
}

void StreamEngine::quiesce() {
  if (loop_ == nullptr) return;
  // Rings pre-filled with loop_autostart off still owe their events a
  // worker: without one, the wait below would never end and finish()
  // would tear the rings down unprocessed.
  start_loop();
  for (auto& lane : loop_->lanes) {
    // The producer is the only pusher, so `pushed` is stable here; wait
    // for this lane's worker to catch up. A worker fault can stall
    // `processed` forever (the worker exits), so re-check it each spin.
    const std::uint64_t target = lane.pushed.load(std::memory_order_relaxed);
    std::size_t spins = 0;
    while (lane.processed.load(std::memory_order_acquire) < target) {
      if (loop_->failed.load(std::memory_order_acquire)) {
        stop_loop(/*swallow=*/false);
        return;
      }
      backoff(spins);
    }
  }
  // A fault on the very last item: its processed increment landed after
  // the failed flag (both released, acquired above), so check once more.
  check_loop_failure();
}

void StreamEngine::pump_cadences() {
  const std::uint64_t position = stream_position();
  const bool checkpoint_due =
      !checkpoint_policy_.dir.empty() && checkpoint_policy_.every_events > 0 &&
      position - last_checkpoint_position_ >= checkpoint_policy_.every_events;
  const bool export_due =
      !metrics_path_.empty() && metrics_every_events_ > 0 &&
      position - last_metrics_position_ >= metrics_every_events_;
  if (!checkpoint_due && !export_due) return;
  // Checkpoint cut: quiesce first, so the rings are empty (the snapshot's
  // position covers every pushed event) and worker-side state is visible.
  quiesce();
  maybe_checkpoint();
  maybe_export_metrics();
}

IngestStatus StreamEngine::ingest(const StreamEvent& event) {
  ensure_loop_lanes();
  if (config_.loop_autostart && !loop_->started) start_loop();
  check_loop_failure();

  // Every presented event advances the stream position, admitted or not:
  // checkpoint/resume indexes into the replay stream, and a resumed run
  // must skip exactly the events this run consumed — including the ones
  // it dropped.
  events_->add(1);
  const Clock::time_point arrival = Clock::now();
  const ResilienceConfig& res = config_.resilience;

  // Stateless classification stays on the producer: an unattributable
  // event (empty or oversized id) cannot be quarantined — there is no
  // user to trust the id of — so it never reaches a worker. Bad
  // coordinates are flagged here but dispositioned by the worker, which
  // owns the stateful half.
  if (event.user.empty() || event.user.size() > kMaxUserIdBytes) {
    bad_records_->add(1);
    if (res.on_bad_record == BadRecordPolicy::kFail) {
      throw BadRecordError(
          std::string("gateway admission: ") +
          to_string(AdmissionFault::kOversizedId) + " (" +
          std::to_string(event.user.size()) + " bytes) at position " +
          std::to_string(stream_position() - 1));
    }
    dead_letters_->add(1);
    // Latency parity: every presented event leaves one sample, whichever
    // side of the ring dispositions it.
    replay_latency_->record(seconds_since(arrival), store_.shard_of(event.user));
    return IngestStatus::kDeadLettered;
  }
  const char* fault = valid_coordinate(event.record.position)
                          ? nullptr
                          : to_string(AdmissionFault::kBadCoordinate);

  const std::size_t shard = store_.shard_of(event.user);
  LoopState::Lane& lane = loop_->lanes[shard];
  // Count before pushing so a worker-side depth read never underflows
  // (processed <= pushed always holds).
  const std::uint64_t pushed =
      lane.pushed.load(std::memory_order_relaxed) + 1;
  lane.pushed.store(pushed, std::memory_order_relaxed);

  LoopItem item{event, arrival, fault};
  std::size_t spins = 0;
  while (!lane.ring.try_push(std::move(item))) {
    // Ring full: block, never drop — backpressure is a signal, not a
    // loss. Pre-filled rings (loop_autostart off) get their workers now,
    // or this would spin forever; a worker fault would too, so re-check.
    start_loop();
    check_loop_failure();
    backoff(spins);
  }
  stage_ingest_->record(seconds_since(arrival), shard);

  if (res.max_pending_per_shard > 0) {
    const std::uint64_t depth =
        pushed - lane.processed.load(std::memory_order_relaxed);
    if (depth > res.max_pending_per_shard) {
      backpressure_events_->add(1, shard);
      return IngestStatus::kAdmittedSlow;
    }
  }
  return IngestStatus::kAdmitted;
}

void StreamEngine::loop_worker(std::size_t shard) {
  LoopState& loop = *loop_;
  LoopState::Lane& lane = loop.lanes[shard];
  LoopItem item;
  std::size_t spins = 0;
  while (true) {
    if (!lane.ring.try_pop(item)) {
      // Stop (or a sibling's fault) only takes effect once this ring is
      // empty, so stop_loop() after quiesce() never strands items.
      if (loop.stop.load(std::memory_order_acquire)) break;
      if (loop.failed.load(std::memory_order_acquire)) break;
      backoff(spins);
      continue;
    }
    spins = 0;
    try {
      loop_process(shard, item);
    } catch (...) {
      {
        const std::lock_guard lock(loop.failure_mutex);
        if (loop.failure == nullptr) loop.failure = std::current_exception();
      }
      loop.failed.store(true, std::memory_order_release);
      lane.processed.fetch_add(1, std::memory_order_release);
      break;  // the producer joins us and rethrows
    }
    lane.processed.fetch_add(1, std::memory_order_release);
  }
}

void StreamEngine::loop_process(std::size_t shard, LoopItem& item) {
  LoopState::Lane& lane = loop_->lanes[shard];
  const ResilienceConfig& res = config_.resilience;
  stage_dequeue_->record(seconds_since(item.arrival), shard);

  // Shed hysteresis on the instantaneous ring depth (the shard's
  // backlog), evaluated per dequeue by the only thread touching the
  // latch. Ring depth is timing-dependent, but degraded verdicts are
  // repaired by the canonical finish(), so decisions stay deterministic.
  bool shed = false;
  if (res.shed_high_watermark > 0) {
    const std::uint64_t depth =
        lane.pushed.load(std::memory_order_relaxed) -
        lane.processed.load(std::memory_order_relaxed);
    std::uint8_t& latch = shedding_[shard];
    if (latch != 0) {
      if (depth <= res.shed_low_watermark) {
        latch = 0;
        support::log_info("shed released on shard ", shard, " (ring depth ",
                          depth, " <= low ", res.shed_low_watermark, ")");
      }
    } else if (depth >= res.shed_high_watermark) {
      latch = 1;
      // One degraded episode per engagement.
      degraded_batches_->add(1, shard);
      support::log_info("shed engaged on shard ", shard, " (ring depth ",
                        depth, " >= high ", res.shed_high_watermark, ")");
    }
    shed = latch != 0;
  }

  const Clock::time_point d0 = Clock::now();
  const AdmitResult admitted = store_.admit_and_process(
      item.event, res.on_bad_record, item.fault != nullptr, item.fault,
      [&](UserState& state) {
        loop_decide_user(state, item.event.record, shard, shed);
      });
  switch (admitted.status) {
    case AdmitResult::Status::kRejected:
      bad_records_->add(1, shard);
      if (res.on_bad_record == BadRecordPolicy::kFail) {
        // event.seq is the stream position run_replay stamps; the
        // producer-side counter would race here.
        throw BadRecordError(std::string("gateway admission: ") +
                             admitted.reason + " from user '" +
                             item.event.user + "' at position " +
                             std::to_string(item.event.seq));
      }
      break;
    case AdmitResult::Status::kQuarantined:
      bad_records_->add(1, shard);
      dead_letters_->add(admitted.dead_letters, shard);
      quarantined_users_->add(1, shard);
      support::log_warn("quarantined user '", item.event.user,
                        "' at position ", item.event.seq, ": ",
                        admitted.reason);
      break;
    case AdmitResult::Status::kDeadLettered:
      dead_letters_->add(admitted.dead_letters, shard);
      break;
    case AdmitResult::Status::kAdmitted:
      stage_decide_->record(seconds_since(d0), shard);
      break;
  }
  // Every presented event leaves one end-to-end sample: arrival at
  // ingest() to decision (or disposition) complete.
  replay_latency_->record(seconds_since(item.arrival), shard);
}

void StreamEngine::loop_decide_user(UserState& state, mobility::Record record,
                                    std::size_t shard, bool shed) {
  MOOD_TRACE("stream.decide", {.shard = static_cast<std::uint32_t>(shard),
                               .user = state.user});
  if (MOOD_FAIL_POINT("stream.drain.corrupt") ==
      testing::FailAction::kCorrupt) {
    record.position.lat = std::numeric_limits<double>::quiet_NaN();
  }
  run_isolated(state, /*queued=*/1, [&] {
    // kThrow fires inside hit(); the returned action is not needed here.
    static_cast<void>(MOOD_FAIL_POINT("stream.decide.user"));
    if (config_.resilience.on_bad_record == BadRecordPolicy::kQuarantine &&
        (!std::isfinite(record.position.lat) ||
         !std::isfinite(record.position.lon))) {
      // NaNs poison every distance they touch: keep them out of the
      // compiled profiles.
      throw BadRecordError("poisoned pending record (non-finite "
                           "coordinate) for user '" +
                           state.user + "'");
    }
    decision::UserKernelState& k = state.kernel;
    kernel_.fold(k, {&record, 1});
    kernel_.step(k, 1, decision::tier_for(k, config_.loop_slack, shed));
  });
}

template <typename Run>
void StreamEngine::run_isolated(UserState& state, std::size_t queued,
                                Run&& run) {
  if (config_.resilience.on_bad_record != BadRecordPolicy::kQuarantine) {
    run();  // strict: a decision-path fault aborts the run
    return;
  }
  try {
    run();
  } catch (const std::exception& e) {
    // Per-user fault isolation: freeze this user, hold their last
    // verdict, keep the shard worker alive. The queued event died with
    // the fault (folded or not, it produced no decision).
    state.quarantined = true;
    state.quarantine_reason = e.what();
    state.dead_letters += queued;
    dead_letters_->add(queued);
    quarantined_users_->add(1);
    support::log_warn("quarantined user '", state.user,
                      "' on decision fault: ", e.what());
  }
}

void StreamEngine::finish() {
  if (loop_ != nullptr) {
    // Drain the rings and retire the workers; a captured worker fault
    // surfaces here (both calls rethrow). After this the engine is
    // single-threaded again and the canonical pass below owns all state.
    quiesce();
    stop_loop(/*swallow=*/false);
  }
  MOOD_TRACE("stream.finish");
  // Fans out per user on the shared pool. Order cannot change a verdict:
  // every noise stream is forked from (seed, user, mechanism, window
  // start), and the kernel and registry counters are order-free atomic
  // sums — the same properties the concurrent shard workers rely on.
  store_.for_each([&](UserState& state) {
    // The kernel's canonical final decision. Quarantined users stay
    // frozen; a fault here quarantines the user (strict policies: the
    // first fault aborts finish()).
    if (state.quarantined) return;
    run_isolated(state, /*queued=*/0, [&] {
      // kThrow fires inside hit(); the returned action is not needed here.
      static_cast<void>(MOOD_FAIL_POINT("stream.decide.user"));
      kernel_.step(state.kernel, 0, decision::Tier::kFinal);
    });
  });
}

std::vector<UserDecision> StreamEngine::decisions() const {
  std::vector<UserDecision> out;
  const mobility::Timestamp preslice = kernel_.engine().config().preslice;
  store_.for_each([&](const UserState& state) {
    const decision::UserKernelState& k = state.kernel;
    UserDecision d;
    d.user = state.user;
    d.decision = k.decision;
    d.winner = k.winner;
    d.events = k.events;
    d.risk_transitions = k.risk_transitions;
    d.searches = k.searches;
    d.window_points = k.window.size();
    d.window_slices = k.window.slice_count(preslice);
    d.quarantined = state.quarantined;
    d.quarantine_reason = state.quarantine_reason;
    d.dead_letters = state.dead_letters;
    d.degraded = k.degraded;
    out.push_back(std::move(d));
  });
  std::sort(out.begin(), out.end(),
            [](const UserDecision& a, const UserDecision& b) {
              return a.user < b.user;
            });
  return out;
}

StreamStats StreamEngine::raw_stats() const {
  const decision::KernelStats kernel = kernel_.stats();
  StreamStats s;
  s.events = events_->value();
  s.decisions = kernel.decisions;
  s.exposed_events = kernel.exposed_events;
  s.protected_events = kernel.protected_events;
  s.searches = kernel.searches;
  s.rechecks = kernel.rechecks;
  s.profile_refreshes = kernel.profile_refreshes;
  s.stay_updates = kernel.stay_updates;
  s.stay_rebuilds = kernel.stay_rebuilds;
  s.heatmap_updates = kernel.heatmap_updates;
  s.evicted_points = kernel.evicted_points;
  s.evicted_users = store_.eviction_count();
  s.lppm_applications = kernel.lppm_applications;
  s.attack_invocations = kernel.attack_invocations;
  s.index_prunes = kernel.index_prunes;
  s.exact_evals = kernel.exact_evals;
  s.index_rebuilds = kernel.index_rebuilds;
  s.checkpoints = checkpoints_->value();
  s.checkpoint_bytes = checkpoint_bytes_->value();
  s.checkpoint_failures = checkpoint_failures_->value();
  s.bad_records = bad_records_->value();
  s.dead_letters = dead_letters_->value();
  s.quarantined_users = quarantined_users_->value();
  s.shed_decisions = kernel.shed_decisions;
  s.degraded_batches = degraded_batches_->value();
  s.backpressure_events = backpressure_events_->value();
  s.quarantined_snapshots = quarantined_snapshots_->value();
  return s;
}

void StreamEngine::note_quarantined_snapshots(std::uint64_t n) {
  quarantined_snapshots_->add(n);
}

StreamStats StreamEngine::stats() const {
  StreamStats s = raw_stats();
  // Continuation across restore: the baseline is the restored snapshot's
  // cumulative counters; the floor is what this process had accrued when
  // the restore completed (e.g. the attack-training index rebuild, which
  // the baseline already counts once). Both are all-zero when no restore
  // happened, leaving s untouched.
  for (const StreamStatField& f : kStreamStatFields) {
    if (f.continued) {
      s.*f.member =
          stats_baseline_.*f.member + (s.*f.member - stats_floor_.*f.member);
    }
  }
  return s;
}

std::uint64_t StreamEngine::stream_position() const {
  return position_offset_ + events_->value();
}

void StreamEngine::configure_checkpoints(CheckpointPolicy policy,
                                         SnapshotContext context) {
  checkpoint_policy_ = std::move(policy);
  snapshot_context_ = std::move(context);
}

SnapshotData StreamEngine::capture_snapshot() const {
  SnapshotData data;
  data.context = snapshot_context_;
  data.config = config_;
  data.stream_position = stream_position();
  data.stats = stats();
  data.shard_clocks = store_.shard_clocks();
  store_.for_each([&](const UserState& state) {
    const decision::UserKernelState& k = state.kernel;
    UserSnapshot u;
    u.user = state.user;
    u.window = k.window.records();
    u.heatmap_built = k.heatmap_built;
    u.stay_origin_set = k.stay_origin_set;
    u.stay_origin = k.stay_origin;
    u.profiles_built = k.profiles_built;
    if (k.profiles_built) u.stays = k.stays.snapshot();
    u.stale_appended = k.stale_appended;
    u.stale_evicted = k.stale_evicted;
    u.stale_points = k.stale_points;
    u.has_decision = k.has_decision;
    u.decision = static_cast<std::uint8_t>(k.decision);
    u.winner = k.winner;
    u.searched_events = k.searched_events;
    u.events = k.events;
    u.risk_transitions = k.risk_transitions;
    u.searches = k.searches;
    u.rechecks = k.rechecks;
    u.degraded = k.degraded;
    u.last_touch = state.last_touch;
    u.quarantined = state.quarantined;
    u.quarantine_reason = state.quarantine_reason;
    u.dead_letters = state.dead_letters;
    u.has_last_time = state.has_last_time;
    u.last_time = state.last_time;
    data.users.push_back(std::move(u));
  });
  std::sort(data.users.begin(), data.users.end(),
            [](const UserSnapshot& a, const UserSnapshot& b) {
              return a.user < b.user;
            });
  data.shard_shedding.assign(shedding_.begin(), shedding_.end());
  return data;
}

void StreamEngine::restore_snapshot(const SnapshotData& data) {
  support::expects(events_->value() == 0 && position_offset_ == 0 &&
                       store_.user_count() == 0,
                   "StreamEngine::restore_snapshot: must run on a freshly "
                   "constructed engine");
  // Resuming under different knobs would silently change published
  // decisions; the CLI additionally fingerprints seed/dataset/stream shape
  // before calling here.
  if (data.config.shards != config_.shards ||
      data.config.window_seconds != config_.window_seconds ||
      data.config.max_points != config_.max_points ||
      data.config.max_users_per_shard != config_.max_users_per_shard ||
      data.config.staleness_points != config_.staleness_points) {
    throw SnapshotError(
        "snapshot gateway config does not match this gateway (shards/"
        "window/max-points/max-users/staleness must all agree)");
  }
  const ResilienceConfig& snap = data.config.resilience;
  const ResilienceConfig& mine = config_.resilience;
  if (snap.on_bad_record != mine.on_bad_record ||
      snap.max_pending_per_shard != mine.max_pending_per_shard ||
      snap.shed_high_watermark != mine.shed_high_watermark ||
      snap.shed_low_watermark != mine.shed_low_watermark) {
    throw SnapshotError(
        "snapshot resilience config does not match this gateway "
        "(on-bad-record/max-pending/shed watermarks must all agree)");
  }
  // The slack cadence shapes the mid-stream decision sequence (and
  // therefore the continued counters), so a resumed run must keep it.
  // loop_autostart is timing-only and excluded.
  if (data.config.loop_slack != config_.loop_slack) {
    throw SnapshotError(
        "snapshot decision cadence does not match this gateway "
        "(loop-slack must agree)");
  }

  for (const UserSnapshot& u : data.users) {
    UserState state;
    state.user = u.user;
    state.last_touch = u.last_touch;
    decision::UserKernelState& k = state.kernel;
    // The restored window arrives sorted (it was captured from a Trace),
    // so this constructor preserves it verbatim — including duplicate
    // timestamps, whose relative order a re-sort could not disturb anyway
    // (stable, and only invoked when actually unsorted).
    k.window = mobility::Trace(u.user, u.window);
    k.heatmap_built = u.heatmap_built;
    k.stay_origin = u.stay_origin;
    k.stay_origin_set = u.stay_origin_set;
    k.profiles_built = u.profiles_built;
    if (u.profiles_built) {
      k.stays = clustering::TrackedVisitStates::from_snapshot(u.stays);
    }
    k.stale_appended = static_cast<std::size_t>(u.stale_appended);
    k.stale_evicted = static_cast<std::size_t>(u.stale_evicted);
    k.stale_points = static_cast<std::size_t>(u.stale_points);
    k.has_decision = u.has_decision;
    k.decision = static_cast<decision::Decision>(u.decision);
    k.winner = u.winner;
    k.searched_events = u.searched_events;
    k.events = u.events;
    k.risk_transitions = u.risk_transitions;
    k.searches = u.searches;
    k.rechecks = u.rechecks;
    k.degraded = u.degraded;
    kernel_.restore_derived(k);
    state.quarantined = u.quarantined;
    state.quarantine_reason = u.quarantine_reason;
    state.dead_letters = u.dead_letters;
    state.has_last_time = u.has_last_time;
    state.last_time = u.last_time;
    store_.restore_user(std::move(state));
  }
  store_.restore_shard_clocks(data.shard_clocks);
  support::expects(data.shard_shedding.size() == shedding_.size(),
                   "StreamEngine::restore_snapshot: shed-latch count "
                   "mismatch");
  shedding_.assign(data.shard_shedding.begin(), data.shard_shedding.end());
  position_offset_ = data.stream_position;
  last_checkpoint_position_ = data.stream_position;
  last_metrics_position_ = data.stream_position;
  stats_baseline_ = data.stats;
  stats_floor_ = raw_stats();
  support::log_info("restored gateway state at position ",
                    data.stream_position, " (", data.users.size(),
                    " users)");
}

std::uint64_t StreamEngine::checkpoint_now() {
  support::expects(!checkpoint_policy_.dir.empty(),
                   "StreamEngine::checkpoint_now: no checkpoint directory "
                   "configured");
  MOOD_TRACE("stream.checkpoint");
  const Clock::time_point t0 = Clock::now();
  const SnapshotData data = capture_snapshot();
  const std::string bytes = encode_snapshot(data);
  write_snapshot_file(checkpoint_policy_.dir, bytes);
  last_checkpoint_position_ = data.stream_position;
  checkpoints_->add(1);
  checkpoint_bytes_->add(bytes.size());
  stage_checkpoint_->record(seconds_since(t0));
  support::log_info("checkpoint committed at position ",
                    data.stream_position, " (", bytes.size(), " bytes)");
  return bytes.size();
}

void StreamEngine::maybe_checkpoint() {
  if (checkpoint_policy_.dir.empty() || checkpoint_policy_.every_events == 0) {
    return;
  }
  if (stream_position() - last_checkpoint_position_ <
      checkpoint_policy_.every_events) {
    return;
  }
  try {
    checkpoint_now();
  } catch (const support::Error& e) {
    // A gateway outlives a full disk: count it, keep deciding, retry at
    // the next cadence. The fault-injection tests assert both halves.
    checkpoint_failures_->add(1);
    support::log_warn("checkpoint failed at position ", stream_position(),
                      ": ", e.what());
  }
}

// ---------------------------------------------------------------------------
// Telemetry surface

void StreamEngine::refresh_gauges() const {
  const StreamStats s = stats();
  for (const StreamStatField& f : kStreamStatFields) {
    if (f.gauge != nullptr) {
      registry_.gauge(f.gauge).set(static_cast<double>(s.*f.member));
    }
  }
  registry_.gauge("mood_gateway_resident_users")
      .set(static_cast<double>(store_.user_count()));
  // Instantaneous ingest-ring depths — the gateway's backlog. The
  // registry's gauges are single-series (no label support), so the
  // per-shard views get suffixed names alongside the total.
  std::uint64_t total = 0;
  for (std::size_t shard = 0; shard < store_.shard_count(); ++shard) {
    std::uint64_t depth = 0;
    if (loop_ != nullptr) {
      const LoopState::Lane& lane = loop_->lanes[shard];
      depth = lane.pushed.load(std::memory_order_relaxed) -
              lane.processed.load(std::memory_order_relaxed);
    }
    total += depth;
    registry_.gauge("mood_queue_depth_shard" + std::to_string(shard))
        .set(static_cast<double>(depth));
  }
  registry_.gauge("mood_queue_depth").set(static_cast<double>(total));
}

telemetry::MetricsSnapshot StreamEngine::metrics_snapshot() const {
  refresh_gauges();
  return registry_.snapshot();
}

void StreamEngine::configure_metrics_export(std::string path,
                                            std::uint64_t every_events) {
  metrics_path_ = std::move(path);
  metrics_every_events_ = every_events;
  last_metrics_position_ = stream_position();
}

std::uint64_t StreamEngine::export_metrics_now() const {
  support::expects(!metrics_path_.empty(),
                   "StreamEngine::export_metrics_now: no metrics path "
                   "configured");
  const std::string text = telemetry::render_exposition(metrics_snapshot());
  telemetry::write_exposition_file(metrics_path_, text);
  return text.size();
}

void StreamEngine::maybe_export_metrics() {
  if (metrics_path_.empty() || metrics_every_events_ == 0) return;
  if (stream_position() - last_metrics_position_ < metrics_every_events_) {
    return;
  }
  last_metrics_position_ = stream_position();
  try {
    export_metrics_now();
  } catch (const support::Error& e) {
    // Same stance as checkpoints: observability must never take the
    // gateway down. Count, log, retry at the next cadence.
    metrics_export_failures_->add(1);
    support::log_warn("metrics export failed at position ",
                      stream_position(), ": ", e.what());
  }
}

std::vector<telemetry::HistogramSnapshot> StreamEngine::replay_latency_shards()
    const {
  std::vector<telemetry::HistogramSnapshot> lanes;
  lanes.reserve(replay_latency_->lane_count());
  for (std::size_t lane = 0; lane < replay_latency_->lane_count(); ++lane) {
    lanes.push_back(replay_latency_->lane_snapshot(lane));
  }
  return lanes;
}

}  // namespace mood::stream
