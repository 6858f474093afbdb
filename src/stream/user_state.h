#pragma once

/// \file user_state.h
/// Sharded in-memory per-user state for the online MooD gateway.
///
/// The store is the gateway's only mutable state: N shards, each guarded
/// by its own mutex, each holding a user-id-keyed map of UserState. Events
/// enqueue O(1) into the owning user's pending queue (ingest path); the
/// decision pipeline later drains every shard's dirty users in parallel
/// (one task per shard on the shared ThreadPool — see engine.h), and the
/// canonical finish() pass fans out per user (for_each). A user's state is
/// only ever touched under its shard's lock, by one thread at a time, and
/// a user maps to exactly one shard, so per-user processing is race-free
/// by construction and decisions are independent of the shard count.
///
/// Capacity: max_users_per_shard bounds resident states; admission above
/// the bound evicts the least-recently-updated user (preferring users with
/// no undecided events). Eviction forgets the window — a re-appearing user
/// starts cold — so decisions with a cap engaged are an approximation by
/// design; the unbounded default is exact.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "decision/kernel.h"
#include "mobility/record.h"
#include "mobility/trace.h"
#include "stream/event.h"
#include "stream/resilience.h"
#include "telemetry/metrics.h"

namespace mood::stream {

/// Everything the gateway remembers about one user: the ingest-side queue
/// and LRU bookkeeping (owned here) plus the decision kernel's per-user
/// state — window, incremental compiled profiles, last verdict — which
/// only DecisionKernel calls mutate. Touched only by the owning shard's
/// drain task, under the shard lock.
struct UserState {
  mobility::UserId user;

  /// Points ingested but not yet folded into the window ("dirty" queue).
  std::vector<mobility::Record> pending;

  /// Kernel-owned state: sliding window, compiled profiles (AP heatmap
  /// exactly incremental; PIT/POI through the shared stay tracker),
  /// decision + per-user counters. kernel.window carries the user id.
  decision::UserKernelState kernel;

  /// LRU clock value of the last enqueue (store-maintained).
  std::uint64_t last_touch = 0;

  // ---- Quarantine (see stream/resilience.h) --------------------------
  /// Frozen by the resilience layer: a quarantined user's kernel state is
  /// immutable, every later event of theirs is dead-lettered, and their
  /// published decision holds at the last verdict.
  bool quarantined = false;
  std::string quarantine_reason;  ///< why (empty unless quarantined)
  std::uint64_t dead_letters = 0; ///< events dropped on this user's behalf

  /// Per-user timestamp monotonicity watermark (admission path). Tracks
  /// the newest admitted time so a regression is classified at ingest.
  bool has_last_time = false;
  mobility::Timestamp last_time = 0;
};

/// What UserStateStore::enqueue did with one event under the admission
/// policy — the store's half of the classification (the engine handles
/// stateless checks like coordinate range and id size before calling in).
struct AdmitResult {
  enum class Status : std::uint8_t {
    kAdmitted,     ///< appended to the user's pending queue
    kRejected,     ///< dropped (fail/skip policy); no state was created
    kQuarantined,  ///< this event tripped quarantine on its user
    kDeadLettered, ///< user already quarantined; event dropped
  };
  Status status = Status::kAdmitted;
  /// Human-readable fault description (stable vocabulary from
  /// to_string(AdmissionFault)); nullptr when admitted.
  const char* reason = nullptr;
  /// Events dead-lettered by this call (the event itself, plus any
  /// pending points flushed when quarantine trips).
  std::uint64_t dead_letters = 0;
  /// Pending events resident in the owning shard after this call — the
  /// engine's backpressure input, read under the same lock acquisition.
  std::size_t shard_backlog = 0;
  /// Owning shard of the event's user — the telemetry lane the engine
  /// records admission latency and resilience counters on.
  std::size_t shard = 0;
};

/// Store tuning knobs (a subset of StreamConfig, see engine.h).
struct StoreConfig {
  std::size_t shards = 8;              ///< > 0
  std::size_t max_users_per_shard = 0; ///< 0 = unbounded
  /// Metrics registry the store's counters (LRU evictions) register in;
  /// must outlive the store. nullptr = the store keeps a private
  /// registry (standalone/test use), so counter sites are unconditional.
  telemetry::MetricsRegistry* registry = nullptr;
};

/// Sharded user-state map. enqueue() is thread-safe; drain_shard() hands
/// out states under the shard lock.
class UserStateStore {
 public:
  explicit UserStateStore(StoreConfig config);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Owning shard of a user id (stable within a run; decisions do not
  /// depend on the mapping, only load distribution does).
  [[nodiscard]] std::size_t shard_of(const mobility::UserId& user) const;

  /// Admits the event into its user's pending queue, creating the state
  /// (and LRU-evicting above the capacity bound) as needed. The store
  /// handles the stateful half of admission: events for a quarantined
  /// user are dead-lettered, and a per-user timestamp regression — or a
  /// `poisoned` verdict the engine computed statelessly (`poison_reason`
  /// says why) — is rejected or trips quarantine per `policy`. The
  /// default arguments are the strict fast path PR ≤ 7 callers used.
  AdmitResult enqueue(const StreamEvent& event,
                      BadRecordPolicy policy = BadRecordPolicy::kFail,
                      bool poisoned = false,
                      const char* poison_reason = nullptr);

  /// Loop-engine admission: same classification as enqueue(), but when the
  /// event is admitted, `fn` runs on the user's state immediately, under
  /// the same single lock acquisition — dequeue→fold→decide without a
  /// second lookup. The user is NOT pushed onto the dirty list (fn is
  /// expected to fold the pending queue; the before/after backlog delta is
  /// accounted exactly as drain_shard does), so a worker processing every
  /// event inline never grows the dirty list it would never drain.
  AdmitResult admit_and_process(const StreamEvent& event,
                                BadRecordPolicy policy, bool poisoned,
                                const char* poison_reason,
                                const std::function<void(UserState&)>& fn);

  /// Pending (ingested, not yet folded) events resident in `shard` — the
  /// backlog the overload-control policy reads. Maintained incrementally;
  /// taking the count costs one lock acquisition.
  [[nodiscard]] std::size_t pending_events(std::size_t shard) const;

  /// Runs fn on every dirty user of `shard` (in first-dirty order) under
  /// the shard lock, then clears the dirty list. Returns the number of
  /// users visited.
  std::size_t drain_shard(std::size_t shard,
                          const std::function<void(UserState&)>& fn);

  /// Runs fn once on every resident state, in parallel per user on the
  /// shared ThreadPool (bounded by its size; serial when called from a
  /// pool task), while holding every shard lock — the canonical finish()
  /// pass. fn must be safe to run concurrently on distinct states. Each
  /// shard's backlog is recomputed afterwards. The first exception fn
  /// throws is rethrown once every started call has returned.
  void for_each(const std::function<void(UserState&)>& fn);

  /// Read-only traversal for snapshots (same locking).
  void for_each(const std::function<void(const UserState&)>& fn) const;

  [[nodiscard]] std::size_t user_count() const;
  [[nodiscard]] std::uint64_t eviction_count() const;

  // ---- Checkpoint / restore hooks (see stream/snapshot.h) ------------
  /// Inserts one fully rehydrated state into its owning shard, replacing
  /// any resident state for the same user. Re-marks the user dirty when
  /// its pending queue is non-empty (cannot happen for checkpoint-boundary
  /// snapshots — drain() folds every queue — but keeps ad-hoc snapshots
  /// honest).
  void restore_user(UserState state);

  /// Per-shard LRU clocks, in shard order. Captured alongside last_touch
  /// stamps so restored eviction ordering matches the uninterrupted run.
  [[nodiscard]] std::vector<std::uint64_t> shard_clocks() const;
  void restore_shard_clocks(const std::vector<std::uint64_t>& clocks);

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<mobility::UserId, UserState> states;
    /// Users with pending points, in the order they first became dirty.
    std::vector<mobility::UserId> dirty;
    std::uint64_t clock = 0;
    /// Sum of resident pending-queue sizes (the backpressure signal).
    std::size_t backlog = 0;
  };

  /// Evicts one user to make room; prefers the least-recently-touched
  /// clean (no-pending) state, falling back to the least-recently-touched
  /// overall. Caller holds the shard lock. `shard_index` is the eviction
  /// counter's telemetry lane.
  void evict_one(Shard& shard, std::size_t shard_index);

  /// The admission classification shared by enqueue() and
  /// admit_and_process(). Caller holds the shard lock. When the event is
  /// admitted and `track_dirty`, the user joins the dirty list (the
  /// micro-batch drain contract); loop-mode callers pass false and
  /// process the state inline instead. Returns the state pointer on
  /// kAdmitted (nullptr otherwise).
  UserState* admit_locked(Shard& shard, std::size_t shard_index,
                          const StreamEvent& event, BadRecordPolicy policy,
                          bool poisoned, const char* poison_reason,
                          bool track_dirty, AdmitResult& result);

  StoreConfig config_;
  /// Backing registry when the caller did not supply one.
  std::unique_ptr<telemetry::MetricsRegistry> own_registry_;
  /// LRU evictions, one lane per shard (mood_store_evicted_users_total).
  telemetry::Counter* evictions_ = nullptr;
  std::vector<Shard> shards_;
};

}  // namespace mood::stream
