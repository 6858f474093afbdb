#pragma once

/// \file kernel.h
/// DecisionKernel — the one MooD decision procedure, shared by both
/// deployment modes.
///
/// The paper's pitch is a single decision procedure ("does any trained
/// attack re-identify this user's data, and if so, which mechanism
/// protects it at the least utility cost?") deployed offline for
/// experimentation and online behind a gateway. Before this layer existed
/// the repo kept two hand-synchronised copies of that procedure — the
/// batch evaluators in core and the stream engine's per-user drain loop —
/// bit-identical only because replay-equivalence tests said so. The kernel
/// makes the guarantee structural: both modes call the same functions.
///
///   * *Batch* (`ExperimentHarness`): one kernel pass per full test trace
///     — decide_trace() folds the whole trace once and finalises.
///   * *Stream* (`StreamEngine`): the kernel is driven by window deltas —
///     each shard worker folds one admitted record and issues that
///     event's verdict through one decision tier (decide on the slack
///     cadence, decide_held otherwise, or decide_degraded while
///     shedding); finalize() canonicalises after the last event.
///     Identical final windows therefore produce bit-identical decisions
///     by construction, not by test.
///
/// Per user the kernel owns the compiled profiles of all three standard
/// attacks, maintained incrementally:
///
///   * the AP heatmap exactly, via CompiledHeatmap::apply_update (integer
///     counts — bit-identical to a from-scratch compile);
///   * the PIT and POI profiles through ONE shared StayTracker (both
///     attacks cluster the same stay points when their PoiParams agree, as
///     the standard suite's do) plus a VisitAccumulator, compiled into
///     their flat forms with from_states — incremental stay-point
///     maintenance with a bounded rebuild fallback when an eviction splits
///     a stay. A staleness bound (KernelConfig::staleness_points) defers
///     even the incremental folds; finalize() always forces freshness.
///
/// Risk queries run the PR 3 targeted branch-and-bound predicates over the
/// compiled window profiles; mechanism selection applies the
/// keep/recheck/search policy: keep the held LPPM while a cheap
/// MoodEngine::recheck shows it still protects, full search() only on
/// expose->protect transitions or when the mechanism breaks.
///
/// Thread-safety: the kernel itself is immutable after construction;
/// fold/decide/finalize mutate only the caller-owned UserKernelState plus
/// the kernel's atomic counters, so distinct users may be driven
/// concurrently (the stream engine fans out one task per shard, the batch
/// evaluators one per user).

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "clustering/incremental_stays.h"
#include "decision/mood_engine.h"
#include "mobility/record.h"
#include "mobility/trace.h"
#include "profiles/heatmap.h"
#include "profiles/markov_profile.h"
#include "profiles/poi_profile.h"

namespace mood::attacks {
class ApAttack;
class PitAttack;
class PoiAttack;
}  // namespace mood::attacks

namespace mood::decision {

/// Verdict vocabulary of the decision procedure (consumed by both the
/// batch gateway evaluator and the stream engine).
enum class Decision {
  kExpose,   ///< no trained attack re-identifies the current window
  kProtect,  ///< at least one attack does; a mechanism must be applied
};

inline std::string to_string(Decision decision) {
  return decision == Decision::kExpose ? "expose" : "protect";
}

/// Final outcome of the decision procedure for one user.
struct Verdict {
  Decision decision = Decision::kExpose;
  /// Winning mechanism ("" when exposed, or when nothing protects).
  std::string winner;
};

/// Kernel tuning knobs (the window/staleness subset of the gateway's
/// StreamConfig; the batch evaluators run with the defaults — no window,
/// always fresh).
struct KernelConfig {
  mobility::Timestamp window_seconds = 0;  ///< sliding span; 0 = keep all
  std::size_t max_points = 0;              ///< per-user point cap; 0 = off
  std::size_t staleness_points = 0;  ///< PIT/POI refresh bound; 0 = every fold
};

/// Aggregate kernel counters (monotonic; snapshot via stats()).
struct KernelStats {
  std::uint64_t decisions = 0;         ///< per-user verdicts issued
  std::uint64_t exposed_events = 0;    ///< events carried by expose verdicts
  std::uint64_t protected_events = 0;  ///< events carried by protect verdicts
  std::uint64_t searches = 0;          ///< full mechanism selections
  /// Cheap current-winner re-checks, run only by decide()'s selection
  /// step on the slack cadence (the held tiers run none).
  std::uint64_t rechecks = 0;
  std::uint64_t shed_decisions = 0;    ///< degraded held-verdict decisions
  std::uint64_t profile_refreshes = 0; ///< PIT/POI compiled-form refreshes
  std::uint64_t stay_updates = 0;      ///< incremental stay-tracker syncs
  std::uint64_t stay_rebuilds = 0;     ///< full re-extractions among them
  std::uint64_t heatmap_updates = 0;   ///< incremental AP folds
  std::uint64_t evicted_points = 0;    ///< records expired out of windows
  std::uint64_t lppm_applications = 0; ///< search/recheck cost counters
  std::uint64_t attack_invocations = 0;
  /// Population-index counters, pulled from the attacks at snapshot time
  /// (the index lives inside each trained attack; the kernel reads, never
  /// writes). All zero when queries run in scan mode.
  std::uint64_t index_prunes = 0;    ///< candidates skipped via lower bounds
  std::uint64_t exact_evals = 0;     ///< candidates priced exactly
  std::uint64_t index_rebuilds = 0;  ///< full index (re)builds
};

/// Everything the kernel remembers about one user. Owned by the caller
/// (the stream engine keeps one per resident user; the batch evaluators
/// one per trace, transiently) and only ever mutated by kernel calls.
struct UserKernelState {
  /// Sliding window of recent records; carries the owner's user id (the
  /// engine keys noise streams and targeted queries on window.user()).
  mobility::Trace window;

  // ---- Incremental compiled profiles ---------------------------------
  profiles::CompiledHeatmap heatmap;  ///< AP side; exact integer folds
  bool heatmap_built = false;
  /// PIT/POI side: one shared stay tracker + merged visit states. The
  /// projection origin is pinned at the first record ever folded —
  /// captured in fold(), *before* any eviction, so the tracker state is a
  /// pure function of the record sequence however folds are chunked.
  clustering::TrackedVisitStates stays;
  bool stays_init = false;
  geo::GeoPoint stay_origin;
  bool stay_origin_set = false;
  profiles::CompiledMarkovProfile markov;
  profiles::CompiledPoiProfile poi;
  bool profiles_built = false;
  /// Window deltas not yet folded into the PIT/POI profiles (deferred
  /// under the staleness bound; stale_points = appended + evicted drives
  /// the policy).
  std::size_t stale_appended = 0;
  std::size_t stale_evicted = 0;
  std::size_t stale_points = 0;

  // ---- Last decision --------------------------------------------------
  bool has_decision = false;
  Decision decision = Decision::kExpose;
  std::string winner;  ///< mechanism currently applied ("" when none)
  /// Cumulative folded-event count at the last *full* search (max =
  /// never searched). The window is a pure function of the events folded
  /// so far, so equality with `events` means the last search saw exactly
  /// this window and the winner is canonical. (The window *size* is not a
  /// valid marker: under a point cap it pins at the cap while the content
  /// keeps sliding.)
  std::uint64_t searched_events = static_cast<std::uint64_t>(-1);

  // ---- Per-user counters ----------------------------------------------
  std::uint64_t events = 0;            ///< records folded so far
  std::uint64_t risk_transitions = 0;  ///< expose<->protect flips
  std::uint64_t searches = 0;          ///< full mechanism selections
  std::uint64_t rechecks = 0;          ///< cheap current-winner re-checks
  std::uint64_t degraded = 0;          ///< held-verdict (shed) decisions
};

class DecisionKernel {
 public:
  /// Takes ownership of a configured MoodEngine (typically
  /// harness.make_engine()); the engine's attacks must outlive the kernel.
  explicit DecisionKernel(MoodEngine engine, KernelConfig config = {});

  DecisionKernel(const DecisionKernel&) = delete;
  DecisionKernel& operator=(const DecisionKernel&) = delete;

  // ---- Streaming entry points ----------------------------------------
  // One function per tier: bench/gateway/gateway_bench.cpp calls them by name.
  /// Folds new records into the window (evicting expired/over-cap
  /// points from the front) and maintains the AP heatmap incrementally;
  /// PIT/POI folds are deferred to the next refresh. The records are only
  /// read (taken by reference so the batch entry points fold whole test
  /// traces without copying them). Returns the number of records folded.
  std::size_t fold(UserKernelState& state,
                   const std::vector<mobility::Record>& pending) const;

  /// Issues one full verdict: refresh profiles (under the staleness
  /// bound), run the targeted risk queries, apply the keep/recheck/search
  /// selection policy. `folded` is fold()'s return value (events carried
  /// by the verdict); 0 makes the call a no-op.
  void decide(UserKernelState& state, std::size_t folded) const;

  /// Degraded verdict — the overload-shedding path. decide_held() plus
  /// the shed accounting: the user's last verdict is carried forward with
  /// no risk query, no LPPM application and no attack. A user with no
  /// verdict yet falls through to the full decide() — shedding never
  /// leaves a user undecided (fail-closed). Degraded verdicts are flagged
  /// in state.degraded and KernelStats::shed_decisions, and are repaired
  /// at finalize(): the fold already advanced state.events past
  /// searched_events, so the canonical pass re-searches exactly as if the
  /// shed never happened.
  void decide_degraded(UserKernelState& state, std::size_t folded) const;

  /// Loop-engine steady-state verdict — the admission-time cheap path.
  /// Holds the user's last verdict with zero risk queries: event
  /// accounting only (protected/exposed counters plus one decision).
  /// Unlike decide_degraded it is NOT an overload artefact — it never
  /// touches state.degraded or KernelStats::shed_decisions, so a clean
  /// loop-mode run keeps the resilience counters all-zero. A user with no
  /// verdict yet falls through to the full decide() (fail-closed), and
  /// finalize() repairs the held verdict canonically just as for
  /// shedding: the fold advanced state.events past searched_events.
  void decide_held(UserKernelState& state, std::size_t folded) const;

  /// Exactly decide_held(), counters included. Pinned: this wrapper exists
  /// only because bench/gateway/gateway_bench.cpp calls it by name;
  /// ROADMAP item 1(c) deletes it.
  void decide_recheck(UserKernelState& state, std::size_t folded) const;

  /// Canonical final decision: force-refresh stale profiles, re-run risk,
  /// and re-search at-risk users whose last full search did not see
  /// exactly this window — so the final verdict is what decide_trace()
  /// would produce on the final window. `folded` counts records folded by
  /// the caller since the last decide().
  void finalize(UserKernelState& state, std::size_t folded = 0) const;

  // ---- Batch entry points --------------------------------------------
  /// One kernel pass over a full trace: fold everything, finalise —
  /// structurally the same code path the stream drives incrementally.
  [[nodiscard]] Verdict decide_trace(const mobility::Trace& trace) const;

  /// The risk half only: would any trained attack re-identify the trace's
  /// owner from it? (The no-LPPM evaluator's per-user question.) Compiles
  /// the window profiles once and runs every attack's targeted
  /// branch-and-bound query against them.
  [[nodiscard]] bool at_risk_trace(const mobility::Trace& trace) const;

  /// Targeted risk query over a state with fresh profiles.
  [[nodiscard]] bool at_risk(const UserKernelState& state) const;

  /// Checkpoint-restore hook: re-enables the O(1) preslice bookkeeping on
  /// a freshly deserialized window. fold() only turns tracking on for
  /// *empty* windows, so a state restored mid-stream must call this once
  /// or its window_slices snapshots would read 0 forever. track_slices
  /// derives the same cut offsets the incremental bookkeeping maintains,
  /// so restored slice counts are bit-identical to an uninterrupted run.
  void restore_window_tracking(UserKernelState& state) const;

  [[nodiscard]] const MoodEngine& engine() const { return engine_; }
  [[nodiscard]] const KernelConfig& config() const { return config_; }
  [[nodiscard]] KernelStats stats() const;

 private:
  void refresh_profiles(UserKernelState& state, bool force) const;
  void select_mechanism(UserKernelState& state, bool force_search) const;
  void apply_verdict(UserKernelState& state, bool risk, std::size_t folded,
                     bool canonical) const;

  MoodEngine engine_;
  KernelConfig config_;

  // Typed fast-path views into engine_.attacks() (null when absent).
  const attacks::ApAttack* ap_ = nullptr;
  const attacks::PitAttack* pit_ = nullptr;
  const attacks::PoiAttack* poi_ = nullptr;
  /// Stay-clustering parameters of the shared tracker (the POI attack's,
  /// falling back to the PIT attack's) and whether the PIT attack can use
  /// it (its params match; always true for the standard suite).
  clustering::PoiParams stay_params_;
  bool has_stay_params_ = false;
  bool pit_shares_stays_ = false;

  mutable std::atomic<std::uint64_t> decisions_{0};
  mutable std::atomic<std::uint64_t> exposed_events_{0};
  mutable std::atomic<std::uint64_t> protected_events_{0};
  mutable std::atomic<std::uint64_t> searches_{0};
  mutable std::atomic<std::uint64_t> rechecks_{0};
  mutable std::atomic<std::uint64_t> shed_decisions_{0};
  mutable std::atomic<std::uint64_t> profile_refreshes_{0};
  mutable std::atomic<std::uint64_t> stay_updates_{0};
  mutable std::atomic<std::uint64_t> stay_rebuilds_{0};
  mutable std::atomic<std::uint64_t> heatmap_updates_{0};
  mutable std::atomic<std::uint64_t> evicted_points_{0};
  mutable std::atomic<std::uint64_t> lppm_applications_{0};
  mutable std::atomic<std::uint64_t> attack_invocations_{0};
};

}  // namespace mood::decision
