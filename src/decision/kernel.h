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
///     event's verdict through step() at the tier tier_for() picks (full
///     on the slack cadence, held otherwise, shed while the shard is
///     overloaded); step(Tier::kFinal) canonicalises after the last event.
///     Identical final windows therefore produce bit-identical decisions
///     by construction, not by test.
///
/// Per user the kernel keeps only the window, the stay-projection origin
/// pinned at the user's first-ever record, and the verdict. It caches no
/// compiled profile: the risk query is attacks::any_reidentifies over an
/// attacks::Candidate of the window, which compiles the AP heatmap and the
/// one stay extraction POI and PIT share on first use, as it does for
/// every LPPM output the search prices. Every full verdict therefore
/// reads exact profiles of the current window, and a checkpoint holds
/// state only.
///
/// Mechanism selection applies the keep/recheck/search policy: keep the
/// held LPPM while a cheap MoodEngine::recheck shows it still protects,
/// full search() only on expose->protect transitions or when the
/// mechanism breaks.
///
/// Thread-safety: the kernel itself is immutable after construction;
/// fold/step mutate only the caller-owned UserKernelState plus
/// the kernel's atomic counters, so distinct users may be driven
/// concurrently (the stream engine fans out one task per shard, the batch
/// evaluators one per user).

#include <atomic>
#include <cstdint>
#include <span>
#include <string>

#include "decision/mood_engine.h"
#include "geo/geo.h"
#include "mobility/record.h"
#include "mobility/trace.h"

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

/// The decision tiers step() runs; tier_for() picks the gateway's.
enum class Tier {
  kFull,   ///< risk queries, then the keep/recheck/search policy
  kHeld,   ///< carry the last verdict forward: event accounting only
  kShed,   ///< kHeld under overload, also counted as degraded
  kFinal,  ///< canonical: risk, then re-search a stale winner
};

/// Kernel tuning knobs (the window subset of the gateway's StreamConfig;
/// the batch evaluators run with the defaults — no window).
struct KernelConfig {
  mobility::Timestamp window_seconds = 0;  ///< sliding span; 0 = keep all
  std::size_t max_points = 0;              ///< per-user point cap; 0 = off
  /// Must be 0 (the constructor refuses any other value): no profile is
  /// cached, so none can be kept stale. Pinned because
  /// bench/gateway/gateway_bench.cpp names it; ROADMAP item 1(c) deletes it.
  std::size_t staleness_points = 0;
};

/// Aggregate kernel counters (monotonic; snapshot via stats()).
struct KernelStats {
  std::uint64_t decisions = 0;         ///< per-user verdicts issued
  std::uint64_t exposed_events = 0;    ///< events carried by expose verdicts
  std::uint64_t protected_events = 0;  ///< events carried by protect verdicts
  std::uint64_t searches = 0;          ///< full mechanism selections
  /// Cheap current-winner re-checks, run only by the full tier's selection
  /// step on the slack cadence (the held tiers run none).
  std::uint64_t rechecks = 0;
  std::uint64_t shed_decisions = 0;    ///< degraded held-verdict decisions
  /// Always 0: no profile is cached, so none is refreshed or rebuilt.
  /// Pinned because bench/gateway/gateway_bench.cpp reads them; ROADMAP
  /// item 1(c) deletes them.
  std::uint64_t profile_refreshes = 0;
  std::uint64_t stay_rebuilds = 0;
  std::uint64_t evicted_points = 0;    ///< records expired out of windows
  std::uint64_t lppm_applications = 0; ///< search/recheck cost counters
  std::uint64_t attack_invocations = 0;
  /// Attack query work, summed over the attacks' IndexStats at snapshot
  /// time: exact_evals counts the candidates the POI and PIT scans and
  /// AP's queries price exactly (AP counts nothing in kScan mode); prunes
  /// and rebuilds come from AP's posting index only.
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

  /// Stay-clustering projection origin, pinned at the first record ever
  /// folded (fold() sets it while events == 0, before any eviction), so
  /// the PIT/POI stays of a sliding window do not move with its front and
  /// do not depend on how folds were chunked.
  geo::GeoPoint stay_origin;

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

/// The gateway's tier rule, its one definition: kFull on the user's first
/// verdict; then kShed while the user's shard is overloaded (`shed`);
/// else kFull on every `slack`-th folded event (every event for slack 0)
/// and kHeld between. Shedding aside, a pure function of the user's
/// folded-event ordinal (state.events), so mid-stream counters never
/// depend on timing, shard count or checkpoint cuts.
[[nodiscard]] Tier tier_for(const UserKernelState& state, std::size_t slack,
                            bool shed);

class DecisionKernel {
 public:
  /// Takes ownership of a configured MoodEngine (typically
  /// harness.make_engine()); the engine's attacks must outlive the kernel.
  /// Throws PreconditionError when config.staleness_points is not 0.
  explicit DecisionKernel(MoodEngine engine, KernelConfig config = {});

  DecisionKernel(const DecisionKernel&) = delete;
  DecisionKernel& operator=(const DecisionKernel&) = delete;

  // ---- Streaming entry points ----------------------------------------
  /// Per-event bookkeeping only: appends the records to the window and
  /// evicts expired/over-cap points from its front. The records are only
  /// read (a span, so the stream folds one event and the batch entry
  /// points a whole test trace without copying). Returns the number of
  /// records folded.
  std::size_t fold(UserKernelState& state,
                   std::span<const mobility::Record> pending) const;

  /// Issues one verdict at `tier` — the one function that runs a tier.
  /// `folded` counts the events the verdict carries (fold()'s return
  /// value); 0 makes every tier but kFinal a no-op, and kFinal a no-op on
  /// an empty window. kFull and kFinal run every trained attack's targeted
  /// risk query on the window; kFinal
  /// then re-searches an at-risk user unless the last full search saw
  /// exactly this window, so its verdict is decide_trace()'s on it. kHeld
  /// and kShed run no query, no LPPM and no attack. Fail-closed: kHeld or
  /// kShed on a user with no verdict yet runs kFull. Held and shed
  /// verdicts are repaired by kFinal: the fold advanced state.events past
  /// searched_events, so the canonical pass re-searches as if the hold
  /// never happened.
  void step(UserKernelState& state, std::size_t folded, Tier tier) const;

  // Pinned one-line forwards to step(): bench/gateway/gateway_bench.cpp
  // calls them by name. ROADMAP item 1(c) deletes them.
  void decide(UserKernelState& state, std::size_t folded) const {
    step(state, folded, Tier::kFull);
  }
  void decide_held(UserKernelState& state, std::size_t folded) const {
    step(state, folded, Tier::kHeld);
  }
  void decide_recheck(UserKernelState& state, std::size_t folded) const {
    step(state, folded, Tier::kHeld);
  }
  void finalize(UserKernelState& state, std::size_t folded = 0) const {
    step(state, folded, Tier::kFinal);
  }

  // ---- Batch entry points --------------------------------------------
  /// One kernel pass over a full trace: fold everything, finalise —
  /// structurally the same code path the stream drives incrementally.
  [[nodiscard]] Verdict decide_trace(const mobility::Trace& trace) const;

  /// The risk half only: would any trained attack re-identify the trace's
  /// owner from it? (The no-LPPM evaluator's per-user question.) Runs
  /// every attack's targeted branch-and-bound query on the folded window.
  [[nodiscard]] bool at_risk_trace(const mobility::Trace& trace) const;

  [[nodiscard]] const MoodEngine& engine() const { return engine_; }
  [[nodiscard]] const KernelConfig& config() const { return config_; }
  [[nodiscard]] KernelStats stats() const;

 private:
  /// Targeted risk query over the state's window.
  [[nodiscard]] bool at_risk(const UserKernelState& state) const;
  void select_mechanism(UserKernelState& state, bool force_search) const;
  void apply_verdict(UserKernelState& state, bool risk, std::size_t folded,
                     bool canonical) const;

  MoodEngine engine_;
  KernelConfig config_;

  mutable std::atomic<std::uint64_t> decisions_{0};
  mutable std::atomic<std::uint64_t> exposed_events_{0};
  mutable std::atomic<std::uint64_t> protected_events_{0};
  mutable std::atomic<std::uint64_t> searches_{0};
  mutable std::atomic<std::uint64_t> rechecks_{0};
  mutable std::atomic<std::uint64_t> shed_decisions_{0};
  mutable std::atomic<std::uint64_t> evicted_points_{0};
  mutable std::atomic<std::uint64_t> lppm_applications_{0};
  mutable std::atomic<std::uint64_t> attack_invocations_{0};
};

}  // namespace mood::decision
