#include "decision/kernel.h"

#include <utility>

#include "attacks/attack.h"
#include "support/error.h"

namespace mood::decision {

namespace {
constexpr std::uint64_t kNeverSearched = static_cast<std::uint64_t>(-1);
constexpr auto kRelaxed = std::memory_order_relaxed;
}  // namespace

DecisionKernel::DecisionKernel(MoodEngine engine, KernelConfig config)
    : engine_(std::move(engine)), config_(config) {
  support::expects(config_.staleness_points == 0,
                   "DecisionKernel: staleness_points must be 0 (no profile "
                   "is cached, so none can be kept stale)");
}

std::size_t DecisionKernel::fold(
    UserKernelState& state, std::span<const mobility::Record> pending) const {
  if (pending.empty()) return 0;
  // Pin the stay-clustering projection at the first record ever folded —
  // before any eviction can move the window front — so the PIT/POI stays
  // cannot depend on how folds were chunked.
  if (state.events == 0) state.stay_origin = pending.front().position;
  for (const auto& record : pending) state.window.append(record);

  // Evict expired / over-cap points from the front. The newest record is
  // never evicted (its own age is zero), so the window stays non-empty.
  std::size_t expired = 0;
  const auto& records = state.window.records();
  if (config_.window_seconds > 0) {
    const mobility::Timestamp cutoff =
        state.window.back().time - config_.window_seconds;
    while (expired < records.size() && records[expired].time <= cutoff) {
      ++expired;
    }
  }
  if (config_.max_points > 0 && records.size() - expired > config_.max_points) {
    expired = records.size() - config_.max_points;
  }
  if (expired > 0) {
    state.window.drop_front(expired);
    evicted_points_.fetch_add(expired, kRelaxed);
  }
  state.events += pending.size();
  return pending.size();
}

bool DecisionKernel::at_risk(const UserKernelState& state) const {
  // Same predicate as every other risk question: does any trained attack
  // re-identify the raw window? The candidate compiles what the attacks
  // read, its stays projected from the pinned origin.
  const attacks::Candidate candidate(state.window, state.stay_origin);
  std::size_t asked = 0;
  const bool risk = attacks::any_reidentifies(engine_.attacks(), candidate,
                                              state.window.user(), &asked);
  attack_invocations_.fetch_add(asked, kRelaxed);
  return risk;
}

void DecisionKernel::select_mechanism(UserKernelState& state,
                                      bool force_search) const {
  ProtectionResult cost;
  if (!force_search && !state.winner.empty()) {
    // Cheap path: does the mechanism selected earlier still defeat every
    // attack on the grown window?
    ++state.rechecks;
    rechecks_.fetch_add(1, kRelaxed);
    if (engine_.recheck(state.winner, state.window, &cost)) {
      lppm_applications_.fetch_add(cost.lppm_applications, kRelaxed);
      attack_invocations_.fetch_add(cost.attack_invocations, kRelaxed);
      return;
    }
  }
  const auto candidate = engine_.search(state.window, &cost);
  lppm_applications_.fetch_add(cost.lppm_applications, kRelaxed);
  attack_invocations_.fetch_add(cost.attack_invocations, kRelaxed);
  state.winner = candidate ? candidate->lppm : std::string{};
  state.searched_events = state.events;
  ++state.searches;
  searches_.fetch_add(1, kRelaxed);
}

void DecisionKernel::apply_verdict(UserKernelState& state, bool risk,
                                   std::size_t folded, bool canonical) const {
  const Decision decision = risk ? Decision::kProtect : Decision::kExpose;
  if (state.has_decision && decision != state.decision) {
    ++state.risk_transitions;
  }
  state.has_decision = true;
  state.decision = decision;

  if (risk) {
    if (canonical) {
      // Canonicalise: unless the last full search already saw exactly this
      // window (same folded-event count — window size is ambiguous under
      // a point cap), re-search so the reported winner is what
      // decide_trace's search would pick on the final window.
      if (state.searched_events != state.events) {
        select_mechanism(state, /*force_search=*/true);
      }
    } else {
      select_mechanism(state, /*force_search=*/state.winner.empty());
    }
    protected_events_.fetch_add(folded, kRelaxed);
  } else {
    state.winner.clear();
    state.searched_events = kNeverSearched;
    exposed_events_.fetch_add(folded, kRelaxed);
  }
}

Tier tier_for(const UserKernelState& state, std::size_t slack, bool shed) {
  if (!state.has_decision) return Tier::kFull;
  if (shed) return Tier::kShed;
  return slack == 0 || state.events % slack == 0 ? Tier::kFull : Tier::kHeld;
}

void DecisionKernel::step(UserKernelState& state, std::size_t folded,
                          Tier tier) const {
  const bool canonical = tier == Tier::kFinal;
  if (canonical ? state.window.empty() : folded == 0) return;
  // Fail-closed: a user's first verdict always takes the full path.
  if (!state.has_decision && !canonical) tier = Tier::kFull;
  if (tier == Tier::kFull || canonical) {
    apply_verdict(state, at_risk(state), folded, canonical);
  } else {
    // Hold: no risk queries, no selection, no flip accounting. The
    // verdict's event accounting still happens so stats() stays an exact
    // partition of folded events.
    if (state.decision == Decision::kProtect) {
      protected_events_.fetch_add(folded, kRelaxed);
    } else {
      exposed_events_.fetch_add(folded, kRelaxed);
    }
    if (tier == Tier::kShed) {
      ++state.degraded;
      shed_decisions_.fetch_add(1, kRelaxed);
    }
  }
  if (folded > 0) decisions_.fetch_add(1, kRelaxed);
}

Verdict DecisionKernel::decide_trace(const mobility::Trace& trace) const {
  UserKernelState state;
  state.window.set_user(trace.user());
  step(state, fold(state, trace.records()), Tier::kFinal);
  return Verdict{state.decision, state.winner};
}

bool DecisionKernel::at_risk_trace(const mobility::Trace& trace) const {
  if (trace.empty()) return false;
  UserKernelState state;
  state.window.set_user(trace.user());
  fold(state, trace.records());
  return at_risk(state);
}

KernelStats DecisionKernel::stats() const {
  KernelStats s;
  s.decisions = decisions_.load();
  s.exposed_events = exposed_events_.load();
  s.protected_events = protected_events_.load();
  s.searches = searches_.load();
  s.rechecks = rechecks_.load();
  s.shed_decisions = shed_decisions_.load();
  s.evicted_points = evicted_points_.load();
  s.lppm_applications = lppm_applications_.load();
  s.attack_invocations = attack_invocations_.load();
  for (const attacks::Attack* attack : engine_.attacks()) {
    const attacks::IndexStats index = attack->index_stats();
    s.index_prunes += index.pruned_candidates;
    s.exact_evals += index.exact_evaluations;
    s.index_rebuilds += index.rebuilds;
  }
  return s;
}

}  // namespace mood::decision
