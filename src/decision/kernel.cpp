#include "decision/kernel.h"

#include <utility>

#include "attacks/ap_attack.h"
#include "attacks/pit_attack.h"
#include "attacks/poi_attack.h"
#include "support/error.h"

namespace mood::decision {

namespace {
constexpr std::uint64_t kNeverSearched = static_cast<std::uint64_t>(-1);
constexpr auto kRelaxed = std::memory_order_relaxed;
}  // namespace

DecisionKernel::DecisionKernel(MoodEngine engine, KernelConfig config)
    : engine_(std::move(engine)), config_(config) {
  for (const auto* attack : engine_.attacks()) {
    if (ap_ == nullptr) {
      ap_ = dynamic_cast<const attacks::ApAttack*>(attack);
      if (ap_ != nullptr) continue;
    }
    if (pit_ == nullptr) {
      pit_ = dynamic_cast<const attacks::PitAttack*>(attack);
      if (pit_ != nullptr) continue;
    }
    if (poi_ == nullptr) poi_ = dynamic_cast<const attacks::PoiAttack*>(attack);
  }
  // One stay tracker serves both stay-clustering attacks whenever their
  // parameters agree (they always do in the standard suite); a PIT attack
  // with divergent parameters falls back to from-scratch compiles.
  if (poi_ != nullptr) {
    stay_params_ = poi_->params();
    has_stay_params_ = true;
  } else if (pit_ != nullptr) {
    stay_params_ = pit_->params();
    has_stay_params_ = true;
  }
  pit_shares_stays_ =
      pit_ != nullptr && has_stay_params_ && pit_->params() == stay_params_;
}

std::size_t DecisionKernel::fold(
    UserKernelState& state, std::span<const mobility::Record> pending) const {
  if (pending.empty()) return 0;
  if (!state.stay_origin_set) {
    // Pin the stay-clustering projection at the first record ever folded
    // — before any eviction can move the window front — so the PIT/POI
    // profile state cannot depend on how folds were chunked.
    state.stay_origin = pending.front().position;
    state.stay_origin_set = true;
  }
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

  if (ap_ != nullptr) {
    // Counts only: the cells are compiled when a verdict reads them
    // (refresh_profiles). The evicted records are read straight from the
    // window front, before drop_front.
    const auto evicted = std::span(records).first(expired);
    if (!state.heatmap_built) {
      state.heatmap =
          profiles::CompiledHeatmap::incremental(state.window, ap_->grid());
      state.heatmap.apply_update({}, evicted, ap_->grid());
      state.heatmap_built = true;
    } else {
      state.heatmap.apply_update(pending, evicted, ap_->grid());
    }
    heatmap_updates_.fetch_add(1, kRelaxed);
  }
  if (expired > 0) {
    state.window.drop_front(expired);
    evicted_points_.fetch_add(expired, kRelaxed);
  }
  // PIT/POI folds are deferred to the next refresh (possibly several folds
  // later under a staleness bound) — accumulate the window deltas.
  state.stale_appended += pending.size();
  state.stale_evicted += expired;
  state.stale_points += pending.size() + expired;
  state.events += pending.size();
  return pending.size();
}

void DecisionKernel::refresh_profiles(UserKernelState& state,
                                      bool force) const {
  // The AP heatmap is always exact: its counts are current after every
  // fold, and compiling them is cheap next to the query that follows.
  state.heatmap.compile();
  if (pit_ == nullptr && poi_ == nullptr) return;
  const bool stale = !state.profiles_built || state.stale_points > 0;
  if (!stale) return;
  if (!force && config_.staleness_points > 0 && state.profiles_built &&
      state.stale_points < config_.staleness_points) {
    return;  // within the staleness bound — keep serving the cached forms
  }

  if (has_stay_params_) {
    if (!state.stays_init) {
      state.stays =
          clustering::TrackedVisitStates(stay_params_, state.stay_origin);
      state.stays_init = true;
    }
    const std::uint64_t rebuilds_before = state.stays.tracker().rebuilds();
    state.stays.update(state.window, state.stale_appended,
                       state.stale_evicted);
    stay_updates_.fetch_add(1, kRelaxed);
    stay_rebuilds_.fetch_add(
        state.stays.tracker().rebuilds() - rebuilds_before, kRelaxed);
    const auto states = state.stays.states();
    if (pit_ != nullptr) {
      state.markov = pit_shares_stays_
                         ? profiles::CompiledMarkovProfile::from_states(states)
                         : pit_->compile_anonymous(state.window);
    }
    if (poi_ != nullptr) {
      state.poi = profiles::CompiledPoiProfile::from_states(states);
    }
  }
  state.profiles_built = true;
  state.stale_points = 0;
  state.stale_appended = 0;
  state.stale_evicted = 0;
  profile_refreshes_.fetch_add(1, kRelaxed);
}

bool DecisionKernel::at_risk(const UserKernelState& state) const {
  // Same predicate as the batch no-LPPM evaluator: does any trained attack
  // re-identify the raw window? Walked in suite order; the OR is
  // order-independent, the early exit only saves work.
  const mobility::UserId& owner = state.window.user();
  for (const auto* attack : engine_.attacks()) {
    attack_invocations_.fetch_add(1, kRelaxed);
    bool caught = false;
    if (attack == ap_) {
      caught = ap_->reidentifies_compiled(state.heatmap, owner);
    } else if (attack == pit_) {
      caught = pit_->reidentifies_compiled(state.markov, owner);
    } else if (attack == poi_) {
      caught = poi_->reidentifies_compiled(state.poi, owner);
    } else {
      caught = attack->reidentifies_target(state.window, owner);
    }
    if (caught) return true;
  }
  return false;
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
    refresh_profiles(state, /*force=*/canonical);
    apply_verdict(state, at_risk(state), folded, canonical);
  } else {
    // Hold: no profile refresh, no risk queries, no selection, no flip
    // accounting. The verdict's event accounting still happens so stats()
    // stays an exact partition of folded events.
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
  refresh_profiles(state, /*force=*/true);
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
  s.profile_refreshes = profile_refreshes_.load();
  s.stay_updates = stay_updates_.load();
  s.stay_rebuilds = stay_rebuilds_.load();
  s.heatmap_updates = heatmap_updates_.load();
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
