#include "stream/user_state.h"

#include <algorithm>

#include "support/error.h"
#include "support/thread_pool.h"

namespace mood::stream {

UserStateStore::UserStateStore(StoreConfig config) : config_(config) {
  support::expects(config_.shards > 0,
                   "UserStateStore: shard count must be > 0");
  telemetry::MetricsRegistry* registry = config_.registry;
  if (registry == nullptr) {
    own_registry_ =
        std::make_unique<telemetry::MetricsRegistry>(config_.shards);
    registry = own_registry_.get();
  }
  evictions_ = &registry->counter("mood_store_evicted_users_total");
  shards_ = std::vector<Shard>(config_.shards);
}

std::size_t UserStateStore::shard_of(const mobility::UserId& user) const {
  return std::hash<mobility::UserId>{}(user) % shards_.size();
}

void UserStateStore::evict_one(Shard& shard, std::size_t shard_index) {
  const auto victim = std::min_element(
      shard.states.begin(), shard.states.end(),
      [](const auto& a, const auto& b) {
        return a.second.last_touch < b.second.last_touch;
      });
  if (victim == shard.states.end()) return;
  shard.states.erase(victim);
  evictions_->add(1, shard_index);
}

AdmitResult UserStateStore::admit_and_process(
    const StreamEvent& event, BadRecordPolicy policy, bool poisoned,
    const char* poison_reason, const std::function<void(UserState&)>& fn) {
  const std::size_t shard_index = shard_of(event.user);
  Shard& shard = shards_[shard_index];
  const std::lock_guard lock(shard.mutex);
  AdmitResult result;
  result.shard = shard_index;
  auto it = shard.states.find(event.user);

  if (it != shard.states.end() && it->second.quarantined) {
    it->second.dead_letters += 1;
    it->second.last_touch = ++shard.clock;
    result.status = AdmitResult::Status::kDeadLettered;
    result.reason = to_string(AdmissionFault::kDecideFault);
    result.dead_letters = 1;
    return result;
  }

  // Stateful classification: the engine flags statelessly detectable
  // poison; the store adds the per-user monotonicity check (strict
  // regressions only — equal timestamps are legal).
  const char* fault = poisoned ? poison_reason : nullptr;
  if (fault == nullptr && it != shard.states.end() &&
      it->second.has_last_time && event.record.time < it->second.last_time) {
    fault = to_string(AdmissionFault::kNonMonotonicTime);
  }

  if (fault != nullptr && policy != BadRecordPolicy::kQuarantine) {
    // kFail / kSkip: drop without creating state; the engine decides
    // whether the drop aborts the run.
    result.status = AdmitResult::Status::kRejected;
    result.reason = fault;
    return result;
  }

  if (it == shard.states.end()) {
    if (config_.max_users_per_shard > 0 &&
        shard.states.size() >= config_.max_users_per_shard) {
      evict_one(shard, shard_index);
    }
    it = shard.states.emplace(event.user, UserState{}).first;
    it->second.user = event.user;
    // The window must carry the owner's id: the kernel keys its noise
    // streams and targeted attack queries on window.user().
    it->second.kernel.window.set_user(event.user);
  }
  UserState& state = it->second;
  state.last_touch = ++shard.clock;

  if (fault != nullptr) {
    // Quarantine trips on the poisoned event: freeze the kernel state and
    // dead-letter the event.
    state.quarantined = true;
    state.quarantine_reason = fault;
    state.dead_letters += 1;
    result.status = AdmitResult::Status::kQuarantined;
    result.reason = fault;
    result.dead_letters = 1;
    return result;
  }

  state.has_last_time = true;
  state.last_time = event.record.time;
  fn(state);
  return result;
}

void UserStateStore::for_each(const std::function<void(UserState&)>& fn) {
  // Every shard lock, in shard order (the only multi-lock acquisition in
  // the store, so the order cannot deadlock against anything).
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  std::vector<UserState*> users;
  for (Shard& shard : shards_) {
    locks.emplace_back(shard.mutex);
    for (auto& [user, state] : shard.states) users.push_back(&state);
  }
  // Grain 1: the pool's dynamic cursor balances skewed per-user costs.
  support::parallel_for(users.size(), [&](std::size_t i) { fn(*users[i]); });
}

void UserStateStore::for_each(
    const std::function<void(const UserState&)>& fn) const {
  for (const Shard& shard : shards_) {
    const std::lock_guard lock(shard.mutex);
    for (const auto& [user, state] : shard.states) fn(state);
  }
}

std::size_t UserStateStore::user_count() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    const std::lock_guard lock(shard.mutex);
    n += shard.states.size();
  }
  return n;
}

void UserStateStore::restore_user(UserState state) {
  Shard& shard = shards_[shard_of(state.user)];
  const std::lock_guard lock(shard.mutex);
  const mobility::UserId user = state.user;
  shard.states.insert_or_assign(user, std::move(state));
}

std::vector<std::uint64_t> UserStateStore::shard_clocks() const {
  std::vector<std::uint64_t> clocks;
  clocks.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    const std::lock_guard lock(shard.mutex);
    clocks.push_back(shard.clock);
  }
  return clocks;
}

void UserStateStore::restore_shard_clocks(
    const std::vector<std::uint64_t>& clocks) {
  support::expects(clocks.size() == shards_.size(),
                   "UserStateStore::restore_shard_clocks: shard count "
                   "mismatch");
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::lock_guard lock(shards_[i].mutex);
    shards_[i].clock = clocks[i];
  }
}

std::uint64_t UserStateStore::eviction_count() const {
  return evictions_->value();
}

}  // namespace mood::stream
