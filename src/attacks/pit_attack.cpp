#include "attacks/pit_attack.h"

namespace mood::attacks {

void PitAttack::train(const std::vector<mobility::Trace>& background) {
  compiled_.clear();
  compiled_.reserve(background.size());
  for (const auto& trace : background) {
    compiled_.emplace_back(trace.user(), Candidate(trace).markov(params_));
  }
  owner_index_ = first_occurrences(compiled_);
}

std::optional<mobility::UserId> PitAttack::reidentify(
    const mobility::Trace& anonymous_trace) const {
  const Candidate candidate(anonymous_trace);
  const auto& anonymous_profile = candidate.markov(params_);
  if (anonymous_profile.empty()) return std::nullopt;
  const auto bounded = [&](const profiles::CompiledMarkovProfile& profile,
                           double bound) {
    return profiles::stats_prox_distance_bounded(anonymous_profile, profile,
                                                 proximity_scale_m_, bound);
  };
  return counted_scan_argmin(compiled_, bounded, counters_);
}

bool PitAttack::reidentifies_target(const Candidate& candidate,
                                    const mobility::UserId& owner) const {
  const profiles::CompiledMarkovProfile& anonymous_profile =
      candidate.markov(params_);
  if (anonymous_profile.empty()) return false;
  const auto exact = [&](const profiles::CompiledMarkovProfile& profile) {
    return profiles::stats_prox_distance(anonymous_profile, profile,
                                         proximity_scale_m_);
  };
  const auto bounded = [&](const profiles::CompiledMarkovProfile& profile,
                           double bound) {
    return profiles::stats_prox_distance_bounded(anonymous_profile, profile,
                                                 proximity_scale_m_, bound);
  };
  return counted_scan_is_first_argmin(compiled_, owner_index_, owner, exact,
                                      bounded, counters_);
}

}  // namespace mood::attacks
