#include "attacks/poi_attack.h"

namespace mood::attacks {

void PoiAttack::train(const std::vector<mobility::Trace>& background) {
  compiled_.clear();
  compiled_.reserve(background.size());
  for (const auto& trace : background) {
    // Users with no extractable POIs cannot be matched; training still
    // records them so trained_users() reflects the population, but an
    // empty profile yields infinite distance and never wins.
    compiled_.emplace_back(trace.user(), Candidate(trace).poi(params_));
  }
  owner_index_ = first_occurrences(compiled_);
}

std::optional<mobility::UserId> PoiAttack::reidentify(
    const mobility::Trace& anonymous_trace) const {
  const Candidate candidate(anonymous_trace);
  const auto& anonymous_profile = candidate.poi(params_);
  if (anonymous_profile.empty()) return std::nullopt;
  const auto bounded = [&](const profiles::CompiledPoiProfile& profile,
                           double bound) {
    return profiles::poi_profile_distance_bounded(anonymous_profile, profile,
                                                  bound);
  };
  return counted_scan_argmin(compiled_, bounded, counters_);
}

bool PoiAttack::reidentifies_target(const Candidate& candidate,
                                    const mobility::UserId& owner) const {
  const profiles::CompiledPoiProfile& anonymous_profile =
      candidate.poi(params_);
  if (anonymous_profile.empty()) return false;
  const auto exact = [&](const profiles::CompiledPoiProfile& profile) {
    return profiles::poi_profile_distance(anonymous_profile, profile);
  };
  const auto bounded = [&](const profiles::CompiledPoiProfile& profile,
                           double bound) {
    return profiles::poi_profile_distance_bounded(anonymous_profile, profile,
                                                  bound);
  };
  return counted_scan_is_first_argmin(compiled_, owner_index_, owner, exact,
                                      bounded, counters_);
}

}  // namespace mood::attacks
