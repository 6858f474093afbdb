#include "attacks/poi_attack.h"

namespace mood::attacks {

void PoiAttack::train(const std::vector<mobility::Trace>& background) {
  compiled_.clear();
  compiled_.reserve(background.size());
  for (const auto& trace : background) {
    // Users with no extractable POIs cannot be matched; training still
    // records them so trained_users() reflects the population, but an
    // empty profile yields infinite distance and never wins.
    compiled_.emplace_back(trace.user(),
                           profiles::CompiledPoiProfile(
                               profiles::PoiProfile::from_trace(trace,
                                                                params_)));
  }
  owner_index_ = first_occurrences(compiled_);
}

std::optional<mobility::UserId> PoiAttack::reidentify(
    const mobility::Trace& anonymous_trace) const {
  const auto anonymous_profile = compile_anonymous(anonymous_trace);
  if (anonymous_profile.empty()) return std::nullopt;
  const auto bounded = [&](const profiles::CompiledPoiProfile& profile,
                           double bound) {
    return profiles::poi_profile_distance_bounded(anonymous_profile, profile,
                                                  bound);
  };
  return counted_scan_argmin(compiled_, bounded, counters_);
}

bool PoiAttack::reidentifies_target(const mobility::Trace& anonymous_trace,
                                    const mobility::UserId& owner) const {
  return reidentifies_compiled(compile_anonymous(anonymous_trace), owner);
}

bool PoiAttack::reidentifies_compiled(
    const profiles::CompiledPoiProfile& anonymous_profile,
    const mobility::UserId& owner) const {
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
