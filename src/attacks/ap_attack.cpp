#include "attacks/ap_attack.h"

#include "attacks/bounded_scan.h"

namespace mood::attacks {

void ApAttack::train(const std::vector<mobility::Trace>& background) {
  compiled_.clear();
  compiled_.reserve(background.size());
  for (const auto& trace : background) {
    compiled_.emplace_back(trace.user(),
                           profiles::CompiledHeatmap::from_trace(trace, grid_));
  }
  index_.build(compiled_);
}

std::optional<mobility::UserId> ApAttack::reidentify(
    const mobility::Trace& anonymous_trace) const {
  const auto anonymous_map =
      profiles::CompiledHeatmap::from_trace(anonymous_trace, grid_);
  if (anonymous_map.empty()) return std::nullopt;
  const auto bounded = [&](const profiles::CompiledHeatmap& map,
                           double bound) {
    return profiles::topsoe_divergence_bounded(anonymous_map, map, bound);
  };
  if (mode_ == QueryMode::kIndex && index_.built()) {
    return index_.argmin(anonymous_map, bounded);
  }
  return scan_argmin(compiled_, bounded);
}

bool ApAttack::reidentifies_target(const mobility::Trace& anonymous_trace,
                                   const mobility::UserId& owner) const {
  return reidentifies_compiled(compile_anonymous(anonymous_trace), owner);
}

bool ApAttack::reidentifies_compiled(
    const profiles::CompiledHeatmap& anonymous_map,
    const mobility::UserId& owner) const {
  if (anonymous_map.empty()) return false;
  const auto exact = [&](const profiles::CompiledHeatmap& map) {
    return profiles::topsoe_divergence(anonymous_map, map);
  };
  const auto bounded = [&](const profiles::CompiledHeatmap& map,
                           double bound) {
    return profiles::topsoe_divergence_bounded(anonymous_map, map, bound);
  };
  if (mode_ == QueryMode::kIndex && index_.built()) {
    return index_.is_first_argmin(anonymous_map, owner, exact, bounded);
  }
  return scan_is_first_argmin(compiled_, owner, exact, bounded);
}

}  // namespace mood::attacks
