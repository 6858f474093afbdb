#pragma once

/// \file bounded_scan.h
/// Branch-and-bound population scans shared by the three attacks.
///
/// Every attack re-identifies by an argmin over per-user profile distances
/// whose accumulation is non-negative, so a *bounded* distance — one that
/// bails out and returns infinity as soon as its partial sum proves the
/// final value exceeds a bound — lets the scan skip most of the population
/// without changing any decision:
///
///  * scan_argmin keeps the running best as the bound (classic
///    branch-and-bound argmin);
///  * scan_is_first_argmin answers the targeted "would this trace be
///    re-identified as `owner`?" query: it prices the owner first and walks
///    the rest of the population with that price as the bound.
///
/// Both preserve the naive first-strict-min scan's tie-breaking exactly:
/// the first user attaining the minimum finite distance wins. They are the
/// oracle the pruning indexes (population_index.h, ap_attack.h) are
/// validated against, and the indexes delegate to them below
/// kIndexMinPopulation.
/// The bounded distance callable must satisfy the contract documented on
/// the profiles' *_bounded functions: bounded(profile, bound) returns the
/// exact distance whenever it is <= bound, and some value > bound (usually
/// infinity) otherwise.

#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "mobility/trace.h"

namespace mood::attacks {

/// Argmin over trained profiles with branch-and-bound pruning. `bounded`
/// is called as bounded(profile, current_best). Returns the first user
/// attaining the minimum finite distance, or nullopt when every distance
/// is infinite — exactly the naive scan's answer.
template <typename Profile, typename BoundedDistance>
std::optional<mobility::UserId> scan_argmin(
    const std::vector<std::pair<mobility::UserId, Profile>>& profiles,
    const BoundedDistance& bounded) {
  double best = std::numeric_limits<double>::infinity();
  const mobility::UserId* best_user = nullptr;
  for (const auto& [user, profile] : profiles) {
    const double d = bounded(profile, best);
    if (d < best) {
      best = d;
      best_user = &user;
    }
  }
  if (best_user == nullptr) return std::nullopt;
  return *best_user;
}

/// scan_is_first_argmin for the owner at `owner_index`, the first entry
/// carrying the owner's id (callers that already know it skip the linear
/// lookup). Prices the owner once with `exact`, then walks the rest of the
/// population with the owner's distance as the pruning bound.
template <typename Profile, typename ExactDistance, typename BoundedDistance>
bool scan_is_first_argmin_at(
    const std::vector<std::pair<mobility::UserId, Profile>>& profiles,
    std::size_t owner_index, const ExactDistance& exact,
    const BoundedDistance& bounded) {
  const double target = exact(profiles[owner_index].second);
  if (target == std::numeric_limits<double>::infinity()) return false;

  for (std::size_t i = 0; i < owner_index; ++i) {
    if (bounded(profiles[i].second, target) <= target) return false;
  }
  for (std::size_t i = owner_index + 1; i < profiles.size(); ++i) {
    if (bounded(profiles[i].second, target) < target) return false;
  }
  return true;
}

/// True iff the naive argmin scan would answer `owner`: the owner's
/// distance is finite, every earlier user is strictly farther (an earlier
/// tie would win the first-strict-min scan) and no later user is strictly
/// closer.
template <typename Profile, typename ExactDistance, typename BoundedDistance>
bool scan_is_first_argmin(
    const std::vector<std::pair<mobility::UserId, Profile>>& profiles,
    const mobility::UserId& owner, const ExactDistance& exact,
    const BoundedDistance& bounded) {
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    if (profiles[i].first == owner) {
      return scan_is_first_argmin_at(profiles, i, exact, bounded);
    }
  }
  // Unknown owner: the scan can only ever answer trained users.
  return false;
}

}  // namespace mood::attacks
