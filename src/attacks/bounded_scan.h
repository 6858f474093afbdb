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
/// the first user attaining the minimum finite distance wins. They are how
/// the POI and PIT attacks answer every query, the oracle the AP attack's
/// posting index (ap_attack.h) is validated against, and the path AP
/// delegates to below kIndexMinPopulation. What the three attacks share
/// around them lives here too: the work counters (IndexCounters,
/// counting) and the owner lookup (first_occurrences).
///
/// The bounded distance callable must satisfy the contract documented on
/// the profiles' *_bounded functions: bounded(profile, bound) returns the
/// exact distance whenever it is <= bound, and some value > bound (usually
/// infinity) otherwise.

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "attacks/attack.h"
#include "mobility/trace.h"

namespace mood::attacks {

/// Cumulative query counters of one attack (see IndexStats). Relaxed
/// atomics: const queries bump them from any thread without a lock.
class IndexCounters {
 public:
  /// Records one served query with its prunes and exact evaluations.
  void count_query(std::uint64_t pruned, std::uint64_t evals) const {
    queries_.fetch_add(1, std::memory_order_relaxed);
    if (pruned > 0) pruned_.fetch_add(pruned, std::memory_order_relaxed);
    if (evals > 0) evals_.fetch_add(evals, std::memory_order_relaxed);
  }

  /// Records one full (re)build of a pruning index.
  void count_build() { rebuilds_.fetch_add(1, std::memory_order_relaxed); }

  [[nodiscard]] IndexStats stats() const {
    IndexStats stats;
    stats.queries = queries_.load(std::memory_order_relaxed);
    stats.pruned_candidates = pruned_.load(std::memory_order_relaxed);
    stats.exact_evaluations = evals_.load(std::memory_order_relaxed);
    stats.rebuilds = rebuilds_.load(std::memory_order_relaxed);
    return stats;
  }

 private:
  mutable std::atomic<std::uint64_t> queries_{0};
  mutable std::atomic<std::uint64_t> pruned_{0};
  mutable std::atomic<std::uint64_t> evals_{0};
  std::atomic<std::uint64_t> rebuilds_{0};
};

/// Wraps a distance callable so that every call counts one exact
/// evaluation — how the scans keep the attacks' counters.
template <typename Distance>
auto counting(const Distance& distance, std::uint64_t& evals) {
  return [&distance, &evals](const auto&... args) {
    ++evals;
    return distance(args...);
  };
}

/// Position of every user id's first occurrence in a population — the
/// owner the linear scans' first-match lookup finds.
template <typename Profile>
std::unordered_map<mobility::UserId, std::size_t> first_occurrences(
    const std::vector<std::pair<mobility::UserId, Profile>>& population) {
  std::unordered_map<mobility::UserId, std::size_t> owners;
  owners.reserve(population.size());
  for (std::size_t i = 0; i < population.size(); ++i) {
    owners.emplace(population[i].first, i);
  }
  return owners;
}

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

/// scan_argmin recording the query and every distance it prices in
/// `counters`: how POI and PIT answer, and AP below kIndexMinPopulation.
template <typename Profile, typename BoundedDistance>
std::optional<mobility::UserId> counted_scan_argmin(
    const std::vector<std::pair<mobility::UserId, Profile>>& profiles,
    const BoundedDistance& bounded, const IndexCounters& counters) {
  std::uint64_t evals = 0;
  auto answer = scan_argmin(profiles, counting(bounded, evals));
  counters.count_query(0, evals);
  return answer;
}

/// scan_is_first_argmin with the owner looked up in `owners`, the
/// first_occurrences of `profiles`, recording the query and every distance
/// it prices in `counters`. An unknown owner counts a query that priced
/// nothing.
template <typename Profile, typename ExactDistance, typename BoundedDistance>
bool counted_scan_is_first_argmin(
    const std::vector<std::pair<mobility::UserId, Profile>>& profiles,
    const std::unordered_map<mobility::UserId, std::size_t>& owners,
    const mobility::UserId& owner, const ExactDistance& exact,
    const BoundedDistance& bounded, const IndexCounters& counters) {
  const auto it = owners.find(owner);
  std::uint64_t evals = 0;
  const bool owns =
      it != owners.end() &&
      scan_is_first_argmin_at(profiles, it->second, counting(exact, evals),
                              counting(bounded, evals));
  counters.count_query(0, evals);
  return owns;
}

}  // namespace mood::attacks
