#pragma once

/// \file population_index.h
/// PopulationIndex: sublinear re-identification queries over compiled
/// profiles, decision-identical to the linear bounded scans. The POI and
/// PIT attacks own one each (PoiIndexTraits / PitIndexTraits below); the
/// AP attack prunes with its own per-cell posting index (ap_attack.h),
/// which shares this file's counters, delegation threshold and
/// counting wrapper.
///
/// The linear scans in bounded_scan.h already prune with branch-and-bound,
/// but only *after* pricing begins: every candidate still pays at least the
/// start of an exact divergence. The index eliminates most candidates
/// before any exact arithmetic using the admissible lower bounds from
/// profiles/summaries.h, at two granularities:
///
///  * entries are grouped into contiguous kClusterSize-blocks in original
///    training order, each carrying an aggregate summary whose
///    cluster_lower_bound holds for every member — one comparison can
///    discard a whole block;
///  * surviving entries are checked against their per-profile summary
///    bound, and only then priced with the exact bounded divergence.
///
/// ## Decision identity
///
/// Both queries mirror the corresponding scan *in original order*: the
/// running best evolves through the same candidates, and a candidate is
/// skipped only when its lower bound strictly exceeds the current pruning
/// bound — in which case its exact distance could not have updated the
/// best (argmin) nor defeated the owner (is_first_argmin) either, because
/// lower_bound <= exact is guaranteed as *computed* values (summaries.h
/// admissibility contract). First-strict-min tie-breaking is therefore
/// bit-identical to scan_argmin / scan_is_first_argmin, which the replay
/// verification gate and BoundedScanEquivalence's pruning-population
/// tests enforce end to end.
///
/// build() snapshots summaries of the population vector it is given and
/// keeps a pointer to it: the vector must stay alive, in place and
/// unmodified until the next build(), which holds for the attacks'
/// training vectors (train() fills the vector, then builds).
///
/// Populations below kIndexMinPopulation delegate to the bounded scans of
/// bounded_scan.h (see the constant below) — same counters, no summary
/// reads.
///
/// Queries are const and thread-safe (counters are relaxed atomics);
/// build() must happen outside parallel sections, matching the attacks'
/// train() contract.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "attacks/attack.h"
#include "attacks/bounded_scan.h"
#include "mobility/trace.h"
#include "profiles/summaries.h"

namespace mood::attacks {

/// Entries per cluster. 64 summaries aggregate into one block bound while
/// keeping blocks small enough that a surviving cluster costs little.
inline constexpr std::size_t kIndexClusterSize = 64;

/// Below one full cluster the indexes delegate queries to the plain
/// bounded scans: with a single partial cluster there is no block
/// structure to prune, so the per-candidate lower bounds are pure
/// overhead on top of the early-exiting bounded exact distances.
/// Delegation preserves decisions trivially — the scan *is* the
/// definition — and the work counters keep their meaning: queries and
/// exact evaluations are still counted, prunes are simply zero.
inline constexpr std::size_t kIndexMinPopulation = kIndexClusterSize;

/// Cumulative work counters of one index (see IndexStats). Relaxed
/// atomics: const queries bump them from any thread without a lock.
class IndexCounters {
 public:
  /// Records one served query with its prunes and exact evaluations.
  void count_query(std::uint64_t pruned, std::uint64_t evals) const {
    queries_.fetch_add(1, std::memory_order_relaxed);
    if (pruned > 0) pruned_.fetch_add(pruned, std::memory_order_relaxed);
    if (evals > 0) evals_.fetch_add(evals, std::memory_order_relaxed);
  }

  /// Records one full (re)build.
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
/// evaluation — how the delegated scans keep the index counters.
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

/// Pruning index over one attack's compiled population. Traits supply the
/// profile/summary/cluster types and the bound arithmetic (see
/// PoiIndexTraits / PitIndexTraits below). Non-copyable (atomic
/// counters); attacks own one by value.
template <typename Traits>
class PopulationIndex {
 public:
  using Profile = typename Traits::Profile;
  using Summary = typename Traits::Summary;
  using Cluster = typename Traits::Cluster;
  using Population = std::vector<std::pair<mobility::UserId, Profile>>;

  PopulationIndex() = default;
  explicit PopulationIndex(Traits traits) : traits_(std::move(traits)) {}
  PopulationIndex(const PopulationIndex&) = delete;
  PopulationIndex& operator=(const PopulationIndex&) = delete;

  /// Builds the index over `population`, which must outlive the index and
  /// keep its address (train() populates the vector first, then builds).
  /// Duplicate user ids keep their first occurrence, matching the linear
  /// scans' first-match owner lookup.
  void build(const Population& population) {
    population_ = &population;
    summaries_.clear();
    summaries_.reserve(population.size());
    for (const auto& [user, profile] : population) {
      summaries_.push_back(traits_.summarize(profile));
    }
    owner_index_ = first_occurrences(population);
    clusters_.clear();
    for (std::size_t begin = 0; begin < summaries_.size();
         begin += kIndexClusterSize) {
      clusters_.push_back(traits_.aggregate(
          summaries_, begin,
          std::min(begin + kIndexClusterSize, summaries_.size())));
    }
    counters_.count_build();
  }

  /// True once build() has run.
  [[nodiscard]] bool built() const { return population_ != nullptr; }

  [[nodiscard]] std::size_t size() const { return summaries_.size(); }

  /// scan_argmin through the index: first user attaining the minimum
  /// finite distance, nullopt when every distance is infinite. `bounded`
  /// follows the bounded-distance contract of bounded_scan.h. The query
  /// profile is summarized only when the summaries are consulted, never
  /// for a delegated query.
  template <typename BoundedDistance>
  [[nodiscard]] std::optional<mobility::UserId> argmin(
      const Profile& query, const BoundedDistance& bounded) const {
    const Population& population = *population_;
    std::uint64_t pruned = 0;
    std::uint64_t evals = 0;
    if (population.size() < kIndexMinPopulation) {
      auto answer = scan_argmin(population, counting(bounded, evals));
      counters_.count_query(0, evals);
      return answer;
    }
    const Summary summary = traits_.summarize(query);
    double best = std::numeric_limits<double>::infinity();
    const mobility::UserId* best_user = nullptr;
    std::size_t i = 0;
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
      const std::size_t end =
          std::min(i + kIndexClusterSize, summaries_.size());
      if (traits_.cluster_lower_bound(summary, clusters_[c]) > best) {
        pruned += end - i;
        i = end;
        continue;
      }
      for (; i < end; ++i) {
        if (traits_.lower_bound(summary, summaries_[i]) > best) {
          ++pruned;
          continue;
        }
        ++evals;
        const double d = bounded(population[i].second, best);
        if (d < best) {
          best = d;
          best_user = &population[i].first;
        }
      }
    }
    counters_.count_query(pruned, evals);
    if (best_user == nullptr) return std::nullopt;
    return *best_user;
  }

  /// scan_is_first_argmin through the index: would the naive argmin
  /// answer exactly `owner`? Prices the owner once with `exact`, then
  /// walks the rest of the population with the owner's distance as the
  /// pruning bound — earlier users defeat on <=, later on <, exactly as
  /// the linear scan. Like argmin, summarizes the query only when the
  /// summaries are consulted.
  template <typename ExactDistance, typename BoundedDistance>
  [[nodiscard]] bool is_first_argmin(const Profile& query,
                                     const mobility::UserId& owner,
                                     const ExactDistance& exact,
                                     const BoundedDistance& bounded) const {
    const Population& population = *population_;
    const auto it = owner_index_.find(owner);
    if (it == owner_index_.end()) {
      counters_.count_query(0, 0);
      return false;
    }
    const std::size_t owner_at = it->second;
    std::uint64_t pruned = 0;
    std::uint64_t evals = 0;
    if (population.size() < kIndexMinPopulation) {
      const bool owns = scan_is_first_argmin_at(population, owner_at,
                                                counting(exact, evals),
                                                counting(bounded, evals));
      counters_.count_query(0, evals);
      return owns;
    }
    ++evals;
    const double target = exact(population[owner_at].second);
    if (target == std::numeric_limits<double>::infinity()) {
      counters_.count_query(pruned, evals);
      return false;
    }
    const Summary summary = traits_.summarize(query);
    // A candidate whose lower bound strictly exceeds the target can
    // neither tie (earlier) nor beat (later) the owner — skipping it
    // leaves the scan's verdict untouched.
    std::size_t i = 0;
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
      const std::size_t end =
          std::min(i + kIndexClusterSize, summaries_.size());
      if (traits_.cluster_lower_bound(summary, clusters_[c]) > target) {
        pruned += end - i - (owner_at >= i && owner_at < end ? 1 : 0);
        i = end;
        continue;
      }
      for (; i < end; ++i) {
        if (i == owner_at) continue;
        if (traits_.lower_bound(summary, summaries_[i]) > target) {
          ++pruned;
          continue;
        }
        ++evals;
        const double d = bounded(population[i].second, target);
        if (i < owner_at ? d <= target : d < target) {
          counters_.count_query(pruned, evals);
          return false;
        }
      }
    }
    counters_.count_query(pruned, evals);
    return true;
  }

  /// Cumulative work counters since construction.
  [[nodiscard]] IndexStats stats() const { return counters_.stats(); }

 private:
  Traits traits_{};
  const Population* population_ = nullptr;
  std::vector<Summary> summaries_;
  std::vector<Cluster> clusters_;
  std::unordered_map<mobility::UserId, std::size_t> owner_index_;
  IndexCounters counters_;
};

/// Aggregate ball over member balls: centred on the mean of the non-empty
/// members' centres, with radius covering every member ball. Empty
/// members have infinite exact distances, so a block prune never loses
/// them; an all-empty cluster bounds to +infinity, which prunes the block
/// under any finite bound (every member prices to infinity anyway) and
/// never prunes under an infinite bound (inf > inf is false), matching
/// the scans on all-empty populations.
struct BallClusterBound {
  profiles::ProfileBall ball;  ///< size = number of non-empty members

  template <typename Summaries, typename BallOf>
  static BallClusterBound aggregate(const Summaries& summaries,
                                    std::size_t begin, std::size_t end,
                                    const BallOf& ball_of) {
    BallClusterBound cluster;
    double lat = 0.0;
    double lon = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const profiles::ProfileBall& member = ball_of(summaries[i]);
      if (member.size == 0) continue;
      ++cluster.ball.size;
      lat += geo::rad_to_deg(member.center.lat_rad);
      lon += member.center.lon_deg;
    }
    if (cluster.ball.size == 0) return cluster;
    const double n = static_cast<double>(cluster.ball.size);
    cluster.ball.center = geo::trig_point(geo::GeoPoint{lat / n, lon / n});
    for (std::size_t i = begin; i < end; ++i) {
      const profiles::ProfileBall& member = ball_of(summaries[i]);
      if (member.size == 0) continue;
      cluster.ball.radius_m = std::max(
          cluster.ball.radius_m,
          geo::haversine_m(cluster.ball.center, member.center) +
              member.radius_m);
    }
    return cluster;
  }
};

/// POI-attack traits: mean nearest-POI distance over covering balls.
struct PoiIndexTraits {
  using Profile = profiles::CompiledPoiProfile;
  using Summary = profiles::PoiSummary;
  using Cluster = BallClusterBound;

  Summary summarize(const Profile& profile) const {
    return profiles::summarize(profile);
  }
  double lower_bound(const Summary& query, const Summary& entry) const {
    return profiles::poi_profile_lower_bound(query, entry);
  }
  Cluster aggregate(const std::vector<Summary>& summaries, std::size_t begin,
                    std::size_t end) const {
    return BallClusterBound::aggregate(
        summaries, begin, end,
        [](const Summary& s) -> const profiles::ProfileBall& {
          return s.ball;
        });
  }
  double cluster_lower_bound(const Summary& query,
                             const Cluster& cluster) const {
    // The cluster ball covers every member's ball, so the per-POI mean
    // separation against it lower-bounds the exact distance to every
    // member (same argument as poi_profile_lower_bound).
    if (cluster.ball.size == 0 || query.ball.size == 0) {
      return std::numeric_limits<double>::infinity();
    }
    double sum = 0.0;
    for (const auto& p : query.centers) {
      sum += profiles::point_ball_separation_m(p, cluster.ball);
    }
    return sum / static_cast<double>(query.centers.size());
  }
};

/// PIT-attack traits: stats-prox distance. The block bound keeps only the
/// geometric (proximity) part — the stationary part needs per-entry
/// weights, which the per-profile bound adds back. The cluster tracks the
/// smallest member chain size so the weighted proximity bound stays
/// admissible for every member (fewer candidate states can only shrink
/// the matched mass).
struct PitIndexTraits {
  using Profile = profiles::CompiledMarkovProfile;
  using Summary = profiles::MarkovSummary;
  struct Cluster {
    BallClusterBound bound;
    std::size_t min_states = 0;  ///< over non-empty members
  };

  double proximity_scale_m = 1000.0;

  Summary summarize(const Profile& profile) const {
    return profiles::summarize(profile);
  }
  double lower_bound(const Summary& query, const Summary& entry) const {
    return profiles::stats_prox_lower_bound(query, entry, proximity_scale_m);
  }
  Cluster aggregate(const std::vector<Summary>& summaries, std::size_t begin,
                    std::size_t end) const {
    Cluster cluster;
    cluster.bound = BallClusterBound::aggregate(
        summaries, begin, end,
        [](const Summary& s) -> const profiles::ProfileBall& {
          return s.ball;
        });
    cluster.min_states = std::numeric_limits<std::size_t>::max();
    for (std::size_t i = begin; i < end; ++i) {
      if (summaries[i].ball.size == 0) continue;
      cluster.min_states = std::min(cluster.min_states, summaries[i].ball.size);
    }
    if (cluster.bound.ball.size == 0) cluster.min_states = 0;
    return cluster;
  }
  double cluster_lower_bound(const Summary& query,
                             const Cluster& cluster) const {
    if (cluster.bound.ball.size == 0 || query.ball.size == 0) {
      return std::numeric_limits<double>::infinity();
    }
    // The aggregate ball covers every member's states, so it acts as a
    // single-part cover for the shared proximity bound.
    return profiles::stats_prox_proximity_lower_bound(
        query, profiles::BallCover{cluster.bound.ball, profiles::ProfileBall{}},
        cluster.min_states, proximity_scale_m);
  }
};

}  // namespace mood::attacks
