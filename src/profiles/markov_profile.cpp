#include "profiles/markov_profile.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "geo/geo.h"
#include "support/error.h"

namespace mood::profiles {

MarkovProfile MarkovProfile::from_trace(const mobility::Trace& trace,
                                        const clustering::PoiParams& params) {
  MarkovProfile profile;
  const auto seq = clustering::build_visit_sequence(
      clustering::extract_pois(trace, params), params.max_diameter_m);
  if (seq.states.empty()) return profile;

  // Stationary weight = share of stay records spent in the state.
  std::size_t total_records = 0;
  for (const auto& s : seq.states) total_records += s.record_count;

  // Rank states by decreasing record count (paper: "states are POIs ordered
  // by the number of records inside them").
  std::vector<std::size_t> rank(seq.states.size());
  std::iota(rank.begin(), rank.end(), 0);
  std::stable_sort(rank.begin(), rank.end(), [&](std::size_t a, std::size_t b) {
    return seq.states[a].record_count > seq.states[b].record_count;
  });
  std::vector<std::size_t> rank_of(seq.states.size());
  for (std::size_t r = 0; r < rank.size(); ++r) rank_of[rank[r]] = r;

  profile.states_.reserve(seq.states.size());
  for (std::size_t r = 0; r < rank.size(); ++r) {
    const auto& poi = seq.states[rank[r]];
    profile.states_.push_back(MarkovState{
        poi.center, static_cast<double>(poi.record_count) /
                        static_cast<double>(total_records)});
  }

  // Count transitions along the chronological visit sequence.
  const std::size_t n = profile.states_.size();
  std::vector<double> counts(n * n, 0.0);
  for (std::size_t v = 0; v + 1 < seq.visits.size(); ++v) {
    const std::size_t from = rank_of[seq.visits[v]];
    const std::size_t to = rank_of[seq.visits[v + 1]];
    counts[from * n + to] += 1.0;
  }
  // Normalise rows; unseen rows become uniform.
  for (std::size_t i = 0; i < n; ++i) {
    const double row_sum = std::accumulate(counts.begin() + i * n,
                                           counts.begin() + (i + 1) * n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      counts[i * n + j] =
          row_sum > 0.0 ? counts[i * n + j] / row_sum : 1.0 / n;
    }
  }
  profile.transitions_ = std::move(counts);
  return profile;
}

double MarkovProfile::transition(std::size_t i, std::size_t j) const {
  support::expects(i < size() && j < size(),
                   "MarkovProfile::transition out of range");
  return transitions_[i * size() + j];
}

double stats_prox_distance(const MarkovProfile& a, const MarkovProfile& b,
                           double proximity_scale_m) {
  support::expects(proximity_scale_m > 0.0,
                   "stats_prox_distance: scale must be positive");
  if (a.empty() || b.empty()) {
    return std::numeric_limits<double>::infinity();
  }

  // Greedy geographic matching: each state of the smaller chain grabs the
  // closest unmatched state of the other chain.
  const bool a_smaller = a.size() <= b.size();
  const auto& small = a_smaller ? a.states() : b.states();
  const auto& large = a_smaller ? b.states() : a.states();
  std::vector<bool> taken(large.size(), false);

  double stationary = 0.0;
  double proximity = 0.0;
  double matched_mass = 0.0;
  for (const auto& s : small) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_j = large.size();
    for (std::size_t j = 0; j < large.size(); ++j) {
      if (taken[j]) continue;
      const double d = geo::haversine_m(s.center, large[j].center);
      if (d < best) {
        best = d;
        best_j = j;
      }
    }
    taken[best_j] = true;
    const double pair_mass = (s.weight + large[best_j].weight) / 2.0;
    stationary += std::abs(s.weight - large[best_j].weight);
    proximity += pair_mass * (best / proximity_scale_m);
    matched_mass += pair_mass;
  }
  // Unmatched states of the larger chain contribute their full weight to
  // the stationary part (they have no counterpart at all).
  for (std::size_t j = 0; j < large.size(); ++j) {
    if (!taken[j]) stationary += large[j].weight;
  }
  if (matched_mass > 0.0) proximity /= matched_mass;
  return stationary + proximity;
}

CompiledMarkovProfile::CompiledMarkovProfile(const MarkovProfile& source) {
  states_.reserve(source.size());
  for (const auto& state : source.states()) {
    states_.push_back(
        CompiledMarkovState{geo::trig_point(state.center), state.weight});
  }
}

CompiledMarkovProfile CompiledMarkovProfile::from_states(
    const std::vector<clustering::Poi>& states) {
  CompiledMarkovProfile profile;
  if (states.empty()) return profile;

  // Same ranking and weight arithmetic as MarkovProfile::from_trace, so
  // the compiled states are bit-identical to routing through the full
  // MarkovProfile (whose transition matrix the compiled form never reads).
  std::size_t total_records = 0;
  for (const auto& s : states) total_records += s.record_count;

  std::vector<std::size_t> rank(states.size());
  std::iota(rank.begin(), rank.end(), 0);
  std::stable_sort(rank.begin(), rank.end(),
                   [&](std::size_t a, std::size_t b) {
                     return states[a].record_count > states[b].record_count;
                   });

  profile.states_.reserve(states.size());
  for (std::size_t r = 0; r < rank.size(); ++r) {
    const auto& poi = states[rank[r]];
    profile.states_.push_back(CompiledMarkovState{
        geo::trig_point(poi.center),
        static_cast<double>(poi.record_count) /
            static_cast<double>(total_records)});
  }
  return profile;
}

double stats_prox_distance(const CompiledMarkovProfile& a,
                           const CompiledMarkovProfile& b,
                           double proximity_scale_m) {
  return stats_prox_distance_bounded(a, b, proximity_scale_m,
                                     std::numeric_limits<double>::infinity());
}

double stats_prox_distance_bounded(const CompiledMarkovProfile& a,
                                   const CompiledMarkovProfile& b,
                                   double proximity_scale_m, double bound) {
  support::expects(proximity_scale_m > 0.0,
                   "stats_prox_distance: scale must be positive");
  if (a.empty() || b.empty()) {
    return std::numeric_limits<double>::infinity();
  }

  // Same greedy matching as the legacy overload, with two differences: the
  // haversine runs on cached trigonometry, and the accumulated stationary
  // distance bails out once it alone exceeds `bound` (the proximity part
  // and every remaining term are non-negative, so the final distance could
  // only be larger).
  const bool a_smaller = a.size() <= b.size();
  const auto& small = a_smaller ? a.states() : b.states();
  const auto& large = a_smaller ? b.states() : a.states();
  std::vector<bool> taken(large.size(), false);

  double stationary = 0.0;
  double proximity = 0.0;
  double matched_mass = 0.0;
  for (const auto& s : small) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_j = large.size();
    for (std::size_t j = 0; j < large.size(); ++j) {
      if (taken[j]) continue;
      const double d = geo::haversine_m(s.center, large[j].center);
      if (d < best) {
        best = d;
        best_j = j;
      }
    }
    taken[best_j] = true;
    const double pair_mass = (s.weight + large[best_j].weight) / 2.0;
    stationary += std::abs(s.weight - large[best_j].weight);
    proximity += pair_mass * (best / proximity_scale_m);
    matched_mass += pair_mass;
    if (stationary > bound) {
      return std::numeric_limits<double>::infinity();
    }
  }
  for (std::size_t j = 0; j < large.size(); ++j) {
    if (!taken[j]) {
      stationary += large[j].weight;
      if (stationary > bound) {
        return std::numeric_limits<double>::infinity();
      }
    }
  }
  if (matched_mass > 0.0) proximity /= matched_mass;
  return stationary + proximity;
}

}  // namespace mood::profiles
