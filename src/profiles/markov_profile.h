#pragma once

/// \file markov_profile.h
/// Mobility Markov Chain profile (Fig. 1, middle) after Gambs et al.:
/// states are the user's POIs ranked by record count; edges carry the
/// empirical probability of moving from one POI to another. PIT-attack
/// compares MMCs with the stats-prox distance, a combination of a
/// stationary-weight distance and a geographic proximity distance over
/// matched states.

#include <cstdint>
#include <vector>

#include "clustering/poi_extraction.h"
#include "mobility/trace.h"

namespace mood::profiles {

/// One MMC state: a POI plus its stationary weight (share of the user's
/// records spent there).
struct MarkovState {
  geo::GeoPoint center;
  double weight = 0.0;  ///< stationary probability, sums to 1 over states
};

/// Mobility Markov Chain: ranked states + row-stochastic transition matrix.
class MarkovProfile {
 public:
  MarkovProfile() = default;

  /// Builds the MMC of a trace: POI extraction -> visit sequence -> counts.
  /// States are sorted by decreasing weight (the paper ranks by records).
  static MarkovProfile from_trace(const mobility::Trace& trace,
                                  const clustering::PoiParams& params = {});

  [[nodiscard]] const std::vector<MarkovState>& states() const {
    return states_;
  }
  [[nodiscard]] bool empty() const { return states_.empty(); }
  [[nodiscard]] std::size_t size() const { return states_.size(); }

  /// Transition probability from state i to state j. Rows with no observed
  /// transition are uniform. Precondition: i, j < size().
  [[nodiscard]] double transition(std::size_t i, std::size_t j) const;

 private:
  std::vector<MarkovState> states_;
  std::vector<double> transitions_;  // row-major size() x size()
};

/// stats-prox distance between two MMCs (Gambs et al. 2014): matched-state
/// stationary distance multiplied with a rank-weighted geographic proximity
/// distance (normalised by `proximity_scale_m`). Lower is more similar.
/// Infinite if either chain is empty.
///
/// - stationary part: sum over greedy rank-order matched state pairs of
///   |w_a - w_b|, plus the unmatched mass of the longer chain;
/// - proximity part: weighted mean geographic distance between matched
///   pairs (weights = mean matched stationary mass), in units of
///   `proximity_scale_m`.
/// stats_prox = stationary_part + proximity_part (both dimensionless,
/// so the sum is meaningful; the original paper reports this combined form
/// as its most effective variant).
double stats_prox_distance(const MarkovProfile& a, const MarkovProfile& b,
                           double proximity_scale_m = 1000.0);

/// One state of a compiled MMC: stationary weight plus the state centre
/// with its trigonometry precomputed for haversine evaluations.
struct CompiledMarkovState {
  geo::TrigPoint center;
  double weight = 0.0;
};

/// Immutable flat form of a MarkovProfile for the inference hot path. Only
/// what stats_prox_distance reads is kept: ranked states with precomputed
/// trigonometry (the transition matrix plays no role in the distance).
/// Sliding windows keep their stays in a clustering::TrackedVisitStates
/// and recompile through from_states.
class CompiledMarkovProfile {
 public:
  CompiledMarkovProfile() = default;
  explicit CompiledMarkovProfile(const MarkovProfile& source);

  /// Compiles merged visit states (clustering::VisitAccumulator output)
  /// directly: rank by decreasing record count, derive stationary weights.
  /// Bit-identical to CompiledMarkovProfile(MarkovProfile built from the
  /// same states).
  static CompiledMarkovProfile from_states(
      const std::vector<clustering::Poi>& states);

  [[nodiscard]] const std::vector<CompiledMarkovState>& states() const {
    return states_;
  }
  [[nodiscard]] bool empty() const { return states_.empty(); }
  [[nodiscard]] std::size_t size() const { return states_.size(); }

 private:
  std::vector<CompiledMarkovState> states_;
};

/// stats-prox over compiled chains. Bit-identical to the legacy overload:
/// same greedy matching, same accumulation order, and haversine from cached
/// trigonometry rounds identically (see geo::TrigPoint).
double stats_prox_distance(const CompiledMarkovProfile& a,
                           const CompiledMarkovProfile& b,
                           double proximity_scale_m = 1000.0);

/// Bounded stats-prox: the stationary part accumulates non-negative terms
/// and the proximity part is non-negative, so once the partial stationary
/// sum exceeds `bound` the final distance must too — bail out and return
/// infinity. Otherwise returns the exact distance, bit-identical to the
/// unbounded overload.
double stats_prox_distance_bounded(const CompiledMarkovProfile& a,
                                   const CompiledMarkovProfile& b,
                                   double proximity_scale_m, double bound);

}  // namespace mood::profiles
