#pragma once

/// \file poi_profile.h
/// POI-based mobility profile (Fig. 1, left): a user's set of meaningful
/// places. Used by POI-attack [Primault et al. 2014] to match an anonymous
/// trace to a known user by geographic proximity of their POIs.

#include <cstdint>
#include <vector>

#include "clustering/poi_extraction.h"
#include "mobility/trace.h"

namespace mood::profiles {

/// A user's set of Points of Interest.
class PoiProfile {
 public:
  PoiProfile() = default;
  explicit PoiProfile(std::vector<clustering::Poi> pois)
      : pois_(std::move(pois)) {}

  /// Builds the profile by running POI extraction on a trace.
  static PoiProfile from_trace(const mobility::Trace& trace,
                               const clustering::PoiParams& params = {});

  [[nodiscard]] const std::vector<clustering::Poi>& pois() const {
    return pois_;
  }
  [[nodiscard]] bool empty() const { return pois_.empty(); }
  [[nodiscard]] std::size_t size() const { return pois_.size(); }

 private:
  std::vector<clustering::Poi> pois_;
};

/// Asymmetric POI-set distance: mean over POIs of `a` of the distance to the
/// closest POI of `b`, in metres. Infinity if either profile is empty (an
/// empty profile can never be re-identified nor re-identify anyone).
double poi_profile_distance(const PoiProfile& a, const PoiProfile& b);

/// Immutable flat form of a PoiProfile for the inference hot path: just the
/// POI centres with precomputed trigonometry — all the distance reads.
/// Anonymous traces compile through from_states (attacks::Candidate).
class CompiledPoiProfile {
 public:
  CompiledPoiProfile() = default;
  explicit CompiledPoiProfile(const PoiProfile& source);

  /// Compiles merged visit states (clustering::build_visit_sequence's
  /// states) directly — bit-identical to CompiledPoiProfile(PoiProfile(states)).
  static CompiledPoiProfile from_states(
      const std::vector<clustering::Poi>& states);

  [[nodiscard]] const std::vector<geo::TrigPoint>& centers() const {
    return centers_;
  }
  [[nodiscard]] bool empty() const { return centers_.empty(); }
  [[nodiscard]] std::size_t size() const { return centers_.size(); }

 private:
  std::vector<geo::TrigPoint> centers_;
};

/// POI-set distance over compiled profiles. Bit-identical to the legacy
/// overload (same loop order; cached trigonometry rounds identically).
double poi_profile_distance(const CompiledPoiProfile& a,
                            const CompiledPoiProfile& b);

/// Bounded POI-set distance: nearest-POI terms are non-negative, so once
/// the running total alone pushes the final mean past `bound` the scan
/// bails out and returns infinity. Otherwise returns the exact distance,
/// bit-identical to the unbounded overload.
double poi_profile_distance_bounded(const CompiledPoiProfile& a,
                                    const CompiledPoiProfile& b, double bound);

}  // namespace mood::profiles
