#pragma once

/// \file distortion.h
/// Utility metrics: the Spatial-Temporal Distortion of paper Eq. 8 and the
/// distortion bands of Fig. 9.
///
/// STD(T, T') = (1/|T'|) * sum over x in T' of the distance between x and
/// its *temporal projection* into the original trace T — the interpolated
/// position the user actually occupied at x's timestamp. Lower is better.

#include <limits>
#include <string>

#include "mobility/trace.h"

namespace mood::metrics {

/// Position of the original trace at time `t`: linear interpolation between
/// the bracketing records; clamped to the first/last record outside the
/// covered span. Precondition: original non-empty.
geo::GeoPoint temporal_projection(const mobility::Trace& original,
                                  mobility::Timestamp t);

/// Spatial-Temporal Distortion in metres (Eq. 8). Returns +infinity when
/// `protected_trace` is empty (an empty output is useless, and selection
/// must never prefer it); throws PreconditionError if `original` is empty.
double spatial_temporal_distortion(const mobility::Trace& original,
                                   const mobility::Trace& protected_trace);

/// The four utility bands of Fig. 9.
enum class DistortionBand {
  kLow,            ///< < 500 m
  kMedium,         ///< [500 m, 1000 m)
  kHigh,           ///< [1000 m, 5000 m)
  kExtremelyHigh,  ///< >= 5000 m
};

/// Band containing a distortion value (metres).
DistortionBand distortion_band(double distortion_m);

/// Human-readable band label used by the Fig. 9 bench output.
std::string to_string(DistortionBand band);

/// A utility metric for Best-LPPM selection: lower value = better utility.
/// MooD is metric-agnostic (paper §3.5 takes M as an input); STD is the
/// one the evaluation uses.
class UtilityMetric {
 public:
  virtual ~UtilityMetric() = default;

  /// Distortion of `protected_trace` w.r.t. `original`; lower is better.
  /// Never NaN (+inf is allowed): MooD's search ranks candidates by it.
  [[nodiscard]] virtual double distortion(
      const mobility::Trace& original,
      const mobility::Trace& protected_trace) const = 0;

  /// Metric display name.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Eq. 8 as a UtilityMetric.
class SpatialTemporalDistortion final : public UtilityMetric {
 public:
  [[nodiscard]] double distortion(
      const mobility::Trace& original,
      const mobility::Trace& protected_trace) const override {
    return spatial_temporal_distortion(original, protected_trace);
  }
  [[nodiscard]] std::string name() const override { return "STD"; }
};

}  // namespace mood::metrics
