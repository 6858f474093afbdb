#include "metrics/distortion.h"

#include <algorithm>

#include "geo/geo.h"
#include "support/error.h"

namespace mood::metrics {

namespace {

/// Interpolated position at `t` between the bracketing records, where `hi`
/// is the first record with time >= t and `lo` its predecessor.
geo::GeoPoint interpolate(const mobility::Record& lo,
                          const mobility::Record& hi, mobility::Timestamp t) {
  if (hi.time == lo.time) return lo.position;
  const double ratio = static_cast<double>(t - lo.time) /
                       static_cast<double>(hi.time - lo.time);
  return geo::GeoPoint{
      lo.position.lat + ratio * (hi.position.lat - lo.position.lat),
      lo.position.lon + ratio * (hi.position.lon - lo.position.lon)};
}

}  // namespace

geo::GeoPoint temporal_projection(const mobility::Trace& original,
                                  mobility::Timestamp t) {
  support::expects(!original.empty(),
                   "temporal_projection: original trace is empty");
  const auto& records = original.records();
  if (t <= records.front().time) return records.front().position;
  if (t >= records.back().time) return records.back().position;

  // First record with time >= t; its predecessor brackets t from below.
  const auto hi = std::lower_bound(
      records.begin(), records.end(), t,
      [](const mobility::Record& r, mobility::Timestamp v) {
        return r.time < v;
      });
  return interpolate(*(hi - 1), *hi, t);
}

double spatial_temporal_distortion(const mobility::Trace& original,
                                   const mobility::Trace& protected_trace) {
  support::expects(!original.empty(),
                   "spatial_temporal_distortion: original trace is empty");
  if (protected_trace.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  // temporal_projection for every protected record, without its binary
  // search: protected records are time-sorted (Trace invariant), so the
  // first original record with time >= t only moves forward. The projected
  // point depends on t alone, so its trigonometry is taken once per
  // distinct protected timestamp (TRL publishes 3 records per timestamp);
  // haversine_m over TrigPoints is bit-identical to the GeoPoint form.
  const auto& records = original.records();
  const auto& first = records.front();
  const auto& last = records.back();
  std::size_t hi = 0;
  double total = 0.0;
  const auto& published = protected_trace.records();
  mobility::Timestamp projected_time = published.front().time;
  geo::TrigPoint projected;
  for (std::size_t i = 0; i < published.size(); ++i) {
    const mobility::Timestamp t = published[i].time;
    if (i == 0 || t != projected_time) {
      geo::GeoPoint point;
      if (t <= first.time) {
        point = first.position;
      } else if (t >= last.time) {
        point = last.position;
      } else {
        while (records[hi].time < t) ++hi;
        point = interpolate(records[hi - 1], records[hi], t);
      }
      projected = geo::trig_point(point);
      projected_time = t;
    }
    total += geo::haversine_m(geo::trig_point(published[i].position),
                              projected);
  }
  return total / static_cast<double>(protected_trace.size());
}

DistortionBand distortion_band(double distortion_m) {
  if (distortion_m < 500.0) return DistortionBand::kLow;
  if (distortion_m < 1000.0) return DistortionBand::kMedium;
  if (distortion_m < 5000.0) return DistortionBand::kHigh;
  return DistortionBand::kExtremelyHigh;
}

std::string to_string(DistortionBand band) {
  switch (band) {
    case DistortionBand::kLow: return "low(<500m)";
    case DistortionBand::kMedium: return "medium(<1000m)";
    case DistortionBand::kHigh: return "high(<5000m)";
    case DistortionBand::kExtremelyHigh: return "extreme(>=5000m)";
  }
  return "?";
}

}  // namespace mood::metrics
