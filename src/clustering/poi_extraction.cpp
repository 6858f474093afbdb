#include "clustering/poi_extraction.h"

#include <cmath>

#include "support/error.h"

namespace mood::clustering {

using geo::EnuPoint;
using geo::GeoPoint;
using mobility::Record;
using mobility::Trace;

namespace {

/// The stay-membership predicate: is `b` within `radius` metres of the
/// anchor `a`? Screens with the squared planar distance and keeps the
/// exact euclidean_m comparison only for the razor-thin band around the
/// radius where the two roundings could disagree, so the decision — hence
/// every extracted POI — is bit-identical to the plain hypot comparison.
class RadiusScreen {
 public:
  explicit RadiusScreen(double radius_m)
      : radius_(radius_m),
        // The membership test is the hot loop of attack inference (every
        // profile build runs it once per record). euclidean_m's hypot call
        // dominates it, but the loop only needs the *comparison* — so
        // screen with the squared distance first and keep hypot for the
        // razor-thin band around the radius where the two roundings could
        // disagree. d2 carries at most a few ulp of relative error, so
        // outside +-1e-12 the squared comparison provably decides the same
        // way as hypot's, and the decision — hence every extracted POI —
        // stays bit-identical.
        r2_inside_(radius_m * radius_m * (1.0 - 1e-12)),
        r2_outside_(radius_m * radius_m * (1.0 + 1e-12)) {}

  [[nodiscard]] bool operator()(const EnuPoint& a, const EnuPoint& b) const {
    const double dx = a.x - b.x;
    const double dy = a.y - b.y;
    const double d2 = dx * dx + dy * dy;
    if (d2 <= r2_inside_) return true;
    if (d2 >= r2_outside_) return false;
    return geo::euclidean_m(a, b) <= radius_;
  }

 private:
  double radius_;
  double r2_inside_;
  double r2_outside_;
};

}  // namespace

std::vector<Poi> extract_pois(const Trace& trace, const PoiParams& params) {
  // Work in a local projection centred on the trace so member distances are
  // cheap planar distances.
  const geo::GeoPoint origin =
      trace.empty() ? geo::GeoPoint{} : trace.front().position;
  return extract_pois(trace, params, origin);
}

std::vector<Poi> extract_pois(const Trace& trace, const PoiParams& params,
                              const geo::GeoPoint& origin) {
  support::expects(params.max_diameter_m > 0.0,
                   "extract_pois: diameter must be positive");
  support::expects(params.min_dwell > 0, "extract_pois: dwell must be > 0");

  std::vector<Poi> pois;
  if (trace.empty()) return pois;

  const geo::LocalProjection projection(origin);
  const auto& records = trace.records();
  std::vector<EnuPoint> points;
  points.reserve(records.size());
  for (const Record& r : records) points.push_back(projection.to_enu(r.position));

  const RadiusScreen within_radius(params.max_diameter_m);
  std::size_t i = 0;
  while (i < records.size()) {
    // Extend the stay while records remain within `radius` of the anchor.
    std::size_t j = i;
    while (j + 1 < records.size() && within_radius(points[i], points[j + 1])) {
      ++j;
    }
    const mobility::Timestamp span = records[j].time - records[i].time;
    if (span >= params.min_dwell && j - i + 1 >= params.min_points) {
      Poi poi;
      double sx = 0.0, sy = 0.0;
      for (std::size_t k = i; k <= j; ++k) {
        sx += points[k].x;
        sy += points[k].y;
      }
      const double n = static_cast<double>(j - i + 1);
      poi.center = projection.to_geo(EnuPoint{sx / n, sy / n});
      poi.record_count = j - i + 1;
      poi.dwell = span;
      poi.start = records[i].time;
      poi.end = records[j].time;
      pois.push_back(poi);
      i = j + 1;
    } else {
      ++i;
    }
  }
  return pois;
}

PoiVisitSequence build_visit_sequence(const std::vector<Poi>& pois,
                                      double merge_distance_m) {
  support::expects(merge_distance_m >= 0.0,
                   "build_visit_sequence: distance must be >= 0");
  PoiVisitSequence seq;
  for (const Poi& poi : pois) {
    // Find an existing state within the merge distance.
    std::size_t state = seq.states.size();
    for (std::size_t s = 0; s < seq.states.size(); ++s) {
      if (geo::haversine_m(seq.states[s].center, poi.center) <=
          merge_distance_m) {
        state = s;
        break;
      }
    }
    if (state == seq.states.size()) {
      seq.states.push_back(poi);
    } else {
      // Merge: accumulate weight and dwell; keep the weighted centroid.
      Poi& existing = seq.states[state];
      const double w_old = static_cast<double>(existing.record_count);
      const double w_new = static_cast<double>(poi.record_count);
      const double total = w_old + w_new;
      existing.center.lat =
          (existing.center.lat * w_old + poi.center.lat * w_new) / total;
      existing.center.lon =
          (existing.center.lon * w_old + poi.center.lon * w_new) / total;
      existing.record_count += poi.record_count;
      existing.dwell += poi.dwell;
      existing.end = poi.end;
    }
    seq.visits.push_back(state);
  }
  return seq;
}

}  // namespace mood::clustering
