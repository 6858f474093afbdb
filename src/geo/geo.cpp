#include "geo/geo.h"

#include <algorithm>
#include <cmath>

#include "support/error.h"

namespace mood::geo {

double haversine_m(const GeoPoint& a, const GeoPoint& b) {
  const double lat1 = deg_to_rad(a.lat);
  const double lat2 = deg_to_rad(b.lat);
  const double dlat = lat2 - lat1;
  const double dlon = deg_to_rad(b.lon - a.lon);
  const double sin_dlat = std::sin(dlat / 2.0);
  const double sin_dlon = std::sin(dlon / 2.0);
  const double h = sin_dlat * sin_dlat +
                   std::cos(lat1) * std::cos(lat2) * sin_dlon * sin_dlon;
  return 2.0 * kEarthRadiusM * std::asin(std::min(1.0, std::sqrt(h)));
}

double haversine_m(const TrigPoint& a, const TrigPoint& b) {
  // Mirrors haversine_m(GeoPoint, GeoPoint) operation for operation; only
  // deg_to_rad(lat) and cos(lat) come precomputed, which cannot change the
  // rounding of any intermediate.
  const double dlat = b.lat_rad - a.lat_rad;
  const double dlon = deg_to_rad(b.lon_deg - a.lon_deg);
  const double sin_dlat = std::sin(dlat / 2.0);
  const double sin_dlon = std::sin(dlon / 2.0);
  const double h = sin_dlat * sin_dlat +
                   a.cos_lat * b.cos_lat * sin_dlon * sin_dlon;
  return 2.0 * kEarthRadiusM * std::asin(std::min(1.0, std::sqrt(h)));
}

UnitVector unit_vector(const TrigPoint& p) {
  const double lon_rad = deg_to_rad(p.lon_deg);
  return UnitVector{p.cos_lat * std::cos(lon_rad),
                    p.cos_lat * std::sin(lon_rad), std::sin(p.lat_rad)};
}

double euclidean_m(const EnuPoint& a, const EnuPoint& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

LocalProjection::LocalProjection(const GeoPoint& reference)
    : reference_(reference),
      cos_ref_lat_(std::cos(deg_to_rad(reference.lat))) {
  support::expects(std::abs(reference.lat) < 89.0,
                   "LocalProjection: reference too close to a pole");
}

void BoundingBox::extend(const GeoPoint& p) {
  if (!initialized_) {
    min_lat_ = max_lat_ = p.lat;
    min_lon_ = max_lon_ = p.lon;
    initialized_ = true;
    return;
  }
  min_lat_ = std::min(min_lat_, p.lat);
  max_lat_ = std::max(max_lat_, p.lat);
  min_lon_ = std::min(min_lon_, p.lon);
  max_lon_ = std::max(max_lon_, p.lon);
}

bool BoundingBox::contains(const GeoPoint& p) const {
  return initialized_ && p.lat >= min_lat_ && p.lat <= max_lat_ &&
         p.lon >= min_lon_ && p.lon <= max_lon_;
}

GeoPoint BoundingBox::center() const {
  support::expects(initialized_, "BoundingBox::center on empty box");
  return GeoPoint{(min_lat_ + max_lat_) / 2.0, (min_lon_ + max_lon_) / 2.0};
}

double BoundingBox::diagonal_m() const {
  if (!initialized_) return 0.0;
  return haversine_m(GeoPoint{min_lat_, min_lon_},
                     GeoPoint{max_lat_, max_lon_});
}

GeoPoint centroid(const std::vector<GeoPoint>& points) {
  support::expects(!points.empty(), "centroid of empty point set");
  double lat = 0.0, lon = 0.0;
  for (const auto& p : points) {
    lat += p.lat;
    lon += p.lon;
  }
  const double n = static_cast<double>(points.size());
  return GeoPoint{lat / n, lon / n};
}

}  // namespace mood::geo
