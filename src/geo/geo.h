#pragma once

/// \file geo.h
/// WGS-84 geodesy primitives: geographic points, great-circle and chord
/// distances, a local tangent-plane (ENU) projection, bearings and
/// bounding boxes.
///
/// Mobility records live in (latitude, longitude); all privacy mechanisms
/// and metrics reason in metres. City-scale experiments (< 100 km extents)
/// tolerate an equirectangular local projection: its distance error against
/// the haversine distance is well below GPS noise at these scales, and it
/// is cheap enough to call per record in the hot loops.
///
/// The per-record primitives (destination, LocalProjection::to_enu/to_geo)
/// are defined here, inline: LPPMs and heatmaps call them tens of millions
/// of times per gateway run, and a call into another translation unit
/// costs as much as their arithmetic. Callers that repeat one input hoist
/// its trigonometry instead of recomputing it: TRL's dummies share one
/// DestinationFrame, and the Eq. 8 distortion takes one TrigPoint per
/// distinct protected timestamp. Either way each value is the same
/// expression in the same order, so every result keeps its bits.

#include <cmath>
#include <cstddef>
#include <vector>

#include "support/error.h"

namespace mood::geo {

/// Mean Earth radius in metres (IUGG value used throughout the library).
inline constexpr double kEarthRadiusM = 6371000.0;

inline constexpr double kPi = 3.14159265358979323846;

/// Degrees -> radians.
constexpr double deg_to_rad(double deg) { return deg * kPi / 180.0; }

/// Radians -> degrees.
constexpr double rad_to_deg(double rad) { return rad * 180.0 / kPi; }

/// A geographic point in decimal degrees (WGS-84).
struct GeoPoint {
  double lat = 0.0;  ///< latitude in degrees, [-90, 90]
  double lon = 0.0;  ///< longitude in degrees, [-180, 180]

  friend bool operator==(const GeoPoint&, const GeoPoint&) = default;
};

/// A point in a local east/north tangent plane, metres from the origin.
struct EnuPoint {
  double x = 0.0;  ///< metres east of the projection origin
  double y = 0.0;  ///< metres north of the projection origin

  friend bool operator==(const EnuPoint&, const EnuPoint&) = default;
};

/// Great-circle (haversine) distance between two points, in metres.
double haversine_m(const GeoPoint& a, const GeoPoint& b);

/// A geographic point with its trigonometry precomputed for repeated
/// haversine evaluations (profile scans compare one query point against
/// whole populations). The longitude stays in degrees: haversine_m converts
/// the longitude *difference*, so a per-point radian longitude would change
/// the rounding — keeping degrees makes the cached form bit-identical.
struct TrigPoint {
  double lat_rad = 0.0;  ///< deg_to_rad(lat)
  double lon_deg = 0.0;  ///< longitude, degrees (as in GeoPoint)
  double cos_lat = 0.0;  ///< cos(lat_rad)
};

/// Precomputes the trigonometry of `p` for the haversine_m overload below.
inline TrigPoint trig_point(const GeoPoint& p) {
  const double lat_rad = deg_to_rad(p.lat);
  return TrigPoint{lat_rad, p.lon, std::cos(lat_rad)};
}

/// Haversine distance from cached trigonometry. Bit-identical to
/// haversine_m on the original GeoPoints — hot paths may mix both forms.
double haversine_m(const TrigPoint& a, const TrigPoint& b);

/// A point on the unit sphere (Earth-centred, Earth-fixed axes): the
/// cached form behind chord_m.
struct UnitVector {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;
};

/// The unit vector of `p`. Reuses p's lat_rad and cos_lat, so it costs
/// three trig calls (sin(lat), cos(lon), sin(lon)).
UnitVector unit_vector(const TrigPoint& p);

/// Straight-line (chord) distance through the sphere between two unit
/// vectors, in metres: kEarthRadiusM * |a - b|, formed from the
/// coordinate differences (2 - 2 a.b would cancel for close points). A
/// chord never exceeds its arc, 2R sin(t/2) <= R t, so
///     chord_m(unit_vector(a), unit_vector(b)) <= haversine_m(a, b)
/// in real arithmetic; the computed values differ from that by a few ulps
/// of rounding, which profiles::deflate_bound's margins dominate (HMC
/// prices donors against this bound before any haversine). Costs one
/// sqrt; inline, because HMC's donor scan calls it per (rank, donor).
inline double chord_m(const UnitVector& a, const UnitVector& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  const double dz = a.z - b.z;
  return kEarthRadiusM * std::sqrt(dx * dx + dy * dy + dz * dz);
}

/// Euclidean distance between two ENU points, in metres.
double euclidean_m(const EnuPoint& a, const EnuPoint& b);

/// The part of destination() that depends on the origin alone: callers
/// that hop from one origin several times (TRL's dummies) build it once.
struct DestinationFrame {
  GeoPoint origin;
  double east_radius_m = 0.0;  ///< kEarthRadiusM * cos(origin latitude)
};

/// The frame of `origin`. Throws PreconditionError within 1 degree of a
/// pole: the equirectangular approximation (and the 1/cos(lat) term)
/// degenerates there, so fail loudly instead of silently returning a
/// corrupted longitude.
inline DestinationFrame destination_frame(const GeoPoint& origin) {
  support::expects(std::abs(origin.lat) < 89.0,
                   "geo::destination: origin too close to a pole");
  const double cos_lat = std::cos(deg_to_rad(origin.lat));
  return DestinationFrame{origin, kEarthRadiusM * cos_lat};
}

/// destination() from a prebuilt frame: the same expressions, so the same
/// bits as destination(frame.origin, bearing_rad, distance_m).
inline GeoPoint destination(const DestinationFrame& frame, double bearing_rad,
                            double distance_m) {
  const double north_m = distance_m * std::cos(bearing_rad);
  const double east_m = distance_m * std::sin(bearing_rad);
  const double dlat = rad_to_deg(north_m / kEarthRadiusM);
  const double dlon = rad_to_deg(east_m / frame.east_radius_m);
  return GeoPoint{frame.origin.lat + dlat, frame.origin.lon + dlon};
}

/// The point reached from `origin` by travelling `distance_m` metres along
/// `bearing_rad` (0 = north, pi/2 = east). Small-displacement planar model,
/// accurate for the sub-10-km hops mobility simulation performs.
/// Precondition: |origin.lat| < 89 (see destination_frame).
inline GeoPoint destination(const GeoPoint& origin, double bearing_rad,
                            double distance_m) {
  return destination(destination_frame(origin), bearing_rad, distance_m);
}

/// Equirectangular projection centred on a reference point.
///
/// Value type; copying is free. All MooD modules that need metric geometry
/// (heatmap cells, POI clustering, Laplace noise) construct one projection
/// per dataset/city so cells align across users.
class LocalProjection {
 public:
  /// Creates a projection centred on `reference`.
  explicit LocalProjection(const GeoPoint& reference);

  /// Geographic -> local metres.
  [[nodiscard]] EnuPoint to_enu(const GeoPoint& p) const {
    return EnuPoint{
        kEarthRadiusM * deg_to_rad(p.lon - reference_.lon) * cos_ref_lat_,
        kEarthRadiusM * deg_to_rad(p.lat - reference_.lat)};
  }

  /// Local metres -> geographic.
  [[nodiscard]] GeoPoint to_geo(const EnuPoint& p) const {
    return GeoPoint{
        reference_.lat + rad_to_deg(p.y / kEarthRadiusM),
        reference_.lon + rad_to_deg(p.x / (kEarthRadiusM * cos_ref_lat_))};
  }

  /// The projection centre.
  [[nodiscard]] const GeoPoint& reference() const { return reference_; }

  friend bool operator==(const LocalProjection&,
                         const LocalProjection&) = default;

 private:
  GeoPoint reference_;
  double cos_ref_lat_;
};

/// Axis-aligned geographic bounding box, grown incrementally.
class BoundingBox {
 public:
  /// Extends the box to contain `p`.
  void extend(const GeoPoint& p);

  /// True if no point has been added yet.
  [[nodiscard]] bool empty() const { return !initialized_; }

  /// True if `p` lies inside (inclusive). An empty box contains nothing.
  [[nodiscard]] bool contains(const GeoPoint& p) const;

  /// Geometric centre. Precondition: !empty().
  [[nodiscard]] GeoPoint center() const;

  [[nodiscard]] double min_lat() const { return min_lat_; }
  [[nodiscard]] double max_lat() const { return max_lat_; }
  [[nodiscard]] double min_lon() const { return min_lon_; }
  [[nodiscard]] double max_lon() const { return max_lon_; }

  /// Diagonal extent in metres (0 for empty boxes).
  [[nodiscard]] double diagonal_m() const;

 private:
  bool initialized_ = false;
  double min_lat_ = 0.0, max_lat_ = 0.0;
  double min_lon_ = 0.0, max_lon_ = 0.0;
};

/// Centroid of a set of geographic points (arithmetic mean of coordinates —
/// adequate at city scale). Precondition: points non-empty.
GeoPoint centroid(const std::vector<GeoPoint>& points);

}  // namespace mood::geo
