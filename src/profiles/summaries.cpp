#include "profiles/summaries.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mood::profiles {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Covering ball of a set of cached points: centroid + max haversine
/// radius. The centroid choice only affects bound tightness, never
/// admissibility — the radius is measured from whatever centre we pick.
ProfileBall ball_of(const std::vector<geo::TrigPoint>& points) {
  ProfileBall ball;
  ball.size = points.size();
  if (points.empty()) return ball;
  std::vector<geo::GeoPoint> raw;
  raw.reserve(points.size());
  for (const auto& p : points) {
    raw.push_back(geo::GeoPoint{geo::rad_to_deg(p.lat_rad), p.lon_deg});
  }
  ball.center = geo::trig_point(geo::centroid(raw));
  for (const auto& p : points) {
    ball.radius_m = std::max(ball.radius_m, geo::haversine_m(ball.center, p));
  }
  return ball;
}

/// Two-ball cover of a set of cached points (see BallCover in the
/// header): seeds are the point farthest from the covering ball's centre
/// and the point farthest from that seed (first index wins ties, so the
/// split is deterministic); every point joins the nearer seed's part.
BallCover cover_of(const std::vector<geo::TrigPoint>& points,
                   const ProfileBall& ball) {
  BallCover cover{};
  if (points.size() < 2) {
    cover[0] = ball;
    return cover;
  }
  std::size_t seed_a = 0;
  double best = -1.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double d = geo::haversine_m(ball.center, points[i]);
    if (d > best) {
      best = d;
      seed_a = i;
    }
  }
  std::size_t seed_b = 0;
  best = -1.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double d = geo::haversine_m(points[seed_a], points[i]);
    if (d > best) {
      best = d;
      seed_b = i;
    }
  }
  std::vector<geo::TrigPoint> part_a;
  std::vector<geo::TrigPoint> part_b;
  for (const auto& p : points) {
    if (geo::haversine_m(points[seed_a], p) <=
        geo::haversine_m(points[seed_b], p)) {
      part_a.push_back(p);
    } else {
      part_b.push_back(p);
    }
  }
  cover[0] = ball_of(part_a);
  cover[1] = ball_of(part_b);
  return cover;
}

}  // namespace

double ball_separation_m(const ProfileBall& a, const ProfileBall& b) {
  if (a.size == 0 || b.size == 0) return 0.0;
  const double d = geo::haversine_m(a.center, b.center);
  const double slack =
      kLowerBoundRelMargin * (d + a.radius_m + b.radius_m) + kBallAbsMarginM;
  return std::max(0.0, d - a.radius_m - b.radius_m - slack);
}

double point_ball_separation_m(const geo::TrigPoint& p,
                               const ProfileBall& ball) {
  if (ball.size == 0) return 0.0;
  const double d = geo::haversine_m(p, ball.center);
  const double slack =
      kLowerBoundRelMargin * (d + ball.radius_m) + kBallAbsMarginM;
  return std::max(0.0, d - ball.radius_m - slack);
}

double point_cover_separation_m(const geo::TrigPoint& p,
                                const BallCover& cover) {
  if (cover[0].size == 0 && cover[1].size == 0) return 0.0;
  double sep = kInf;
  for (const auto& part : cover) {
    if (part.size == 0) continue;
    sep = std::min(sep, point_ball_separation_m(p, part));
  }
  return sep;
}

PoiSummary summarize(const CompiledPoiProfile& profile) {
  PoiSummary summary;
  summary.ball = ball_of(profile.centers());
  summary.cover = cover_of(profile.centers(), summary.ball);
  summary.centers = profile.centers();
  return summary;
}

double poi_profile_lower_bound(const PoiSummary& a, const PoiSummary& b) {
  if (a.ball.size == 0 || b.ball.size == 0) return kInf;
  // With `a` the query: the nearest-POI term for query POI p is a cross
  // distance to a point inside one of b's cover balls, so it is at least
  // the (deflated) point-cover separation — and the exact distance, a
  // mean of those terms over the same denominator, is at least the mean
  // of the separations.
  double sum = 0.0;
  for (const auto& p : a.centers) {
    sum += point_cover_separation_m(p, b.cover);
  }
  return sum / static_cast<double>(a.centers.size());
}

MarkovSummary summarize(const CompiledMarkovProfile& profile) {
  MarkovSummary summary;
  std::vector<geo::TrigPoint> centers;
  centers.reserve(profile.states().size());
  summary.weights.reserve(profile.states().size());
  for (const auto& state : profile.states()) {
    centers.push_back(state.center);
    summary.weights.push_back(state.weight);
  }
  summary.ball = ball_of(centers);
  summary.cover = cover_of(centers, summary.ball);
  summary.centers = std::move(centers);
  std::vector<double> sorted = summary.weights;
  std::sort(sorted.begin(), sorted.end());
  summary.weight_prefix.resize(sorted.size() + 1, 0.0);
  for (std::size_t k = 0; k < sorted.size(); ++k) {
    summary.weight_prefix[k + 1] = summary.weight_prefix[k] + sorted[k];
  }
  return summary;
}

double stats_prox_proximity_lower_bound(const MarkovSummary& query,
                                        const BallCover& cover,
                                        std::size_t min_states,
                                        double proximity_scale_m) {
  if ((cover[0].size == 0 && cover[1].size == 0) || query.centers.empty()) {
    return 0.0;
  }
  // Every matched pair joins one query state to a state inside `cover`,
  // so its distance is at least that query state's point-cover separation
  // sep_i. Two admissible readings of the matched-mass-weighted mean:
  //  * it never drops below min_i sep_i;
  //  * each pair's mass is at least w_i / 2, the total matched mass is at
  //    most 1, and the matching covers min(|query|, |candidate|) query
  //    states — adversarially the ones with the *smallest* w_i * sep_i —
  //    so the mean is at least half the sum of the min_states smallest
  //    w_i * sep_i terms.
  // The second reading is what survives shared hotspot states: one
  // near-zero sep_i removes only its own mass instead of zeroing the
  // minimum.
  thread_local std::vector<double> mass_terms;
  mass_terms.clear();
  double min_separation = kInf;
  for (std::size_t i = 0; i < query.centers.size(); ++i) {
    const double sep = point_cover_separation_m(query.centers[i], cover);
    min_separation = std::min(min_separation, sep);
    mass_terms.push_back(query.weights[i] * sep);
  }
  const std::size_t matched = std::min(query.centers.size(), min_states);
  if (matched < mass_terms.size()) {
    std::nth_element(mass_terms.begin(),
                     mass_terms.begin() + static_cast<std::ptrdiff_t>(matched),
                     mass_terms.end());
  }
  double weighted = 0.0;
  for (std::size_t i = 0; i < matched; ++i) weighted += mass_terms[i];
  return std::max(min_separation, 0.5 * weighted) / proximity_scale_m;
}

double stats_prox_lower_bound(const MarkovSummary& a, const MarkovSummary& b,
                              double proximity_scale_m) {
  const std::size_t na = a.ball.size;
  const std::size_t nb = b.ball.size;
  if (na == 0 || nb == 0) return kInf;
  // Stationary part: the greedy matching pairs every state of the smaller
  // chain, leaving (larger - smaller) weights of the larger chain fully
  // unmatched — at best the smallest ones, mass U. The matched pairs'
  // |w_small - w_large| total at least |1 - (1 - U)| = U (each chain's
  // weights sum to 1), so stationary >= 2 U >= 2 * prefix[size diff].
  const auto& larger = na >= nb ? a : b;
  const std::size_t diff = na >= nb ? na - nb : nb - na;
  const double stationary =
      deflate_bound(2.0 * larger.weight_prefix[diff], kWeightAbsMargin);
  // All stationary weights are positive, so the matched mass never
  // vanishes and the proximity mean is well defined.
  return stationary +
         stats_prox_proximity_lower_bound(a, b.cover, nb, proximity_scale_m);
}

}  // namespace mood::profiles
