#pragma once

/// \file summaries.h
/// Cheap per-profile summaries and admissible divergence lower bounds —
/// the pruning arithmetic behind the attacks' population indexes and
/// HMC's donor scan.
///
/// A summary is a constant-size digest of a compiled profile that supports
/// a *lower bound* on the exact divergence to any other profile, computed
/// from the two digests alone (no touching the profiles). The index skips
/// a candidate whenever that bound already exceeds the scan's current
/// pruning bound, and prices the survivors with the exact bounded
/// divergences — so decisions stay bit-identical to the plain scans. The
/// Topsoe bound needs no digest: it reads one number, the heatmaps'
/// affinity, which the AP attack's posting index sums for the whole
/// population in one pass (ap_attack.h).
///
/// ## Admissibility contract
///
/// Every `*_lower_bound(...)` in this file guarantees, for compiled
/// profiles A and B, and BC(A, B) the heatmaps' affinity (below):
///
///     lower_bound(summarize(A), summarize(B)) <= exact_divergence(A, B)
///     topsoe_affinity_lower_bound(BC(A, B)) <= topsoe_divergence(A, B)
///
/// and, for HMC's donor scan (lppm/heatmap_confusion.h), for any two
/// points a and b (cell centres),
///
///     deflate_bound(geo::chord_m(unit_vector(a), unit_vector(b)),
///                   kBallAbsMarginM) <= geo::haversine_m(a, b)
///
/// as *computed* values (not just in real arithmetic): each bound is
/// deflated by a small relative + absolute safety margin chosen to
/// dominate the floating-point rounding of both sides, and the margins
/// are fuzzed by the index property tests over random and adversarially
/// tied profiles (the chord's by geo_test over every pair of cell centres
/// on grids at several latitudes). Empty profiles summarize to a
/// zero-size digest and bound to +infinity — admissible because the exact
/// divergence against an empty profile is itself +infinity (the AP index
/// marks its empty entries the same way).
///
/// The bounds never decide anything: tie-breaking (first strict minimum)
/// is delegated entirely to the exact divergences, so a looser-than-
/// necessary bound costs exact evaluations, never correctness.
///
/// ## The bounds
///
///  * Topsoe (AP-attack): with affinity BC = sum over shared cells of
///    sqrt(p) * sqrt(q) (the Bhattacharyya coefficient),
///        topsoe_affinity_lower_bound = 2 ln 2 (1 - BC)
///                                    = ln 2 * sum_c (sqrt p - sqrt q)^2
///                                   <= T(p, q).
///    Per cell, T_c = (p + q)(ln 2 - H(x)) with x = p / (p + q) and H the
///    binary entropy in nats. Topsoe's bound on it (F. Topsoe, JIPAM 2(2),
///    2001), H(x) <= ln 2 (4x(1 - x))^(1 / ln 4), and 4x(1 - x) <= 1 give
///    H(x) <= 2 ln 2 sqrt(x(1 - x)), which is T_c >= ln 2 (sqrt p -
///    sqrt q)^2. A cell in only one heatmap meets it with equality, so
///    disjoint supports bound to just below the 2 ln 2 ceiling, and the
///    relative margin keeps that below the computed ceiling. The rounding
///    of BC and of the exact sum is a few ulps per cell, which
///    kTopsoeAbsMargin dominates by orders of magnitude, near-identical
///    heatmaps included.
///  * Chord (HMC donor scan): the straight-line distance through the
///    sphere between two points, R |u_a - u_b| = 2R sin(t/2) for the
///    central angle t, never exceeds the arc R t. Per pair the two sides
///    agree to 1 - t^2 / 24 (about 1 - 7e-10 for adjacent 800 m cells),
///    and their rounding is a few ulps, which the margins dominate by
///    orders of magnitude at every separation (coincident cells give an
///    exact 0 on both sides).
///    HMC sums these per-rank terms, weighted by the same masses and in
///    the same order as its exact relocation cost, and IEEE products and
///    sums are monotone, so every partial bound stays below the matching
///    partial cost.
///  * POI distance: each POI set is summarized by a covering ball
///    (centroid + max haversine radius), a two-ball cover (the set split
///    around two well-separated seeds — so one downtown satellite POI
///    does not inflate a tight home-district ball into one that swallows
///    every query), plus its member centres. With `a` the query: every
///    nearest-POI term for query POI p joins p to a point inside one of
///    b's cover balls, so it is at least min over the cover of
///    D(p, center) - radius by the triangle inequality, and the exact
///    mean is at least the mean of those per-POI separations — markedly
///    tighter than plain ball-to-ball separation on both sides.
///  * stats-prox (PIT-attack): the stationary part is at least twice the
///    smallest achievable unmatched mass — the |size_a - size_b|
///    smallest weights of the larger chain (matched pairs contribute at
///    least the net mass they displace). The proximity part is a
///    matched-mass-weighted mean of cross distances, each pairing a
///    query state with a state inside b's ball, so with sep_i the
///    point-ball separation of query state i it is at least both
///      - min_i sep_i (weighted means never drop below the minimum), and
///      - half the sum of the min(size_a, size_b) smallest w_i * sep_i
///        terms: each matched pair's mass is at least w_a_i / 2, the
///        total matched mass is at most 1, and an adversarial matching
///        can at best leave the largest w_i * sep_i terms unmatched.
///    The bound takes the larger of the two, scaled by
///    proximity_scale_m. The second form is what keeps shared downtown
///    states from collapsing the bound: one near-zero sep_i only removes
///    its own mass, instead of zeroing the minimum.
///
/// The POI and stats-prox bounds are therefore *asymmetric*: the first
/// argument must be the query's summary (matching the asymmetric exact
/// distances, which the attacks always evaluate query-first).

#include <algorithm>
#include <array>
#include <cstddef>
#include <numbers>
#include <vector>

#include "geo/geo.h"
#include "profiles/markov_profile.h"
#include "profiles/poi_profile.h"

namespace mood::profiles {

/// Floating-point safety margins applied when deflating a computed lower
/// bound so that it stays below the *computed* exact divergence (see the
/// admissibility contract above). Relative margin on every bound, plus an
/// absolute floor per unit system.
inline constexpr double kLowerBoundRelMargin = 1e-9;
inline constexpr double kTopsoeAbsMargin = 1e-9;  ///< divergence slack (nats)
inline constexpr double kWeightAbsMargin = 1e-9;  ///< stationary-mass slack
inline constexpr double kBallAbsMarginM = 1e-6;   ///< metres slack

/// Deflates a non-negative bound by the relative margin plus an absolute
/// floor, clamping at zero — the computed result is then safely below the
/// computed exact value whenever the undeflated bound is below the true
/// one (see the admissibility contract above).
inline double deflate_bound(double bound, double abs_margin) {
  return std::max(0.0, bound * (1.0 - kLowerBoundRelMargin) - abs_margin);
}

/// Admissible lower bound on topsoe_divergence(a, b) of two non-empty
/// heatmaps from their affinity, the sum over shared cells of
/// sqrt(p) * sqrt(q) (see "The bounds" above). Inline: the AP
/// index applies it to every trained entry of every query.
inline double topsoe_affinity_lower_bound(double affinity) {
  return deflate_bound(2.0 * std::numbers::ln2 * (1.0 - affinity),
                       kTopsoeAbsMargin);
}

/// Covering ball of a point set: centroid + maximum haversine distance
/// from it to any member. Any cross distance between two sets is at least
/// haversine(center_a, center_b) - radius_a - radius_b.
struct ProfileBall {
  geo::TrigPoint center{};
  double radius_m = 0.0;
  std::size_t size = 0;  ///< 0 marks an empty profile (infinite distances)
};

/// Deflated ball-to-ball separation max(0, D - r_a - r_b - margins), in
/// metres. 0 when either ball is empty; callers handle the
/// empty => infinity case themselves.
double ball_separation_m(const ProfileBall& a, const ProfileBall& b);

/// Deflated point-to-ball separation max(0, D(p, center) - radius -
/// margins), in metres: a lower bound on the distance from `p` to any
/// point inside `ball` — the geometric core of the POI and stats-prox
/// bounds (also used against the index's cluster aggregates, whose balls
/// cover every member ball). 0 when the ball is empty.
double point_ball_separation_m(const geo::TrigPoint& p,
                               const ProfileBall& ball);

/// Two-ball cover of a point set: the points are partitioned around two
/// well-separated seeds (the point farthest from the centroid, then the
/// point farthest from that seed; each point joins the nearer seed) and
/// each part gets its own covering ball. [1] is empty for sets of size
/// < 2.
/// Every member point lies inside at least one part, so the distance
/// from any point p to any member is at least
/// min over non-empty parts of point_ball_separation_m(p, part).
using BallCover = std::array<ProfileBall, 2>;

/// Deflated separation of `p` from a two-ball cover: the minimum
/// point-ball separation over the non-empty parts. 0 when both parts are
/// empty.
double point_cover_separation_m(const geo::TrigPoint& p,
                                const BallCover& cover);

/// Digest of a CompiledPoiProfile: covering ball (the cluster aggregates
/// build on it), two-ball cover (the per-entry bound prunes with it),
/// plus the POI centres themselves (query-side, they drive the per-POI
/// mean bound; POI sets are small, so keeping them costs little).
struct PoiSummary {
  ProfileBall ball;
  BallCover cover;
  std::vector<geo::TrigPoint> centers;
};

PoiSummary summarize(const CompiledPoiProfile& profile);

/// Admissible lower bound on poi_profile_distance(a, b) (metres), with
/// `a` the query's summary (the exact distance is asymmetric: mean over
/// a's POIs of the nearest POI of b); +infinity when either profile is
/// empty.
double poi_profile_lower_bound(const PoiSummary& a, const PoiSummary& b);

/// Digest of a CompiledMarkovProfile: covering ball of the state centres,
/// the centres with their stationary weights (query-side, they drive the
/// per-state proximity bound), plus ascending prefix sums of the sorted
/// weights (weight_prefix[k] = sum of the k smallest weights), which
/// price the cheapest possible unmatched mass against a chain of any
/// other size.
struct MarkovSummary {
  ProfileBall ball;
  BallCover cover;
  std::vector<geo::TrigPoint> centers;
  std::vector<double> weights;        ///< aligned with centers
  std::vector<double> weight_prefix;  ///< size() + 1 entries, [0] = 0
};

MarkovSummary summarize(const CompiledMarkovProfile& profile);

/// Lower bound on the stats-prox *proximity part* (dimensionless) of
/// `query` against any chain with at least `min_states` states whose
/// centres all lie inside `cover` — shared by the per-entry bound (the
/// candidate's own two-ball cover) and the index's cluster bound (the
/// aggregate ball, passed as a single-part cover, covers every member).
/// 0 when the cover is empty.
double stats_prox_proximity_lower_bound(const MarkovSummary& query,
                                        const BallCover& cover,
                                        std::size_t min_states,
                                        double proximity_scale_m);

/// Admissible lower bound on stats_prox_distance(a, b,
/// proximity_scale_m), with `a` the query's summary; +infinity when
/// either chain is empty.
double stats_prox_lower_bound(const MarkovSummary& a, const MarkovSummary& b,
                              double proximity_scale_m);

}  // namespace mood::profiles
