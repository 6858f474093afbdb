#pragma once

/// \file summaries.h
/// Admissible divergence lower bounds — the pruning arithmetic behind the
/// AP attack's posting index and HMC's donor scan.
///
/// A bound lets a scan skip a candidate whenever it already exceeds the
/// scan's current pruning bound, and the survivors are priced with the
/// exact bounded divergences — so decisions stay bit-identical to the
/// plain scans. The Topsoe bound reads one number, the heatmaps' affinity,
/// which the AP attack's posting index sums for the whole population in
/// one pass (ap_attack.h).
///
/// ## Admissibility contract
///
/// For compiled heatmaps A and B, and BC(A, B) their affinity (below):
///
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
/// tied heatmaps (the chord's by geo_test over every pair of cell centres
/// on grids at several latitudes). An empty heatmap has no affinity to
/// bound; the AP index marks its empty entries +infinity, admissible
/// because the exact divergence against an empty heatmap is itself
/// +infinity.
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

#include <algorithm>
#include <numbers>

namespace mood::profiles {

/// Floating-point safety margins applied when deflating a computed lower
/// bound so that it stays below the *computed* exact value (see the
/// admissibility contract above). Relative margin on every bound, plus an
/// absolute floor per unit system.
inline constexpr double kLowerBoundRelMargin = 1e-9;
inline constexpr double kTopsoeAbsMargin = 1e-9;  ///< divergence slack (nats)
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

}  // namespace mood::profiles
