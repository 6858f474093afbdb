#include "lppm/geo_ind.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "geo/geo.h"
#include "support/error.h"
#include "support/math.h"

namespace mood::lppm {

GeoIndistinguishability::GeoIndistinguishability(double epsilon_per_m)
    : epsilon_per_m_(epsilon_per_m) {
  support::expects(epsilon_per_m > 0.0, "GeoI: epsilon must be positive");
}

namespace {

/// The W_{-1} argument (p - 1)/e of the inverse CDF for a draw p ~ U[0, 1),
/// with p clamped away from 1 to keep it inside (-1/e, 0).
double lambert_argument(double p) {
  if (p > 1.0 - 1e-12) p = 1.0 - 1e-12;
  return (p - 1.0) / std::exp(1.0);
}

/// The radius -(W_{-1} + 1)/ε for w = W_{-1} of that argument.
double radius_m(double w, double epsilon_per_m) {
  return -(w + 1.0) / epsilon_per_m;
}

}  // namespace

double GeoIndistinguishability::sample_radius_m(support::RngStream& rng) const {
  // Inverse CDF of the polar Laplace radius (Andrés et al., Thm. 4.3):
  //   r = -(1/ε) (W_{-1}((p - 1)/e) + 1),  p ~ U[0, 1).
  return radius_m(support::lambert_w_minus1(lambert_argument(rng.uniform())),
                  epsilon_per_m_);
}

mobility::Trace GeoIndistinguishability::apply(const mobility::Trace& trace,
                                               support::RngStream rng) const {
  // Per block: the draws in the per-record order (bearing, then p, record
  // by record), W_{-1} over the block, then each record's hop. Records are
  // independent, so each gets the radius sample_radius_m would draw.
  const auto& records = trace.records();
  std::vector<mobility::Record> out;
  out.reserve(records.size());
  double bearing[kBlock];
  double argument[kBlock];
  double w[kBlock];
  for (std::size_t begin = 0; begin < records.size(); begin += kBlock) {
    const std::size_t n = std::min(kBlock, records.size() - begin);
    for (std::size_t i = 0; i < n; ++i) {
      bearing[i] = rng.uniform(0.0, 2.0 * geo::kPi);
      argument[i] = lambert_argument(rng.uniform());
    }
    support::lambert_w_minus1(std::span<const double>(argument, n),
                              std::span<double>(w, n));
    for (std::size_t i = 0; i < n; ++i) {
      const mobility::Record& record = records[begin + i];
      out.push_back(mobility::Record{
          geo::destination(record.position, bearing[i],
                           radius_m(w[i], epsilon_per_m_)),
          record.time});
    }
  }
  return mobility::Trace(trace.user(), std::move(out));
}

}  // namespace mood::lppm
