#include "lppm/trilateration.h"

#include <cmath>

#include "geo/geo.h"
#include "support/error.h"

namespace mood::lppm {

Trilateration::Trilateration(double radius_m, int dummies,
                             double inner_fraction)
    : radius_m_(radius_m),
      dummies_(dummies),
      inner_fraction_(inner_fraction) {
  support::expects(radius_m > 0.0, "TRL: radius must be positive");
  support::expects(dummies >= 1, "TRL: need at least one assisted location");
  support::expects(inner_fraction >= 0.0 && inner_fraction < 1.0,
                   "TRL: inner_fraction must be in [0, 1)");
}

mobility::Trace Trilateration::apply(const mobility::Trace& trace,
                                     support::RngStream rng) const {
  std::vector<mobility::Record> out;
  out.reserve(trace.size() * static_cast<std::size_t>(dummies_));
  // Uniform density over the annulus area: invert the CDF of r^2.
  const double inner2 = inner_fraction_ * inner_fraction_;
  for (const auto& record : trace.records()) {
    // One pole check and one cos(lat) per origin, shared by its dummies:
    // each hop is geo::destination's own expression.
    const geo::DestinationFrame frame = geo::destination_frame(record.position);
    for (int d = 0; d < dummies_; ++d) {
      const double bearing = rng.uniform(0.0, 2.0 * geo::kPi);
      const double u = rng.uniform();
      const double distance =
          radius_m_ * std::sqrt(inner2 + (1.0 - inner2) * u);
      out.push_back(mobility::Record{
          geo::destination(frame, bearing, distance), record.time});
    }
  }
  return mobility::Trace(trace.user(), std::move(out));
}

}  // namespace mood::lppm
