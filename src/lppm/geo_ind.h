#pragma once

/// \file geo_ind.h
/// Geo-indistinguishability [Andrés et al., CCS 2013]: the planar Laplace
/// mechanism. Every record is displaced independently by a random vector
/// whose direction is uniform and whose radius follows the polar Laplace
/// law with privacy parameter epsilon (pdf ∝ ε² r e^{-εr}); the radius is
/// sampled exactly via the Lambert W_{-1} inverse CDF. Lower ε = more noise
/// = stronger privacy. The paper fixes ε = 0.01 m⁻¹ ("medium privacy",
/// mean displacement 2/ε = 200 m).

#include <cstddef>
#include <string>

#include "lppm/lppm.h"

namespace mood::lppm {

class GeoIndistinguishability final : public Lppm {
 public:
  /// Records apply() draws noise for, then sizes (W_{-1} over the block's
  /// interleaved lanes), then hops, together.
  static constexpr std::size_t kBlock = 64;

  /// Precondition: epsilon_per_m > 0.
  explicit GeoIndistinguishability(double epsilon_per_m = 0.01);

  [[nodiscard]] std::string name() const override { return "GeoI"; }

  /// Hops every record by its own (bearing, radius) draw. Block by block,
  /// it draws bearing then p for each record in trace order, evaluates
  /// W_{-1} over the block, then hops each record: the bits of drawing
  /// uniform(0, 2π), then sample_radius_m, then geo::destination per
  /// record.
  [[nodiscard]] mobility::Trace apply(const mobility::Trace& trace,
                                      support::RngStream rng) const override;

  [[nodiscard]] double epsilon() const { return epsilon_per_m_; }

  /// Draws one radius from the polar Laplace law (exposed for testing the
  /// sampler's distribution against the analytic CDF).
  [[nodiscard]] double sample_radius_m(support::RngStream& rng) const;

 private:
  double epsilon_per_m_;
};

}  // namespace mood::lppm
