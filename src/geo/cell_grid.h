#pragma once

/// \file cell_grid.h
/// A uniform square grid over a local projection.
///
/// Heatmap profiles (AP-attack, HMC) and the POI clustering index both
/// discretise space into fixed-size square cells. The grid is anchored at
/// the projection origin so that every module using the same projection and
/// cell size sees identical cell boundaries — a requirement for comparing
/// heatmaps across users.

#include <cstdint>
#include <functional>

#include "geo/geo.h"

namespace mood::geo {

/// Integer index of a grid cell (can be negative: cells west/south of the
/// projection origin).
struct CellIndex {
  std::int32_t ix = 0;
  std::int32_t iy = 0;

  friend bool operator==(const CellIndex&, const CellIndex&) = default;
  friend auto operator<=>(const CellIndex&, const CellIndex&) = default;
};

/// Hash functor so CellIndex can key unordered containers.
struct CellIndexHash {
  std::size_t operator()(const CellIndex& c) const noexcept {
    // Szudzik-style mix of the two 32-bit lanes.
    const std::uint64_t a = static_cast<std::uint32_t>(c.ix);
    const std::uint64_t b = static_cast<std::uint32_t>(c.iy);
    std::uint64_t h = (a << 32) | b;
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
  }
};

/// Square grid of `cell_size_m`-metre cells over a LocalProjection.
class CellGrid {
 public:
  /// Precondition: cell_size_m > 0.
  CellGrid(LocalProjection projection, double cell_size_m);

  /// Cell containing a geographic point.
  [[nodiscard]] CellIndex cell_of(const GeoPoint& p) const;

  /// Cell containing a local point.
  [[nodiscard]] CellIndex cell_of(const EnuPoint& p) const;

  /// Geographic centre of a cell.
  [[nodiscard]] GeoPoint cell_center(const CellIndex& c) const;

  /// Offset of a geographic point inside its cell, in metres from the cell's
  /// south-west corner; both components lie in [0, cell_size_m).
  [[nodiscard]] EnuPoint offset_within_cell(const GeoPoint& p) const;

  /// The same offset of an already projected point: a caller that needs
  /// both cell_of(local) and the offset projects once.
  [[nodiscard]] EnuPoint offset_within_cell(const EnuPoint& local) const;

  /// Geographic point at a given in-cell offset (inverse of the above).
  [[nodiscard]] GeoPoint point_in_cell(const CellIndex& c,
                                       const EnuPoint& offset) const;

  [[nodiscard]] double cell_size_m() const { return cell_size_m_; }
  [[nodiscard]] const LocalProjection& projection() const {
    return projection_;
  }

  friend bool operator==(const CellGrid&, const CellGrid&) = default;

 private:
  LocalProjection projection_;
  double cell_size_m_;
};

}  // namespace mood::geo
