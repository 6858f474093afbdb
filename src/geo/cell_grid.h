#pragma once

/// \file cell_grid.h
/// A uniform square grid over a local projection.
///
/// Heatmap profiles (AP-attack, HMC) and the POI clustering index both
/// discretise space into fixed-size square cells. The grid is anchored at
/// the projection origin so that every module using the same projection and
/// cell size sees identical cell boundaries — a requirement for comparing
/// heatmaps across users.

#include <cmath>
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
  [[nodiscard]] CellIndex cell_of(const GeoPoint& p) const {
    return cell_of(projection_.to_enu(p));
  }

  /// Cell containing a local point.
  [[nodiscard]] CellIndex cell_of(const EnuPoint& p) const {
    return CellIndex{
        static_cast<std::int32_t>(std::floor(p.x / cell_size_m_)),
        static_cast<std::int32_t>(std::floor(p.y / cell_size_m_))};
  }

  /// Geographic centre of a cell.
  [[nodiscard]] GeoPoint cell_center(const CellIndex& c) const {
    return projection_.to_geo(EnuPoint{(c.ix + 0.5) * cell_size_m_,
                                       (c.iy + 0.5) * cell_size_m_});
  }

  /// Offset of a geographic point inside its cell, in metres from the cell's
  /// south-west corner; both components lie in [0, cell_size_m).
  [[nodiscard]] EnuPoint offset_within_cell(const GeoPoint& p) const {
    const EnuPoint local = projection_.to_enu(p);
    return offset_from(cell_of(local), local);
  }

  /// Offset of a local point from the south-west corner of `cell`: the
  /// in-cell offset when `cell` is cell_of(local). A caller that needs
  /// both the cell and the offset projects and takes the cell once.
  [[nodiscard]] EnuPoint offset_from(const CellIndex& cell,
                                     const EnuPoint& local) const {
    return EnuPoint{local.x - cell.ix * cell_size_m_,
                    local.y - cell.iy * cell_size_m_};
  }

  /// Geographic point at a given in-cell offset (inverse of the above).
  [[nodiscard]] GeoPoint point_in_cell(const CellIndex& c,
                                       const EnuPoint& offset) const {
    return projection_.to_geo(EnuPoint{c.ix * cell_size_m_ + offset.x,
                                       c.iy * cell_size_m_ + offset.y});
  }

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
