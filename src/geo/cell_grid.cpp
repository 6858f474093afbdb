#include "geo/cell_grid.h"

#include <cmath>

#include "support/error.h"

namespace mood::geo {

CellGrid::CellGrid(LocalProjection projection, double cell_size_m)
    : projection_(projection), cell_size_m_(cell_size_m) {
  support::expects(cell_size_m > 0.0, "CellGrid: cell size must be positive");
}

CellIndex CellGrid::cell_of(const GeoPoint& p) const {
  return cell_of(projection_.to_enu(p));
}

CellIndex CellGrid::cell_of(const EnuPoint& p) const {
  return CellIndex{
      static_cast<std::int32_t>(std::floor(p.x / cell_size_m_)),
      static_cast<std::int32_t>(std::floor(p.y / cell_size_m_))};
}

GeoPoint CellGrid::cell_center(const CellIndex& c) const {
  return projection_.to_geo(EnuPoint{(c.ix + 0.5) * cell_size_m_,
                                     (c.iy + 0.5) * cell_size_m_});
}

EnuPoint CellGrid::offset_within_cell(const GeoPoint& p) const {
  return offset_within_cell(projection_.to_enu(p));
}

EnuPoint CellGrid::offset_within_cell(const EnuPoint& local) const {
  const CellIndex c = cell_of(local);
  return EnuPoint{local.x - c.ix * cell_size_m_,
                  local.y - c.iy * cell_size_m_};
}

GeoPoint CellGrid::point_in_cell(const CellIndex& c,
                                 const EnuPoint& offset) const {
  return projection_.to_geo(EnuPoint{c.ix * cell_size_m_ + offset.x,
                                     c.iy * cell_size_m_ + offset.y});
}

}  // namespace mood::geo
