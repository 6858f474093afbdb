#include "geo/cell_grid.h"

#include "support/error.h"

namespace mood::geo {

CellGrid::CellGrid(LocalProjection projection, double cell_size_m)
    : projection_(projection), cell_size_m_(cell_size_m) {
  support::expects(cell_size_m > 0.0, "CellGrid: cell size must be positive");
}

}  // namespace mood::geo
