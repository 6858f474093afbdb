#pragma once

/// \file suite.h
/// Factory for the paper's attack set A = {POI-Attack, PIT-Attack,
/// AP-Attack} with the §4.1.1 parameters, plus name-based construction for
/// experiment configuration files.

#include <vector>

#include "attacks/ap_attack.h"
#include "attacks/attack.h"
#include "attacks/pit_attack.h"
#include "attacks/poi_attack.h"
#include "clustering/poi_extraction.h"
#include "geo/cell_grid.h"

namespace mood::attacks {

/// Parameters shared by the standard suite (paper defaults).
struct SuiteParams {
  clustering::PoiParams poi;        ///< 200 m diameter, 1 h dwell
  double heatmap_cell_m = 800.0;    ///< AP-attack cell size
  double pit_proximity_scale_m = 1000.0;
};

/// Builds the untrained three-attack suite in the paper's order
/// (POI-Attack, PIT-Attack, AP-Attack). `reference` anchors the heatmap
/// grid; pass the dataset's bounding-box centre so all heatmaps share cell
/// boundaries.
std::vector<AttackPtr> make_standard_suite(const geo::GeoPoint& reference,
                                           const SuiteParams& params = {});

/// Builds one attack by name: "poi", "pit" or "ap".
/// Throws PreconditionError for unknown names.
AttackPtr make_attack(const std::string& name, const geo::GeoPoint& reference,
                      const SuiteParams& params = {});

/// Trains every attack of a suite on the same background knowledge.
void train_all(const std::vector<AttackPtr>& suite,
               const std::vector<mobility::Trace>& background);

}  // namespace mood::attacks
