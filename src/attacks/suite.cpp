#include "attacks/suite.h"

#include "support/error.h"

namespace mood::attacks {

std::vector<AttackPtr> make_standard_suite(const geo::GeoPoint& reference,
                                           const SuiteParams& params) {
  std::vector<AttackPtr> suite;
  suite.push_back(make_attack("poi", reference, params));
  suite.push_back(make_attack("pit", reference, params));
  suite.push_back(make_attack("ap", reference, params));
  return suite;
}

AttackPtr make_attack(const std::string& name, const geo::GeoPoint& reference,
                      const SuiteParams& params) {
  if (name == "poi") return std::make_unique<PoiAttack>(params.poi);
  if (name == "pit") {
    return std::make_unique<PitAttack>(params.poi,
                                       params.pit_proximity_scale_m);
  }
  if (name == "ap") {
    return std::make_unique<ApAttack>(geo::CellGrid(
        geo::LocalProjection(reference), params.heatmap_cell_m));
  }
  throw support::PreconditionError("unknown attack name: " + name);
}

void train_all(const std::vector<AttackPtr>& suite,
               const std::vector<mobility::Trace>& background) {
  for (const auto& attack : suite) attack->train(background);
}

}  // namespace mood::attacks
