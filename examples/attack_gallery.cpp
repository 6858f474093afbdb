// Attack gallery — a tour of the three re-identification attacks and the
// three LPPMs: shows, for one dataset, how often each attack re-identifies
// users under each protection mechanism (the raw material behind the
// paper's Fig. 2).
//
// Run:  ./attack_gallery [--dataset=geolife] [--scale=0.06] [--seed=3]

#include <cstdio>
#include <vector>

#include "core/experiment.h"
#include "simulation/presets.h"
#include "support/logging.h"
#include "support/options.h"
#include "support/thread_pool.h"

int main(int argc, char** argv) {
  using namespace mood;
  const support::Options options(argc, argv);
  support::set_log_level(support::LogLevel::kWarn);

  const std::string name = options.get_string("dataset", "geolife");
  const double scale = options.get_double("scale", 0.06);
  const auto seed = static_cast<std::uint64_t>(options.get_int("seed", 3));

  const mobility::Dataset dataset =
      simulation::make_preset_dataset(name, scale, seed);
  const core::ExperimentHarness harness(dataset, {}, seed);
  const std::size_t users = harness.pairs().size();

  std::printf("dataset %s: %zu active users\n\n", name.c_str(), users);
  std::printf("re-identified users per (attack, protection):\n");
  std::printf("%-12s", "");
  for (const auto& attack : harness.attacks()) {
    std::printf("%12s", attack->name().c_str());
  }
  std::printf("\n");

  // One pass per attack: grids[a].rows[p] is protection p against a.
  const std::vector<std::string> protections{"no-LPPM", "GeoI", "TRL", "HMC"};
  std::vector<core::EvaluationGrid> grids;
  for (std::size_t a = 0; a < harness.attacks().size(); ++a) {
    grids.push_back(harness.evaluate(protections, {a}));
  }
  for (std::size_t p = 0; p < protections.size(); ++p) {
    std::printf("%-12s", p == 0 ? "raw" : protections[p].c_str());
    for (const core::EvaluationGrid& grid : grids) {
      const auto& result = std::get<core::StrategyResult>(grid.rows[p]);
      std::printf("%9zu/%-2zu", result.non_protected_users(),
                  result.user_count());
    }
    std::printf("\n");
  }

  std::printf("\nreading: POI/PIT attacks collapse once dwell clusters are "
              "destroyed (TRL),\nwhile AP-attack survives mild perturbation "
              "(GeoI) but is confused by HMC.\n");
  return 0;
}
