// Dataset publication workflow — the data security expert scenario from the
// paper's problem statement (§2.4): protect a whole mobility dataset before
// releasing it, and compare the data loss of the naive strategies (delete
// everything a re-identification attack still catches) against MooD.
//
// Run:  ./dataset_publication [--dataset=privamov] [--scale=0.08] [--seed=7]

#include <cstdio>

#include "core/experiment.h"
#include "simulation/presets.h"
#include "support/logging.h"
#include "support/options.h"

int main(int argc, char** argv) {
  using namespace mood;
  const support::Options options(argc, argv);
  support::set_log_level(support::LogLevel::kWarn);

  const std::string name = options.get_string("dataset", "privamov");
  const double scale = options.get_double("scale", 0.08);
  const auto seed = static_cast<std::uint64_t>(options.get_int("seed", 7));

  std::printf("generating synthetic '%s' (scale %.2f)...\n", name.c_str(),
              scale);
  const mobility::Dataset dataset =
      simulation::make_preset_dataset(name, scale, seed);
  std::printf("dataset: %zu users, %zu records\n\n", dataset.user_count(),
              dataset.record_count());

  const core::ExperimentHarness harness(dataset, {}, seed);

  std::printf("%-12s %14s %10s\n", "strategy", "non-protected", "data-loss");
  auto show = [](const char* label, std::size_t bad, std::size_t total,
                 double loss) {
    std::printf("%-12s %8zu/%-5zu %9.1f%%\n", label, bad, total,
                100.0 * loss);
  };

  // One pass: every row is read off the same per-user MooD search.
  const core::EvaluationGrid grid = harness.evaluate(
      {"no-LPPM", "GeoI", "TRL", "HMC", "HybridLPPM", "MooD-full"});
  for (std::size_t r = 0; r + 1 < grid.rows.size(); ++r) {
    const auto& row = std::get<core::StrategyResult>(grid.rows[r]);
    show(row.strategy.c_str(), row.non_protected_users(), row.user_count(),
         row.data_loss());
  }
  const auto& mood = std::get<core::MoodResult>(grid.rows.back());
  show("MooD", mood.non_protected_users(), mood.users.size(),
       mood.data_loss());

  // Utility of what MooD publishes.
  const auto bands = mood.distortion_bands();
  std::printf("\nMooD utility bands (protected users): "
              "<500m:%zu  <1km:%zu  <5km:%zu  >=5km:%zu\n",
              bands[0], bands[1], bands[2], bands[3]);
  return 0;
}
