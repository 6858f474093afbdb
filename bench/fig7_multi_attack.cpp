// Fig. 7 reproduction: number of non-protected users against the full
// attack set {POI, PIT, AP} for no-LPPM / single LPPMs / HybridLPPM /
// MooD's multi-LPPM composition search.

#include "experiment_common.h"

int main(int argc, char** argv) {
  using namespace mood;
  const auto ctx = bench::parse_context(argc, argv);

  bench::print_header(
      "Fig. 7: #non-protected users vs 3 attacks [measured | paper]");
  std::printf("%-14s %6s %12s %12s %12s %12s %12s %12s\n", "dataset", "users",
              "no-LPPM", "Geo-I", "TRL", "HMC", "Hybrid", "MooD");
  for (const auto& name : ctx.datasets) {
    const auto harness = bench::make_harness(ctx, name);
    const auto& paper = bench::kPaperFig7.at(name);
    const core::EvaluationGrid grid = harness.evaluate(
        {"no-LPPM", "GeoI", "TRL", "HMC", "HybridLPPM", "MooD"});
    std::printf("%-14s %6zu", name.c_str(), harness.pairs().size());
    for (std::size_t s = 0; s < grid.rows.size(); ++s) {
      const auto& result = std::get<core::StrategyResult>(grid.rows[s]);
      std::printf("   %4zu | %3.0f", result.non_protected_users(), paper[s]);
    }
    std::printf("\n");
  }
  return 0;
}
