// Fig. 2 reproduction: ratio of non-protected users (re-identified by at
// least one of the three attacks) under each single LPPM and HybridLPPM,
// on the four datasets.

#include "experiment_common.h"

int main(int argc, char** argv) {
  using namespace mood;
  const auto ctx = bench::parse_context(argc, argv);

  bench::print_header(
      "Fig. 2: ratio of non-protected users (3 attacks) [% measured | paper]");
  std::printf("%-14s %6s %16s %16s %16s %16s\n", "dataset", "users", "Geo-I",
              "TRL", "HMC", "HybridLPPM");
  for (const auto& name : ctx.datasets) {
    const auto harness = bench::make_harness(ctx, name);
    const auto& paper = bench::kPaperFig2.at(name);
    const core::EvaluationGrid grid =
        harness.evaluate({"GeoI", "TRL", "HMC", "HybridLPPM"});
    std::printf("%-14s %6zu", name.c_str(), harness.pairs().size());
    for (std::size_t s = 0; s < grid.rows.size(); ++s) {
      const auto& result = std::get<core::StrategyResult>(grid.rows[s]);
      std::printf("   %5.1f%% | %3.0f%%",
                  100.0 * result.non_protected_ratio(), paper[s]);
    }
    std::printf("\n");
  }
  return 0;
}
