// Fig. 10 reproduction: data loss of the full MooD pipeline (composition
// search + 24 h pre-slicing + recursive fine-grained protection, delta =
// 4 h) vs the single LPPMs and HybridLPPM, per dataset.

#include "experiment_common.h"

int main(int argc, char** argv) {
  using namespace mood;
  const auto ctx = bench::parse_context(argc, argv);

  bench::print_header("Fig. 10: data loss [% measured | paper]");
  std::printf("%-14s %16s %16s %16s %16s %16s\n", "dataset", "Geo-I", "TRL",
              "HMC", "HybridLPPM", "MooD");
  for (const auto& name : ctx.datasets) {
    const auto harness = bench::make_harness(ctx, name);
    const auto& paper = bench::kPaperFig10.at(name);
    const core::EvaluationGrid grid =
        harness.evaluate({"GeoI", "TRL", "HMC", "HybridLPPM", "MooD-full"});
    std::vector<double> losses;
    for (const auto& row : grid.rows) {
      losses.push_back(
          std::visit([](const auto& r) { return r.data_loss(); }, row));
    }
    std::printf("%-14s", name.c_str());
    for (std::size_t s = 0; s < losses.size(); ++s) {
      std::printf("  %6.2f%% | %5.2f", 100.0 * losses[s], paper[s]);
    }
    std::printf("\n");
  }
  return 0;
}
