// Fig. 8 reproduction: fine-grained protection for the users the
// composition search could not protect. Their traces are cut into 24 h
// sub-traces; each sub-trace goes through MooD's multi-LPPM composition
// search independently, and the figure reports the proportion of protected
// sub-traces per user.

#include "experiment_common.h"

int main(int argc, char** argv) {
  using namespace mood;
  const auto ctx = bench::parse_context(argc, argv);

  bench::print_header(
      "Fig. 8: fine-grained protection of composition-search orphans");
  for (const auto& name : ctx.datasets) {
    const auto harness = bench::make_harness(ctx, name);
    const auto engine = harness.make_engine();
    const auto search =
        std::get<core::StrategyResult>(harness.evaluate({"MooD"}).rows[0]);

    std::printf("\n%s:\n", name.c_str());
    char label = 'A';
    bool any = false;
    for (std::size_t i = 0; i < search.users.size(); ++i) {
      if (search.users[i].is_protected) continue;
      any = true;
      const auto& pair = harness.pairs()[i];
      std::size_t protected_slices = 0, slices = 0;
      for (const auto& slice :
           pair.test.slices(engine.config().preslice)) {
        ++slices;
        if (engine.search(slice).has_value()) ++protected_slices;
      }
      std::printf("  USER %c (%s): %zu/%zu sub-traces protected (%.0f%%)\n",
                  label, pair.test.user().c_str(), protected_slices, slices,
                  bench::pct(protected_slices, slices));
      ++label;
    }
    if (!any) {
      std::printf("  (all users already protected by the composition "
                  "search at this scale)\n");
    }
  }
  std::printf("\n(paper: MDC users A/B/C at 100%%/92%%/11%%; PrivaMov D/E/F "
              "at 67%%/43%%/50%%;\n Geolife G/H with 1 of 4 sub-traces "
              "protected)\n");
  return 0;
}
