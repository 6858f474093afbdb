// Ablation bench for MooD's design knobs (the choices DESIGN.md calls out):
//   1. exhaustive composition search (paper-faithful, best utility) vs
//      first-hit search (cheaper, the optimisation §6 hints at);
//   2. the recursion floor delta: data loss & sub-trace counts for
//      delta in {1 h, 4 h, 12 h, 24 h};
//   3. 24 h pre-slicing on/off for the fine-grained stage.
//
// Runs on one dataset (default privamov — the most vulnerable one, so the
// fine-grained stage actually fires).

#include <chrono>

#include "experiment_common.h"

int main(int argc, char** argv) {
  using namespace mood;
  auto ctx = bench::parse_context(argc, argv);
  const std::string name =
      ctx.datasets.size() == 4 ? "privamov" : ctx.datasets.front();
  const auto harness = bench::make_harness(ctx, name);

  bench::print_header("Ablation 1: exhaustive vs first-hit search (" + name +
                      ")");
  {
    const auto exhaustive =
        std::get<core::MoodResult>(harness.evaluate({"MooD-full"}).rows[0]);
    std::size_t apps = 0;
    double distortion = 0.0;
    std::size_t protected_users = 0;
    for (const auto& u : exhaustive.users) {
      apps += u.lppm_applications;
      if (u.fully_protected()) {
        ++protected_users;
        distortion += u.distortion;
      }
    }
    std::printf("  exhaustive: %zu LPPM applications, %zu protected users, "
                "mean distortion %.0f m\n",
                apps, protected_users,
                protected_users ? distortion / protected_users : 0.0);
    // First-hit engine: same context, early-exit composition pass.
    core::MoodEngine engine = harness.make_engine();
    core::MoodConfig first_hit_config = engine.config();
    first_hit_config.first_hit = true;
    std::vector<const attacks::Attack*> views;
    for (const auto& a : harness.attacks()) views.push_back(a.get());
    metrics::SpatialTemporalDistortion metric;
    const core::MoodEngine fast(harness.registry().singles(),
                                harness.registry().multi_compositions(),
                                views, &metric, first_hit_config);
    std::size_t fast_apps = 0, fast_protected = 0;
    double fast_distortion = 0.0;
    for (const auto& pair : harness.pairs()) {
      core::ProtectionResult cost;
      const auto candidate = fast.search(pair.test, &cost);
      fast_apps += cost.lppm_applications;
      if (candidate) {
        ++fast_protected;
        fast_distortion += candidate->distortion;
      }
    }
    std::printf("  first-hit:  %zu LPPM applications, %zu protected users, "
                "mean distortion %.0f m\n",
                fast_apps, fast_protected,
                fast_protected ? fast_distortion / fast_protected : 0.0);
    std::printf("  (first-hit trades utility for search cost; protection "
                "counts should match)\n");
  }

  bench::print_header("Ablation 2: recursion floor delta (" + name + ")");
  std::printf("  %-8s %12s %22s\n", "delta", "data-loss",
              "fully-protected users");
  for (const int hours : {1, 4, 12, 24}) {
    const auto dataset =
        simulation::make_preset_dataset(name, ctx.scale, ctx.seed);
    core::ExperimentConfig config;
    config.mood.delta = hours * mobility::kHour;
    const core::ExperimentHarness h(dataset, config, ctx.seed);
    const auto result =
        std::get<core::MoodResult>(h.evaluate({"MooD-full"}).rows[0]);
    std::printf("  %2d h     %9.2f%% %22zu\n", hours,
                100.0 * result.data_loss(),
                result.users.size() - result.non_protected_users());
  }

  bench::print_header("Ablation 3: 24 h pre-slicing on/off (" + name + ")");
  {
    const auto engine = harness.make_engine();
    std::size_t direct_lost = 0, presliced_lost = 0, total = 0;
    for (const auto& pair : harness.pairs()) {
      if (engine.search(pair.test)) {
        total += pair.test.size();
        continue;  // whole-trace protection: identical in both modes
      }
      total += pair.test.size();
      // Without pre-slicing: recursive halving from the full trace.
      direct_lost += engine.protect(pair.test).lost_records;
      // With pre-slicing (the paper's deployment mode).
      presliced_lost += engine.protect_crowdsensing(pair.test).lost_records;
    }
    std::printf("  direct recursion : %.2f%% data loss\n",
                total ? 100.0 * direct_lost / total : 0.0);
    std::printf("  24 h pre-slicing : %.2f%% data loss\n",
                total ? 100.0 * presliced_lost / total : 0.0);
  }
  return 0;
}
