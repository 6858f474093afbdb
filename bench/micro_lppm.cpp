// Micro-benchmarks (google-benchmark): LPPM application throughput, the
// Eq. 8 distortion and composition enumeration — the per-candidate costs
// behind MooD's brute-force search, which the paper's §6 singles out as
// its main performance liability.

#include <benchmark/benchmark.h>

#include <cmath>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "lppm/composition.h"
#include "lppm/geo_ind.h"
#include "lppm/heatmap_confusion.h"
#include "lppm/trilateration.h"
#include "metrics/distortion.h"
#include "profiles/heatmap.h"
#include "simulation/generator.h"
#include "support/math.h"
#include "support/rng.h"

namespace {

using namespace mood;

/// One realistic user trace of ~n records.
mobility::Trace bench_trace(std::size_t records_per_day, int days = 4) {
  simulation::GeneratorParams params;
  params.users = 1;
  params.days = days;
  params.records_per_user_per_day = static_cast<double>(records_per_day);
  params.seed = 5;
  return simulation::generate(params).traces()[0];
}

void BM_GeoI_Apply(benchmark::State& state) {
  const auto trace = bench_trace(static_cast<std::size_t>(state.range(0)));
  const lppm::GeoIndistinguishability geoi(0.01);
  std::uint64_t rep = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        geoi.apply(trace, support::RngStream(rep++)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_GeoI_Apply)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

/// W_{-1} of 4,096 arguments drawn as GeoI draws them (seed 7): one scalar
/// call per argument, or the span form's interleaved lanes over all of
/// them. Same bits either way; the gap is the lanes' overlap.
const std::vector<double>& lambert_arguments() {
  static const std::vector<double> arguments = [] {
    support::RngStream rng(7);
    std::vector<double> x(4096);
    for (double& value : x) {
      double p = rng.uniform();
      if (p > 1.0 - 1e-12) p = 1.0 - 1e-12;
      value = (p - 1.0) / std::exp(1.0);
    }
    return x;
  }();
  return arguments;
}

void BM_LambertW_scalar(benchmark::State& state) {
  const std::vector<double>& x = lambert_arguments();
  std::vector<double> w(x.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      w[i] = support::lambert_w_minus1(x[i]);
    }
    benchmark::DoNotOptimize(w.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_LambertW_scalar)
    ->Name("BM_LambertW/scalar")
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

void BM_LambertW_lanes(benchmark::State& state) {
  const std::vector<double>& x = lambert_arguments();
  std::vector<double> w(x.size());
  for (auto _ : state) {
    support::lambert_w_minus1(x, w);
    benchmark::DoNotOptimize(w.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_LambertW_lanes)
    ->Name("BM_LambertW/lanes")
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

void BM_TRL_Apply(benchmark::State& state) {
  const auto trace = bench_trace(static_cast<std::size_t>(state.range(0)));
  const lppm::Trilateration trl(1000.0);
  std::uint64_t rep = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trl.apply(trace, support::RngStream(rep++)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_TRL_Apply)->Arg(100)->Arg(400)->Arg(1600);

/// The Eq. 8 distortion of a TRL output against its original, as the
/// search prices every protective candidate: three records per protected
/// timestamp (range(0) = records per user per day of the original).
void BM_Distortion(benchmark::State& state) {
  const auto trace = bench_trace(static_cast<std::size_t>(state.range(0)));
  const auto output = lppm::Trilateration(1000.0).apply(trace,
                                                        support::RngStream(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        metrics::spatial_temporal_distortion(trace, output));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(output.size()));
}
BENCHMARK(BM_Distortion)->Arg(100)->Arg(400)->Arg(1600);

/// A donor pool of `donors` generated users and the HMC over it, built
/// once per argument pair (google-benchmark re-enters the function for
/// every trial run).
struct HmcFixture {
  mobility::Dataset dataset;
  geo::CellGrid grid;
  lppm::HeatmapConfusion hmc;
};

const HmcFixture& hmc_fixture(std::int64_t records_per_day,
                              std::int64_t donors) {
  static std::map<std::pair<std::int64_t, std::int64_t>,
                  std::unique_ptr<HmcFixture>>
      cache;
  auto& slot = cache[{records_per_day, donors}];
  if (slot == nullptr) {
    simulation::GeneratorParams params;
    params.users = static_cast<std::size_t>(donors);
    params.days = 4;
    params.records_per_user_per_day = static_cast<double>(records_per_day);
    params.seed = 6;
    auto dataset = simulation::generate(params);
    const std::vector<mobility::Trace> background(dataset.traces().begin(),
                                                  dataset.traces().end());
    geo::CellGrid grid(
        geo::LocalProjection(dataset.traces()[0].front().position), 800.0);
    auto pool = std::make_shared<lppm::DonorPool>(background, grid);
    lppm::HeatmapConfusion hmc(grid, std::move(pool), 0.8);
    slot = std::make_unique<HmcFixture>(
        HmcFixture{std::move(dataset), std::move(grid), std::move(hmc)});
  }
  return *slot;
}

/// HMC on one user against a pool of state.range(1) donors: the donor scan
/// grows with the pool, the record rewrite with the trace (range(0) =
/// records per user per day). 24 donors is a small city, 531 the
/// Cabspotting fleet.
void BM_HMC_Apply(benchmark::State& state) {
  const HmcFixture& fixture = hmc_fixture(state.range(0), state.range(1));
  const auto& trace = fixture.dataset.traces()[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.hmc.apply(trace, support::RngStream(1)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_HMC_Apply)
    ->ArgNames({"records_per_day", "donors"})
    ->ArgsProduct({{100, 400}, {24, 531}});

/// Compiling the heatmap of an LPPM output, as the AP attack does for
/// every candidate the search prices: GeoI and TRL scatter consecutive
/// records over cells, so runs are short and the cells few (range(0) =
/// records per user per day).
void BM_CompileHeatmap(benchmark::State& state, const lppm::Lppm* lppm) {
  const auto trace = bench_trace(static_cast<std::size_t>(state.range(0)));
  const auto output = lppm->apply(trace, support::RngStream(1));
  const geo::CellGrid grid(geo::LocalProjection(trace.front().position),
                           800.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        profiles::CompiledHeatmap::from_trace(output, grid));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(output.size()));
}
const lppm::GeoIndistinguishability kGeoI(0.01);
const lppm::Trilateration kTrl(1000.0);
BENCHMARK_CAPTURE(BM_CompileHeatmap, GeoI, &kGeoI)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600);
BENCHMARK_CAPTURE(BM_CompileHeatmap, TRL, &kTrl)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600);

void BM_Composition_Apply(benchmark::State& state) {
  const auto trace = bench_trace(400);
  const lppm::GeoIndistinguishability geoi(0.01);
  const lppm::Trilateration trl(1000.0);
  const lppm::Composition composition({&geoi, &trl});
  std::uint64_t rep = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        composition.apply(trace, support::RngStream(rep++)));
  }
}
BENCHMARK(BM_Composition_Apply);

void BM_Composition_Enumerate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<std::unique_ptr<lppm::GeoIndistinguishability>> owned;
  std::vector<const lppm::Lppm*> singles;
  for (int i = 0; i < n; ++i) {
    owned.push_back(std::make_unique<lppm::GeoIndistinguishability>(
        0.01 * (i + 1)));
    singles.push_back(owned.back().get());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lppm::enumerate_compositions(singles, 1, singles.size()));
  }
}
BENCHMARK(BM_Composition_Enumerate)->DenseRange(1, 6);

}  // namespace

BENCHMARK_MAIN();
