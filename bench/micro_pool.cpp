// Micro-benchmarks (google-benchmark): the shared pool's handoff. One
// composition level of MooD's search is a parallel_for over about six
// nodes of 50-150 us each; these time a 6-iteration parallel_for of fixed
// ~50 us iterations, so what the pool adds on top of the work shows
// directly. On 4 workers plus the caller the level takes two rounds of
// work (~100 us) when helpers arrive at once, and six (~300 us, the
// serial baseline) when the caller ends up running every node.
//
// Shapes, each reported as the wall time of one parallel_for call:
//   BackToBack   calls follow each other: workers are awake or spinning.
//   AfterIdle    each call follows 1 ms of idleness: workers are parked.
//   ThreeCallers three plain std::thread callers at once, as the gateway's
//                shard workers call it.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstddef>
#include <thread>

#include "support/thread_pool.h"

namespace {

using namespace mood;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kLevel = 6;
constexpr auto kNodeWork = std::chrono::microseconds(50);

// A dependent chain of square roots: CPU work that takes longer, not
// shorter, when its thread is descheduled (a clock spin would not).
double chain(std::size_t steps) {
  double x = 2.0;
  for (std::size_t k = 0; k < steps; ++k) x = std::sqrt(x + 1.0);
  return x;
}

// Steps of chain() that take kNodeWork on this host, measured once.
std::size_t node_steps() {
  static const std::size_t steps = [] {
    constexpr std::size_t kProbe = 1 << 20;
    const auto start = Clock::now();
    benchmark::DoNotOptimize(chain(kProbe));
    const std::chrono::duration<double> took = Clock::now() - start;
    const double per_step = took.count() / kProbe;
    return static_cast<std::size_t>(
        std::chrono::duration<double>(kNodeWork).count() / per_step);
  }();
  return steps;
}

void node(std::size_t) { benchmark::DoNotOptimize(chain(node_steps())); }

void BM_Level_Serial(benchmark::State& state) {
  for (auto _ : state) {
    for (std::size_t i = 0; i < kLevel; ++i) node(i);
  }
}
BENCHMARK(BM_Level_Serial)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime()
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

void BM_ParallelFor_BackToBack(benchmark::State& state) {
  node_steps();
  for (auto _ : state) support::parallel_for(kLevel, node);
}
BENCHMARK(BM_ParallelFor_BackToBack)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime()
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

void BM_ParallelFor_AfterIdle(benchmark::State& state) {
  node_steps();
  for (auto _ : state) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const auto start = Clock::now();
    support::parallel_for(kLevel, node);
    state.SetIterationTime(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
}
BENCHMARK(BM_ParallelFor_AfterIdle)
    ->Unit(benchmark::kMicrosecond)
    ->UseManualTime()
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

void BM_ParallelFor_ThreeCallers(benchmark::State& state) {
  node_steps();
  for (auto _ : state) support::parallel_for(kLevel, node);
}
BENCHMARK(BM_ParallelFor_ThreeCallers)
    ->Unit(benchmark::kMicrosecond)
    ->Threads(3)
    ->UseRealTime()
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

}  // namespace

BENCHMARK_MAIN();
