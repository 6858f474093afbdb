// Tests for src/telemetry: histogram bucket arithmetic (boundary pins,
// percentile error bound), lock-free per-lane recording (concurrent
// merge determinism), the Prometheus-style exposition (golden text,
// atomic file rewrite) and the span trace ring (Chrome JSON
// well-formedness, bounded drops, compiled-out no-op).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "report/json.h"
#include "support/error.h"
#include "telemetry/exposition.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace mood::telemetry::testing {
// Defined in telemetry_disabled_tracing.cpp (compiled with
// MOOD_DISABLE_TRACING); returns how often MOOD_TRACE evaluated its tags.
int disabled_tracing_evaluations();
}  // namespace mood::telemetry::testing

namespace mood::telemetry {
namespace {

TEST(Histogram, BucketBoundaryPins) {
  // Underflow: zero, negatives, NaN and anything below 2^-24.
  EXPECT_EQ(0u, Histogram::bucket_index(0.0));
  EXPECT_EQ(0u, Histogram::bucket_index(-1.0));
  EXPECT_EQ(0u, Histogram::bucket_index(std::nan("")));
  EXPECT_EQ(0u, Histogram::bucket_index(std::ldexp(1.0, -25)));
  EXPECT_EQ(0u, Histogram::bucket_index(
                    std::nextafter(std::ldexp(1.0, -24), 0.0)));
  // First regular bucket starts exactly at 2^-24.
  EXPECT_EQ(1u, Histogram::bucket_index(std::ldexp(1.0, -24)));
  // 1.0 s: octave exponent 0, first subdivision.
  const std::size_t one = Histogram::bucket_index(1.0);
  EXPECT_EQ(1u + std::size_t(0 - Histogram::kMinExp) * 16u, one);
  EXPECT_DOUBLE_EQ(1.0, Histogram::bucket_lower_bound(one));
  EXPECT_DOUBLE_EQ(1.0625, Histogram::bucket_upper_bound(one));
  // The upper bound is exclusive: 1.0625 opens the next bucket.
  EXPECT_EQ(one + 1, Histogram::bucket_index(1.0625));
  // Overflow: >= 2^7 s, including infinity.
  EXPECT_EQ(Histogram::kBucketCount - 1, Histogram::bucket_index(128.0));
  EXPECT_EQ(Histogram::kBucketCount - 1,
            Histogram::bucket_index(std::numeric_limits<double>::infinity()));
  EXPECT_DOUBLE_EQ(128.0,
                   Histogram::bucket_lower_bound(Histogram::kBucketCount - 1));
}

TEST(Histogram, EveryValueFallsInsideItsBucketBounds) {
  // Sweep values across the whole layout: each must satisfy
  // lower <= v < upper of its own bucket.
  for (int e = Histogram::kMinExp; e < Histogram::kMaxExp; ++e) {
    for (int j = 0; j < Histogram::kSubdivisions; ++j) {
      const double v = std::ldexp(1.0 + (j + 0.4) / 16.0, e);
      const std::size_t b = Histogram::bucket_index(v);
      EXPECT_LE(Histogram::bucket_lower_bound(b), v);
      EXPECT_LT(v, Histogram::bucket_upper_bound(b));
    }
  }
}

TEST(Histogram, PercentileNearestRankWithinBucketResolution) {
  Histogram histogram(1);
  // 1..100 ms, one sample each: the exact nearest-rank p50 is 0.050.
  for (int i = 1; i <= 100; ++i) histogram.record(0.001 * i);
  const HistogramSnapshot snapshot = histogram.snapshot();
  EXPECT_EQ(100u, snapshot.count);
  EXPECT_NEAR(0.050, snapshot.percentile(0.50), 0.050 * 0.05);
  EXPECT_NEAR(0.095, snapshot.percentile(0.95), 0.095 * 0.05);
  EXPECT_NEAR(0.099, snapshot.percentile(0.99), 0.099 * 0.05);
  EXPECT_NEAR(0.0505, snapshot.mean(), 1e-12);  // exact, no bucket error
  // Conservative max: the upper bound of the highest non-empty bucket.
  EXPECT_GE(snapshot.max(), 0.100);
  EXPECT_LE(snapshot.max(), 0.100 * 1.0625);
  // Percentiles are monotone in q.
  EXPECT_LE(snapshot.percentile(0.50), snapshot.percentile(0.95));
  EXPECT_LE(snapshot.percentile(0.95), snapshot.percentile(0.99));
}

TEST(Histogram, RelativeErrorBoundAgainstExactPercentiles) {
  // Deterministic LCG samples spanning several decades; the documented
  // contract (replay.h) is <= 5% relative error vs the exact
  // nearest-rank value, the layout's actual bound is ~3.2%.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return double(state >> 11) / double(1ull << 53);
  };
  std::vector<double> values;
  Histogram histogram(1);
  for (int i = 0; i < 20000; ++i) {
    const double v = std::pow(10.0, -5.0 + 4.0 * next());  // 10 us .. 10 s
    values.push_back(v);
    histogram.record(v);
  }
  std::sort(values.begin(), values.end());
  const HistogramSnapshot snapshot = histogram.snapshot();
  for (const double q : {0.50, 0.90, 0.95, 0.99}) {
    const auto rank = std::size_t(std::ceil(q * double(values.size())));
    const double exact = values[rank - 1];
    const double estimated = snapshot.percentile(q);
    EXPECT_NEAR(estimated, exact, exact * 0.05)
        << "q=" << q << " exact=" << exact << " estimated=" << estimated;
  }
}

TEST(Histogram, ConcurrentRecordingMergesDeterministically) {
  // 8 writer threads over 4 lanes. Values are dyadic rationals so the
  // atomic double sums are exact whatever the interleaving — the merged
  // snapshot must come out bit-identical on every run.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  Histogram histogram(4);
  Counter counter(4);
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      const std::size_t lane = std::size_t(t) % 4;
      const double value = std::ldexp(1.5, -(2 + t % 4));  // 1.5 * 2^-k
      for (int i = 0; i < kPerThread; ++i) {
        histogram.record(value, lane);
        counter.add(1, lane);
      }
    });
  }
  for (auto& writer : writers) writer.join();

  EXPECT_EQ(std::uint64_t(kThreads) * kPerThread, counter.value());
  const HistogramSnapshot merged = histogram.snapshot();
  EXPECT_EQ(std::uint64_t(kThreads) * kPerThread, merged.count);
  double expected_sum = 0.0;
  for (int t = 0; t < kThreads; ++t) {
    expected_sum = expected_sum + kPerThread * std::ldexp(1.5, -(2 + t % 4));
  }
  EXPECT_DOUBLE_EQ(expected_sum, merged.sum);
  // Each lane took exactly two threads recording one value each.
  EXPECT_EQ(4u, merged.buckets.size());
  for (const auto& bucket : merged.buckets) {
    EXPECT_EQ(2u * kPerThread, bucket.count);
  }
  // Per-lane views partition the merge.
  std::uint64_t lane_total = 0;
  for (std::size_t lane = 0; lane < 4; ++lane) {
    lane_total += histogram.lane_snapshot(lane).count;
  }
  EXPECT_EQ(merged.count, lane_total);
}

TEST(Histogram, OutOfRangeLaneFallsBackToLaneZero) {
  Histogram histogram(2);
  histogram.record(0.5, 99);  // clamped, not UB
  EXPECT_EQ(1u, histogram.lane_snapshot(0).count);
  EXPECT_EQ(0u, histogram.lane_snapshot(1).count);
}

TEST(Registry, CreateOrGetReturnsSameInstrument) {
  MetricsRegistry registry(4);
  Counter& a = registry.counter("mood_test_total");
  Counter& b = registry.counter("mood_test_total");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(4u, a.lane_count());
  Histogram& h = registry.histogram("mood_test_seconds");
  EXPECT_EQ(&h, &registry.histogram("mood_test_seconds"));
}

TEST(Registry, KindConflictAndBadNamesThrow) {
  MetricsRegistry registry(1);
  registry.counter("mood_kind_test");
  EXPECT_THROW(registry.gauge("mood_kind_test"), support::PreconditionError);
  EXPECT_THROW(registry.histogram("mood_kind_test"),
               support::PreconditionError);
  EXPECT_THROW(registry.counter("1starts_with_digit"),
               support::PreconditionError);
  EXPECT_THROW(registry.counter("has space"), support::PreconditionError);
  EXPECT_THROW(registry.counter(""), support::PreconditionError);
}

TEST(Exposition, GoldenText) {
  MetricsRegistry registry(1);
  registry.counter("a_total").add(3);
  registry.gauge("g").set(2.5);
  Histogram& h = registry.histogram("h");
  h.record(0.25);
  h.record(1.0);
  h.record(1.0);
  const std::string expected =
      "# TYPE a_total counter\n"
      "a_total 3\n"
      "# TYPE g gauge\n"
      "g 2.5\n"
      "# TYPE h histogram\n"
      "h_bucket{le=\"0.265625\"} 1\n"
      "h_bucket{le=\"1.0625\"} 3\n"
      "h_bucket{le=\"+Inf\"} 3\n"
      "h_sum 2.25\n"
      "h_count 3\n";
  EXPECT_EQ(expected, render_exposition(registry.snapshot()));
}

TEST(Exposition, PerShardSeriesOnlyWhenSharded) {
  MetricsRegistry sharded(2);
  Histogram& h = sharded.histogram("mood_lat_seconds");
  h.record(0.5, 0);
  h.record(0.5, 1);
  const std::string text = render_exposition(sharded.snapshot());
  EXPECT_NE(std::string::npos,
            text.find("mood_lat_seconds_count{shard=\"0\"} 1"));
  EXPECT_NE(std::string::npos,
            text.find("mood_lat_seconds_count{shard=\"1\"} 1"));
  EXPECT_NE(std::string::npos, text.find("mood_lat_seconds_count 2"));

  MetricsRegistry single(1);
  single.histogram("mood_lat_seconds").record(0.5);
  EXPECT_EQ(std::string::npos,
            render_exposition(single.snapshot()).find("shard="));
}

TEST(Exposition, AtomicFileRewrite) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "mood_telemetry_test";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "metrics.prom").string();
  write_exposition_file(path, "first 1\n");
  write_exposition_file(path, "second 2\n");
  std::ifstream file(path);
  std::stringstream content;
  content << file.rdbuf();
  EXPECT_EQ("second 2\n", content.str());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove_all(dir);
}

TEST(Trace, ChromeJsonIsWellFormedAndTagged) {
  TraceSession& session = TraceSession::instance();
  session.start(64);
  {
    MOOD_TRACE("test.decide", {.shard = 3, .user = "u\"quoted\""});
  }
  { MOOD_TRACE("test.plain"); }
  session.stop();
  ASSERT_EQ(2u, session.span_count());
  EXPECT_EQ(0u, session.dropped());

  std::ostringstream out;
  session.dump_chrome_json(out);
  const report::Json document = report::Json::parse(out.str());
  const report::Json* events = document.find("traceEvents");
  ASSERT_NE(nullptr, events);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(2u, events->items().size());
  const report::Json& decide = events->items()[0];
  EXPECT_EQ("test.decide", decide.string_or("name", ""));
  EXPECT_EQ("X", decide.string_or("ph", ""));
  EXPECT_EQ(3, decide.int_or("tid", -1));  // tagged spans: tid = shard
  const report::Json* args = decide.find("args");
  ASSERT_NE(nullptr, args);
  EXPECT_EQ(3, args->int_or("shard", -1));
  EXPECT_EQ("u\"quoted\"", args->string_or("user", ""));
  // Untagged spans get a thread-derived tid away from shard numbers.
  EXPECT_GE(events->items()[1].int_or("tid", -1), 1000);
}

TEST(Trace, RingBoundsMemoryAndCountsDrops) {
  TraceSession& session = TraceSession::instance();
  session.start(4);
  for (int i = 0; i < 10; ++i) {
    MOOD_TRACE("test.flood");
  }
  session.stop();
  EXPECT_EQ(4u, session.span_count());
  EXPECT_EQ(6u, session.dropped());
  std::ostringstream out;
  session.dump_chrome_json(out);
  const report::Json document = report::Json::parse(out.str());
  const report::Json* other = document.find("otherData");
  ASSERT_NE(nullptr, other);
  EXPECT_EQ("6", other->string_or("dropped", ""));
}

TEST(Trace, DisabledAtRuntimeRecordsNothing) {
  TraceSession& session = TraceSession::instance();
  ASSERT_FALSE(session.enabled());
  const std::uint64_t before = session.span_count();
  { MOOD_TRACE("test.off"); }
  EXPECT_EQ(before, session.span_count());
}

TEST(Trace, CompiledOutMacroEvaluatesNothing) {
  // The sibling TU is built with -DMOOD_DISABLE_TRACING; its MOOD_TRACE
  // must not have evaluated the side-effecting tag expression.
  EXPECT_EQ(0, mood::telemetry::testing::disabled_tracing_evaluations());
}

}  // namespace
}  // namespace mood::telemetry
