// Unit tests for the utility metrics: temporal projection, STD (Eq. 8),
// distortion bands and the data-loss accumulator (Eq. 7).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "metrics/data_loss.h"
#include "lppm/trilateration.h"
#include "metrics/distortion.h"
#include "support/error.h"
#include "test_helpers.h"

namespace mood::metrics {
namespace {

using geo::GeoPoint;
using mobility::Trace;
using testing::rec;

TEST(TemporalProjection, InterpolatesBetweenRecords) {
  const Trace original("u", {rec(45.0, 5.0, 0), rec(46.0, 5.0, 100)});
  const GeoPoint mid = temporal_projection(original, 50);
  EXPECT_NEAR(mid.lat, 45.5, 1e-9);
  const GeoPoint quarter = temporal_projection(original, 25);
  EXPECT_NEAR(quarter.lat, 45.25, 1e-9);
}

TEST(TemporalProjection, ClampsOutsideSpan) {
  const Trace original("u", {rec(45.0, 5.0, 100), rec(46.0, 5.0, 200)});
  EXPECT_NEAR(temporal_projection(original, 0).lat, 45.0, 1e-12);
  EXPECT_NEAR(temporal_projection(original, 999).lat, 46.0, 1e-12);
}

TEST(TemporalProjection, HandlesDuplicateTimestamps) {
  const Trace original("u", {rec(45.0, 5.0, 100), rec(46.0, 5.0, 100),
                             rec(47.0, 5.0, 200)});
  // At the duplicated instant, any of the stamped positions is acceptable;
  // the implementation must not divide by zero.
  const GeoPoint p = temporal_projection(original, 100);
  EXPECT_GE(p.lat, 45.0);
  EXPECT_LE(p.lat, 46.0);
}

TEST(TemporalProjection, RejectsEmptyOriginal) {
  EXPECT_THROW(temporal_projection(Trace("u", {}), 0),
               support::PreconditionError);
}

TEST(Std, ZeroForIdenticalTrace) {
  const Trace t("u", {rec(45.0, 5.0, 0), rec(45.1, 5.1, 100),
                      rec(45.2, 5.2, 200)});
  EXPECT_NEAR(spatial_temporal_distortion(t, t), 0.0, 1e-9);
}

TEST(Std, ExactForUniformNorthShift) {
  const Trace original("u", {rec(45.0, 5.0, 0), rec(45.0, 5.0, 100)});
  std::vector<mobility::Record> moved;
  for (const auto& r : original.records()) {
    moved.push_back(
        mobility::Record{geo::destination(r.position, 0.0, 750.0), r.time});
  }
  const Trace shifted("u", std::move(moved));
  EXPECT_NEAR(spatial_temporal_distortion(original, shifted), 750.0, 1.0);
}

TEST(Std, UsesTemporalProjectionNotIndexAlignment) {
  // Protected trace has MORE records than the original (TRL does this);
  // each one must be compared to the interpolated original position.
  const Trace original("u", {rec(45.0, 5.0, 0), rec(46.0, 5.0, 100)});
  const Trace dense("u", {rec(45.25, 5.0, 25), rec(45.5, 5.0, 50),
                          rec(45.75, 5.0, 75)});
  EXPECT_NEAR(spatial_temporal_distortion(original, dense), 0.0, 1e-6);
}

TEST(Std, MatchesTemporalProjectionRecordByRecord) {
  // STD walks the original trace with a forward cursor instead of one
  // binary search per protected record. Every prefix of the protected
  // trace must give exactly the mean of temporal_projection distances:
  // repeated timestamps in both traces (TRL emits 3 records per time) and
  // protected times before the first and after the last original record.
  const Trace original(
      "u", {rec(45.00, 5.00, 100), rec(45.01, 5.02, 200),
            rec(45.03, 5.01, 200), rec(45.02, 5.04, 350),
            rec(45.05, 5.03, 500), rec(45.04, 5.05, 500),
            rec(45.06, 5.06, 500), rec(45.08, 5.02, 900)});
  const Trace dummies =
      lppm::Trilateration(600.0).apply(original, support::RngStream(3));
  std::vector<mobility::Record> records = dummies.records();
  for (const mobility::Timestamp t : {0, 50, 100, 150, 200, 201, 275, 499,
                                      500, 650, 899, 900, 901, 2000}) {
    records.push_back(rec(45.02 + 1e-5 * static_cast<double>(t), 5.01, t));
    records.push_back(rec(45.03, 5.02 - 1e-5 * static_cast<double>(t), t));
  }
  const Trace protected_trace("u", std::move(records));
  ASSERT_LT(protected_trace.front().time, original.front().time);
  ASSERT_GT(protected_trace.back().time, original.back().time);

  double total = 0.0;
  std::vector<mobility::Record> prefix;
  for (const auto& record : protected_trace.records()) {
    total += geo::haversine_m(record.position,
                              temporal_projection(original, record.time));
    prefix.push_back(record);
    const double expected = total / static_cast<double>(prefix.size());
    ASSERT_EQ(spatial_temporal_distortion(original, Trace("u", prefix)),
              expected)
        << "after " << prefix.size() << " records (t=" << record.time << ")";
  }
}

TEST(Std, EmptyProtectedIsInfinite) {
  const Trace original("u", {rec(45.0, 5.0, 0)});
  EXPECT_TRUE(std::isinf(spatial_temporal_distortion(original,
                                                     Trace("u", {}))));
}

TEST(Std, EmptyOriginalThrows) {
  const Trace any("u", {rec(45.0, 5.0, 0)});
  EXPECT_THROW(spatial_temporal_distortion(Trace("u", {}), any),
               support::PreconditionError);
}

TEST(Std, MetricInterfaceDelegates) {
  const SpatialTemporalDistortion metric;
  EXPECT_EQ(metric.name(), "STD");
  const Trace t("u", {rec(45.0, 5.0, 0), rec(45.0, 5.0, 50)});
  EXPECT_NEAR(metric.distortion(t, t), 0.0, 1e-9);
}

TEST(DistortionBands, PaperThresholds) {
  EXPECT_EQ(distortion_band(0.0), DistortionBand::kLow);
  EXPECT_EQ(distortion_band(499.9), DistortionBand::kLow);
  EXPECT_EQ(distortion_band(500.0), DistortionBand::kMedium);
  EXPECT_EQ(distortion_band(999.9), DistortionBand::kMedium);
  EXPECT_EQ(distortion_band(1000.0), DistortionBand::kHigh);
  EXPECT_EQ(distortion_band(4999.9), DistortionBand::kHigh);
  EXPECT_EQ(distortion_band(5000.0), DistortionBand::kExtremelyHigh);
  EXPECT_EQ(distortion_band(1e9), DistortionBand::kExtremelyHigh);
}

TEST(DistortionBands, NamesAreStable) {
  EXPECT_EQ(to_string(DistortionBand::kLow), "low(<500m)");
  EXPECT_EQ(to_string(DistortionBand::kExtremelyHigh), "extreme(>=5000m)");
}

TEST(DataLoss, RatioFollowsEquationSeven) {
  DataLossAccumulator acc;
  EXPECT_DOUBLE_EQ(acc.ratio(), 0.0);  // empty dataset: nothing lost
  acc.add_protected(900);
  acc.add_lost(100);
  EXPECT_DOUBLE_EQ(acc.ratio(), 0.1);
  EXPECT_EQ(acc.total_records(), 1000u);
  EXPECT_EQ(acc.lost_records(), 100u);
  EXPECT_EQ(acc.protected_records(), 900u);
}

TEST(DataLoss, AllLostIsOne) {
  DataLossAccumulator acc;
  acc.add_lost(42);
  EXPECT_DOUBLE_EQ(acc.ratio(), 1.0);
}

TEST(DataLoss, EmptyAndZeroRecordInputs) {
  // Eq. 7 boundary: |D|_r == 0 must yield 0, not NaN — both for a fresh
  // accumulator and after zero-record add calls.
  DataLossAccumulator acc;
  EXPECT_DOUBLE_EQ(acc.ratio(), 0.0);
  acc.add_protected(0);
  acc.add_lost(0);
  EXPECT_EQ(acc.total_records(), 0u);
  EXPECT_DOUBLE_EQ(acc.ratio(), 0.0);
}

TEST(DataLoss, AllLostAcrossMultipleTraces) {
  DataLossAccumulator acc;
  acc.add_lost(10);
  acc.add_lost(0);  // an empty lost trace must not disturb the ratio
  acc.add_lost(32);
  EXPECT_DOUBLE_EQ(acc.ratio(), 1.0);
  EXPECT_EQ(acc.protected_records(), 0u);
}

TEST(DataLoss, AccumulatesAcrossManyTraces) {
  DataLossAccumulator acc;
  for (int i = 0; i < 10; ++i) {
    acc.add_protected(50);
    acc.add_lost(i < 2 ? 50 : 0);  // 2 of 10 users fully lost
  }
  EXPECT_DOUBLE_EQ(acc.ratio(), 100.0 / 600.0);
}

}  // namespace
}  // namespace mood::metrics
