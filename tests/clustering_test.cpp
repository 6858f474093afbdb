// Unit tests for POI extraction (stay-point clustering) and the visit
// sequence used by the MMC profile.

#include <gtest/gtest.h>

#include "clustering/poi_extraction.h"
#include "geo/geo.h"
#include "support/error.h"
#include "test_helpers.h"

namespace mood::clustering {
namespace {

using geo::GeoPoint;
using mobility::kHour;
using mobility::kMinute;
using mobility::Trace;
using testing::dwell;
using testing::rec;
using testing::trace_of;

const GeoPoint kHome{45.7640, 4.8357};
const GeoPoint kWork{45.7800, 4.8700};  // ~3.2 km away

TEST(PoiExtraction, FindsSingleDwell) {
  // 2 hours parked at home, sampled every 5 minutes.
  const Trace trace = trace_of("u", {dwell(kHome, 0, 25)});
  const auto pois = extract_pois(trace);
  ASSERT_EQ(pois.size(), 1u);
  EXPECT_NEAR(geo::haversine_m(pois[0].center, kHome), 0.0, 1.0);
  EXPECT_EQ(pois[0].record_count, 25u);
  EXPECT_GE(pois[0].dwell, 2 * kHour);
}

TEST(PoiExtraction, ShortStayIsNotAPoi) {
  // Only 30 minutes at home: below the 1 h dwell threshold.
  const Trace trace = trace_of("u", {dwell(kHome, 0, 7)});
  EXPECT_TRUE(extract_pois(trace).empty());
}

TEST(PoiExtraction, TwoDwellsWithTravelBetween) {
  std::vector<mobility::Record> records = dwell(kHome, 0, 15);
  // Travel: a few records strung along the way (fast, no dwell).
  for (int i = 1; i <= 5; ++i) {
    const double f = i / 6.0;
    records.push_back(rec(kHome.lat + f * (kWork.lat - kHome.lat),
                          kHome.lon + f * (kWork.lon - kHome.lon),
                          15 * 5 * kMinute + i * kMinute));
  }
  auto work_dwell = dwell(kWork, 2 * kHour, 15);
  records.insert(records.end(), work_dwell.begin(), work_dwell.end());
  const Trace trace("u", std::move(records));

  const auto pois = extract_pois(trace);
  ASSERT_EQ(pois.size(), 2u);
  EXPECT_NEAR(geo::haversine_m(pois[0].center, kHome), 0.0, 5.0);
  EXPECT_NEAR(geo::haversine_m(pois[1].center, kWork), 0.0, 5.0);
  EXPECT_LT(pois[0].end, pois[1].start);
}

TEST(PoiExtraction, JitterWithinDiameterStillClusters) {
  // 25 records wobbling ~60 m around home: one POI, centred on home.
  std::vector<mobility::Record> records;
  for (int i = 0; i < 25; ++i) {
    const double bearing = i * 0.7;
    const GeoPoint p = geo::destination(kHome, bearing, 60.0);
    records.push_back(mobility::Record{p, i * 5 * kMinute});
  }
  const Trace trace("u", std::move(records));
  const auto pois = extract_pois(trace);
  ASSERT_EQ(pois.size(), 1u);
  EXPECT_NEAR(geo::haversine_m(pois[0].center, kHome), 0.0, 40.0);
}

TEST(PoiExtraction, WideWanderBreaksCluster) {
  // Successive records 400 m apart (beyond the 200 m diameter): no POI.
  std::vector<mobility::Record> records;
  GeoPoint p = kHome;
  for (int i = 0; i < 30; ++i) {
    records.push_back(mobility::Record{p, i * 10 * kMinute});
    p = geo::destination(p, 0.5, 400.0);
  }
  EXPECT_TRUE(extract_pois(Trace("u", std::move(records))).empty());
}

TEST(PoiExtraction, DiameterParameterControlsClustering) {
  // The same wandering trace clusters under a huge diameter.
  std::vector<mobility::Record> records;
  GeoPoint p = kHome;
  for (int i = 0; i < 30; ++i) {
    records.push_back(mobility::Record{p, i * 10 * kMinute});
    p = geo::destination(p, 0.5, 400.0);
  }
  PoiParams params;
  params.max_diameter_m = 50000.0;
  const auto pois = extract_pois(Trace("u", std::move(records)), params);
  EXPECT_EQ(pois.size(), 1u);
}

TEST(PoiExtraction, EmptyTraceYieldsNoPois) {
  EXPECT_TRUE(extract_pois(Trace("u", {})).empty());
}

TEST(PoiExtraction, ValidatesParameters) {
  const Trace trace = trace_of("u", {dwell(kHome, 0, 5)});
  PoiParams bad_diameter;
  bad_diameter.max_diameter_m = 0.0;
  EXPECT_THROW(extract_pois(trace, bad_diameter),
               support::PreconditionError);
  PoiParams bad_dwell;
  bad_dwell.min_dwell = 0;
  EXPECT_THROW(extract_pois(trace, bad_dwell), support::PreconditionError);
}

TEST(VisitSequence, MergesRepeatVisitsToSamePlace) {
  // home -> work -> home: two distinct states, three visits.
  std::vector<mobility::Record> records = dwell(kHome, 0, 15);
  auto w = dwell(kWork, 2 * kHour, 15);
  records.insert(records.end(), w.begin(), w.end());
  auto h2 = dwell(kHome, 4 * kHour, 15);
  records.insert(records.end(), h2.begin(), h2.end());
  const auto pois = extract_pois(Trace("u", std::move(records)));
  ASSERT_EQ(pois.size(), 3u);

  const auto seq = build_visit_sequence(pois, 200.0);
  EXPECT_EQ(seq.states.size(), 2u);
  ASSERT_EQ(seq.visits.size(), 3u);
  EXPECT_EQ(seq.visits[0], seq.visits[2]);  // both home
  EXPECT_NE(seq.visits[0], seq.visits[1]);
  // Merged home state accumulated both dwells.
  EXPECT_EQ(seq.states[seq.visits[0]].record_count, 30u);
}

TEST(VisitSequence, ZeroMergeDistanceKeepsAllStates) {
  std::vector<Poi> pois(3);
  pois[0].center = kHome;
  pois[1].center = geo::destination(kHome, 0.0, 10.0);
  pois[2].center = kWork;
  for (auto& p : pois) p.record_count = 1;
  const auto seq = build_visit_sequence(pois, 0.0);
  EXPECT_EQ(seq.states.size(), 3u);
}

TEST(VisitSequence, WeightedCentroidOnMerge) {
  Poi a;
  a.center = kHome;
  a.record_count = 30;
  Poi b;
  b.center = geo::destination(kHome, 0.0, 100.0);
  b.record_count = 10;
  const auto seq = build_visit_sequence({a, b}, 200.0);
  ASSERT_EQ(seq.states.size(), 1u);
  // Centroid should sit 25 m north of home (10/40 of the 100 m gap).
  EXPECT_NEAR(geo::haversine_m(seq.states[0].center, kHome), 25.0, 2.0);
  EXPECT_EQ(seq.states[0].record_count, 40u);
}

// ---------------------------------------------- origin-pinned overload --

TEST(PoiExtraction, ExplicitOriginDefaultsToTraceFront) {
  const Trace trace = trace_of("u", {dwell(kHome, 0, 25)});
  const auto implicit = extract_pois(trace);
  const auto explicit_origin =
      extract_pois(trace, PoiParams{}, trace.front().position);
  ASSERT_EQ(implicit.size(), explicit_origin.size());
  for (std::size_t i = 0; i < implicit.size(); ++i) {
    EXPECT_EQ(implicit[i].center.lat, explicit_origin[i].center.lat);
    EXPECT_EQ(implicit[i].center.lon, explicit_origin[i].center.lon);
    EXPECT_EQ(implicit[i].record_count, explicit_origin[i].record_count);
  }
}

}  // namespace
}  // namespace mood::clustering
