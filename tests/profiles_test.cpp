// Unit tests for the three mobility-profile models: POI sets, Mobility
// Markov Chains and heatmaps (with Topsoe divergence).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "geo/cell_grid.h"
#include "profiles/heatmap.h"
#include "profiles/markov_profile.h"
#include "profiles/poi_profile.h"
#include "support/error.h"
#include "test_helpers.h"

namespace mood::profiles {
namespace {

using geo::GeoPoint;
using mobility::kHour;
using mobility::Trace;
using testing::dwell;
using testing::trace_of;

const GeoPoint kHome{45.7640, 4.8357};
const GeoPoint kWork{45.7800, 4.8700};
const GeoPoint kGym{45.7500, 4.8100};

Trace three_place_trace(const std::string& user = "u") {
  std::vector<mobility::Record> records = dwell(kHome, 0, 30);
  auto w = dwell(kWork, 4 * kHour, 20);
  records.insert(records.end(), w.begin(), w.end());
  auto g = dwell(kGym, 8 * kHour, 14);
  records.insert(records.end(), g.begin(), g.end());
  auto h = dwell(kHome, 12 * kHour, 30);
  records.insert(records.end(), h.begin(), h.end());
  return Trace(user, std::move(records));
}

// ----------------------------------------------------------- PoiProfile --

TEST(PoiProfile, ExtractsMergedPlaces) {
  const auto profile = PoiProfile::from_trace(three_place_trace());
  EXPECT_EQ(profile.size(), 3u);  // home merged across two dwells
}

TEST(PoiProfile, EmptyTraceGivesEmptyProfile) {
  EXPECT_TRUE(PoiProfile::from_trace(Trace("u", {})).empty());
}

TEST(PoiProfileDistance, ZeroForIdenticalProfiles) {
  const auto p = PoiProfile::from_trace(three_place_trace());
  EXPECT_NEAR(poi_profile_distance(p, p), 0.0, 1e-9);
}

TEST(PoiProfileDistance, InfiniteWhenEitherEmpty) {
  const auto p = PoiProfile::from_trace(three_place_trace());
  const PoiProfile empty;
  EXPECT_TRUE(std::isinf(poi_profile_distance(p, empty)));
  EXPECT_TRUE(std::isinf(poi_profile_distance(empty, p)));
}

TEST(PoiProfileDistance, ExactForSinglePoiProfiles) {
  const auto here =
      PoiProfile::from_trace(trace_of("a", {dwell(kHome, 0, 20)}));
  const auto there = PoiProfile::from_trace(trace_of(
      "b", {dwell(geo::destination(kHome, 0.0, 5000.0), 0, 20)}));
  EXPECT_NEAR(poi_profile_distance(here, there), 5000.0, 10.0);
}

TEST(PoiProfileDistance, MonotoneInShift) {
  // With multiple POIs, nearest-match may cross-pair, but the distance must
  // still grow as the whole layout moves farther away.
  const auto here = PoiProfile::from_trace(three_place_trace());
  auto shifted_by = [&](double metres) {
    std::vector<clustering::Poi> moved;
    for (const auto& poi : here.pois()) {
      clustering::Poi p = poi;
      p.center = geo::destination(p.center, 0.0, metres);
      moved.push_back(p);
    }
    return PoiProfile(std::move(moved));
  };
  const double near = poi_profile_distance(here, shifted_by(1000.0));
  const double mid = poi_profile_distance(here, shifted_by(5000.0));
  const double far = poi_profile_distance(here, shifted_by(25000.0));
  EXPECT_LT(near, mid);
  EXPECT_LT(mid, far);
  EXPECT_NEAR(far, 25000.0, 1500.0);  // cross-matching vanishes at range
}

// -------------------------------------------------------- MarkovProfile --

TEST(MarkovProfile, WeightsSumToOneAndRanked) {
  const auto mmc = MarkovProfile::from_trace(three_place_trace());
  ASSERT_EQ(mmc.size(), 3u);
  double total = 0.0;
  for (const auto& s : mmc.states()) total += s.weight;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Ranked by decreasing weight: home (60 recs) first.
  EXPECT_GE(mmc.states()[0].weight, mmc.states()[1].weight);
  EXPECT_GE(mmc.states()[1].weight, mmc.states()[2].weight);
  EXPECT_NEAR(geo::haversine_m(mmc.states()[0].center, kHome), 0.0, 10.0);
}

TEST(MarkovProfile, TransitionsAreRowStochastic) {
  const auto mmc = MarkovProfile::from_trace(three_place_trace());
  for (std::size_t i = 0; i < mmc.size(); ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < mmc.size(); ++j) row += mmc.transition(i, j);
    EXPECT_NEAR(row, 1.0, 1e-9) << "row " << i;
  }
}

TEST(MarkovProfile, ObservedTransitionsHaveMass) {
  // Visits: home -> work -> gym -> home. home is rank 0.
  const auto mmc = MarkovProfile::from_trace(three_place_trace());
  // work (rank 1, 20 recs) -> gym (rank 2, 14 recs) was observed once and
  // is work's only outgoing edge.
  EXPECT_NEAR(mmc.transition(1, 2), 1.0, 1e-9);
}

TEST(MarkovProfile, EmptyTraceGivesEmptyChain) {
  EXPECT_TRUE(MarkovProfile::from_trace(Trace("u", {})).empty());
}

TEST(MarkovProfile, TransitionGuardsRange) {
  const auto mmc = MarkovProfile::from_trace(three_place_trace());
  EXPECT_THROW(static_cast<void>(mmc.transition(0, 99)),
               support::PreconditionError);
}

TEST(StatsProx, IdenticalChainsNearZero) {
  const auto a = MarkovProfile::from_trace(three_place_trace("a"));
  const auto b = MarkovProfile::from_trace(three_place_trace("b"));
  EXPECT_NEAR(stats_prox_distance(a, b), 0.0, 1e-6);
}

TEST(StatsProx, InfiniteForEmptyChain) {
  const auto a = MarkovProfile::from_trace(three_place_trace());
  const MarkovProfile empty;
  EXPECT_TRUE(std::isinf(stats_prox_distance(a, empty)));
}

TEST(StatsProx, GrowsWithGeographicShift) {
  const auto a = MarkovProfile::from_trace(three_place_trace());
  // Same behaviour 10 km away must be farther than 1 km away.
  auto shifted = [&](double metres) {
    const Trace base = three_place_trace();
    std::vector<mobility::Record> records;
    for (const auto& r : base.records()) {
      records.push_back(mobility::Record{
          geo::destination(r.position, 0.0, metres), r.time});
    }
    return MarkovProfile::from_trace(Trace("s", std::move(records)));
  };
  const double near = stats_prox_distance(a, shifted(1000.0));
  const double far = stats_prox_distance(a, shifted(10000.0));
  EXPECT_LT(near, far);
  EXPECT_GT(near, 0.0);
}

TEST(StatsProx, SymmetricInItsArguments) {
  const auto a = MarkovProfile::from_trace(three_place_trace());
  const auto b = MarkovProfile::from_trace(
      trace_of("b", {dwell(kWork, 0, 20), dwell(kGym, 4 * kHour, 30)}));
  EXPECT_NEAR(stats_prox_distance(a, b), stats_prox_distance(b, a), 1e-9);
}

TEST(StatsProx, ValidatesScale) {
  const auto a = MarkovProfile::from_trace(three_place_trace());
  EXPECT_THROW(stats_prox_distance(a, a, 0.0), support::PreconditionError);
}

// -------------------------------------------------------------- Heatmap --

class HeatmapTest : public ::testing::Test {
 protected:
  geo::CellGrid grid_{geo::LocalProjection(kHome), 800.0};
};

TEST_F(HeatmapTest, CountsRecordsPerCell) {
  const auto map = Heatmap::from_trace(three_place_trace(), grid_);
  EXPECT_GT(map.cell_count(), 1u);
  EXPECT_DOUBLE_EQ(map.total(), 94.0);  // 30+20+14+30 records
  const auto home_cell = grid_.cell_of(kHome);
  EXPECT_NEAR(map.probability(home_cell), 60.0 / 94.0, 1e-9);
}

TEST_F(HeatmapTest, ProbabilityOfUnseenCellIsZero) {
  const auto map = Heatmap::from_trace(three_place_trace(), grid_);
  EXPECT_DOUBLE_EQ(map.probability(geo::CellIndex{999, 999}), 0.0);
}

TEST_F(HeatmapTest, RankedCellsAreDescendingAndDeterministic) {
  const auto map = Heatmap::from_trace(three_place_trace(), grid_);
  const auto ranked = map.ranked_cells();
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].second, ranked[i].second);
  }
  EXPECT_EQ(ranked, map.ranked_cells());  // stable across calls
  EXPECT_EQ(ranked[0].first, grid_.cell_of(kHome));
}

TEST_F(HeatmapTest, AddRejectsNegative) {
  Heatmap map;
  EXPECT_THROW(map.add(geo::CellIndex{0, 0}, -1.0),
               support::PreconditionError);
}

TEST_F(HeatmapTest, TopsoeZeroForIdenticalMaps) {
  const auto map = Heatmap::from_trace(three_place_trace(), grid_);
  EXPECT_NEAR(topsoe_divergence(map, map), 0.0, 1e-12);
}

TEST_F(HeatmapTest, TopsoeSymmetric) {
  const auto a = Heatmap::from_trace(three_place_trace(), grid_);
  const auto b = Heatmap::from_trace(
      trace_of("b", {dwell(kGym, 0, 40), dwell(kWork, 5 * kHour, 10)}),
      grid_);
  EXPECT_NEAR(topsoe_divergence(a, b), topsoe_divergence(b, a), 1e-12);
}

TEST_F(HeatmapTest, TopsoeMaxedForDisjointSupports) {
  Heatmap a, b;
  a.add(geo::CellIndex{0, 0}, 10.0);
  b.add(geo::CellIndex{5, 5}, 10.0);
  EXPECT_NEAR(topsoe_divergence(a, b), 2.0 * std::log(2.0), 1e-12);
}

TEST_F(HeatmapTest, TopsoeBoundedAndMonotoneInOverlap) {
  Heatmap a;
  a.add(geo::CellIndex{0, 0}, 5.0);
  a.add(geo::CellIndex{1, 0}, 5.0);
  Heatmap similar;  // 80% overlap
  similar.add(geo::CellIndex{0, 0}, 4.0);
  similar.add(geo::CellIndex{1, 0}, 4.0);
  similar.add(geo::CellIndex{2, 0}, 2.0);
  Heatmap different;  // no overlap
  different.add(geo::CellIndex{7, 7}, 10.0);
  const double d_similar = topsoe_divergence(a, similar);
  const double d_different = topsoe_divergence(a, different);
  EXPECT_LT(d_similar, d_different);
  EXPECT_LE(d_different, 2.0 * std::log(2.0) + 1e-12);
  EXPECT_GE(d_similar, 0.0);
}

TEST_F(HeatmapTest, TopsoeInfiniteForEmptyMap) {
  const Heatmap empty;
  Heatmap a;
  a.add(geo::CellIndex{0, 0});
  EXPECT_TRUE(std::isinf(topsoe_divergence(a, empty)));
  EXPECT_TRUE(std::isinf(topsoe_divergence(empty, a)));
}

// ------------------------------------------- CompiledHeatmap updates --

void expect_bit_identical(const CompiledHeatmap& a, const CompiledHeatmap& b) {
  ASSERT_EQ(a.cell_count(), b.cell_count());
  for (std::size_t c = 0; c < a.cell_count(); ++c) {
    EXPECT_EQ(a.cells()[c].cell, b.cells()[c].cell);
    EXPECT_EQ(a.cells()[c].probability, b.cells()[c].probability);
    EXPECT_EQ(a.cells()[c].self_term, b.cells()[c].self_term);
    EXPECT_EQ(a.cells()[c].solo_term, b.cells()[c].solo_term);
  }
}

TEST_F(HeatmapTest, IncrementalCompileEqualsFromTrace) {
  const auto trace = three_place_trace();
  expect_bit_identical(CompiledHeatmap::incremental(trace, grid_),
                       CompiledHeatmap::from_trace(trace, grid_));
  EXPECT_TRUE(CompiledHeatmap::incremental(trace, grid_).updatable());
  EXPECT_FALSE(CompiledHeatmap::from_trace(trace, grid_).updatable());
}

TEST_F(HeatmapTest, ApplyUpdateFoldsArrivalsExactly) {
  const auto trace = three_place_trace();
  const auto& records = trace.records();
  auto map = CompiledHeatmap::incremental(Trace("u", {}), grid_);
  EXPECT_TRUE(map.empty());
  // Fold in two uneven chunks; compare against one-shot compiles of the
  // prefixes.
  const std::size_t cut = 37;
  map.apply_update({records.begin(), records.begin() + cut}, {}, grid_);
  map.compile();
  expect_bit_identical(
      map, CompiledHeatmap::from_trace(
               Trace("u", {records.begin(), records.begin() + cut}), grid_));
  map.apply_update({records.begin() + cut, records.end()}, {}, grid_);
  map.compile();
  expect_bit_identical(map, CompiledHeatmap::from_trace(trace, grid_));
}

TEST_F(HeatmapTest, ApplyUpdateRemovesExpirationsExactly) {
  const auto trace = three_place_trace();
  const auto& records = trace.records();
  auto map = CompiledHeatmap::incremental(trace, grid_);
  // Expire the first 40 records (the whole home dwell plus part of work).
  const std::vector<mobility::Record> gone(records.begin(),
                                           records.begin() + 40);
  map.apply_update({}, gone, grid_);
  map.compile();
  expect_bit_identical(
      map, CompiledHeatmap::from_trace(
               Trace("u", {records.begin() + 40, records.end()}), grid_));
  // Removing everything empties the heatmap cleanly.
  map.apply_update({}, {records.begin() + 40, records.end()}, grid_);
  map.compile();
  EXPECT_TRUE(map.empty());
}

TEST_F(HeatmapTest, ApplyUpdateGuardsItsPreconditions) {
  const auto trace = three_place_trace();
  auto frozen = CompiledHeatmap::from_trace(trace, grid_);
  EXPECT_THROW(frozen.apply_update({&trace.records().front(), 1}, {}, grid_),
               support::PreconditionError);
  auto map = CompiledHeatmap::incremental(Trace("u", {}), grid_);
  // Removing a record that was never added must fail loudly, not corrupt
  // the counts.
  EXPECT_THROW(map.apply_update({}, {&trace.records().front(), 1}, grid_),
               support::PreconditionError);
}

/// The count edits of apply_update, compiled, match a from-scratch
/// incremental() build of the same window: raw counts and cells, bit for
/// bit. Updates interleave appends and front evictions at random (several
/// updates may land between two compiles, as between two gateway
/// decides), after a scripted prefix in which one cell drops to zero and
/// comes back.
TEST_F(HeatmapTest, CountEditsCompileToIncrementalOnAnyInterleaving) {
  const std::vector<GeoPoint> places = {
      kHome, kWork, kGym, GeoPoint{45.7700, 4.8500}, GeoPoint{45.7400, 4.8000},
      GeoPoint{45.8000, 4.9000}};
  const GeoPoint rare{45.7000, 4.7000};
  const auto expect_matches_window = [&](CompiledHeatmap& map,
                                         const Trace& window) {
    map.compile();
    const auto fresh = CompiledHeatmap::incremental(window, grid_);
    ASSERT_EQ(map.raw_counts(), fresh.raw_counts());
    ASSERT_EQ(map.raw_total(), fresh.raw_total());
    expect_bit_identical(map, fresh);
  };

  for (const std::uint32_t seed : {1u, 7u, 42u, 2024u}) {
    std::mt19937 rng(seed);
    Trace window("u", {});
    auto map = CompiledHeatmap::incremental(window, grid_);
    mobility::Timestamp t = 0;
    const auto append = [&](const GeoPoint& where) {
      t += static_cast<mobility::Timestamp>(rng() % 600);
      window.append(mobility::Record{where, t});
      return window.records().back();
    };

    // Scripted: the rare cell appears, is evicted to zero, and returns.
    const std::vector<mobility::Record> first = {append(rare), append(kHome),
                                                 append(kHome)};
    map.apply_update(first, {}, grid_);
    expect_matches_window(map, window);
    const auto rare_cell = grid_.cell_of(rare);
    const auto has_rare = [&] {
      return std::any_of(map.raw_counts().begin(), map.raw_counts().end(),
                         [&](const auto& entry) {
                           return entry.first == rare_cell;
                         });
    };
    ASSERT_TRUE(has_rare());
    map.apply_update({}, {window.records().data(), 1}, grid_);
    window.drop_front(1);
    expect_matches_window(map, window);
    ASSERT_FALSE(has_rare());
    const mobility::Record back = append(rare);
    map.apply_update({&back, 1}, {}, grid_);
    expect_matches_window(map, window);
    ASSERT_TRUE(has_rare());

    // Random: each step appends up to four records (drawn so that rarely
    // seen cells keep dropping out and returning) and evicts up to as many
    // from the front, in one update; compile every few steps.
    for (int step = 0; step < 400; ++step) {
      std::vector<mobility::Record> added;
      for (std::uint32_t n = rng() % 5; n > 0; --n) {
        added.push_back(
            append(rng() % 16 == 0 ? rare : places[rng() % places.size()]));
      }
      const std::size_t evict =
          std::min<std::size_t>(rng() % 5, window.size());
      map.apply_update(added, {window.records().data(), evict}, grid_);
      window.drop_front(evict);
      if (step % 3 == 0) expect_matches_window(map, window);
    }
    expect_matches_window(map, window);
  }
}

TEST_F(HeatmapTest, StaleCellsCannotBeRead) {
  const auto trace = three_place_trace();
  auto map = CompiledHeatmap::incremental(Trace("u", {}), grid_);
  map.apply_update(trace.records(), {}, grid_);
  EXPECT_THROW(static_cast<void>(map.cells()), support::PreconditionError);
  EXPECT_THROW(static_cast<void>(map.empty()), support::PreconditionError);
  EXPECT_THROW(static_cast<void>(topsoe_divergence(map, map)),
               support::PreconditionError);
  // The raw counts stay readable: they are what a checkpoint captures.
  EXPECT_EQ(map.raw_total(), static_cast<double>(trace.size()));
  const auto restored =
      CompiledHeatmap::from_counts(map.raw_counts(), map.raw_total());
  map.compile();
  expect_bit_identical(map, restored);
  expect_bit_identical(map, CompiledHeatmap::from_trace(trace, grid_));
  // An empty update leaves fresh cells readable.
  map.apply_update({}, {}, grid_);
  EXPECT_NO_THROW(static_cast<void>(map.cells()));
}

}  // namespace
}  // namespace mood::profiles
