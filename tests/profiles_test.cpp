// Unit tests for the three mobility-profile models: POI sets, Mobility
// Markov Chains and heatmaps (with Topsoe divergence).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "geo/cell_grid.h"
#include "lppm/composition.h"
#include "lppm/geo_ind.h"
#include "lppm/heatmap_confusion.h"
#include "lppm/trilateration.h"
#include "profiles/heatmap.h"
#include "profiles/markov_profile.h"
#include "profiles/poi_profile.h"
#include "simulation/generator.h"
#include "simulation/presets.h"
#include "support/error.h"
#include "support/rng.h"
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

// ------------------------------------------------ CompiledHeatmap --

void expect_bit_identical(const CompiledHeatmap& a, const CompiledHeatmap& b) {
  ASSERT_EQ(a.cell_count(), b.cell_count());
  for (std::size_t c = 0; c < a.cell_count(); ++c) {
    EXPECT_EQ(a.cells()[c].cell, b.cells()[c].cell);
    EXPECT_EQ(a.cells()[c].probability, b.cells()[c].probability);
    EXPECT_EQ(a.cells()[c].self_term, b.cells()[c].self_term);
    EXPECT_EQ(a.cells()[c].solo_term, b.cells()[c].solo_term);
  }
}

// ---------------------------------------------------------- cell_counts --

using CountPairs = std::vector<std::pair<geo::CellIndex, double>>;

/// The oracle: the legacy hash-map heatmap's counts, sorted by cell.
CountPairs legacy_counts(const Trace& trace, const geo::CellGrid& grid) {
  const auto map = Heatmap::from_trace(trace, grid);
  CountPairs counts(map.counts().begin(), map.counts().end());
  std::sort(counts.begin(), counts.end());  // distinct cells: by cell
  return counts;
}

/// cell_counts and the compiled build that counts through it against
/// the legacy heatmap, bit for bit; rank_cells against ranked_cells.
void expect_counts_match_legacy(const Trace& trace,
                                const geo::CellGrid& grid) {
  const CountPairs expected = legacy_counts(trace, grid);
  CountPairs counted = cell_counts(trace.records(), grid);
  ASSERT_EQ(counted, expected);
  const CompiledHeatmap legacy(Heatmap::from_trace(trace, grid));
  expect_bit_identical(CompiledHeatmap::from_trace(trace, grid), legacy);
  rank_cells(counted);
  EXPECT_EQ(counted, Heatmap::from_trace(trace, grid).ranked_cells());
}

/// The test halves of a PrivaMov-sized population, on the grid the
/// harness anchors at the dataset's centre, raw and as the LPPM outputs
/// the search prices: GeoI and TRL scatter records over cells, HMC
/// relocates whole cells, and GeoI, TRL, HMC in sequence does all three.
TEST(CellCounts, MatchHeatmapOnPrivamovWindowsAndTheirLppmOutputs) {
  auto params = simulation::preset_params("privamov", 0.05, 11);
  params.days = 4;
  const auto dataset = simulation::generate(params);
  const core::ExperimentConfig config;
  const auto pairs =
      dataset.chronological_split(config.train_fraction, config.min_records);
  ASSERT_GT(pairs.size(), 10u);
  geo::BoundingBox box;
  std::vector<Trace> background;
  for (const auto& pair : pairs) background.push_back(pair.train);
  for (const auto& trace : dataset.traces()) {
    for (const auto& record : trace.records()) box.extend(record.position);
  }
  const geo::CellGrid grid(geo::LocalProjection(box.center()),
                           config.attack_params.heatmap_cell_m);
  const lppm::GeoIndistinguishability geoi(config.geoi_epsilon);
  const lppm::Trilateration trl(config.trl_radius_m);
  const lppm::HeatmapConfusion hmc(
      grid, std::make_shared<lppm::DonorPool>(background, grid),
      config.hmc_hot_coverage, config.hmc_max_cells, config.hmc_budget_m);
  const lppm::Composition three_stages({&geoi, &trl, &hmc});
  const std::vector<const lppm::Lppm*> lppms = {&geoi, &trl, &hmc,
                                                &three_stages};
  std::uint64_t stream = 0;
  for (const auto& pair : pairs) {
    SCOPED_TRACE(pair.test.user());
    expect_counts_match_legacy(pair.test, grid);
    for (const lppm::Lppm* lppm : lppms) {
      SCOPED_TRACE(lppm->name());
      expect_counts_match_legacy(
          lppm->apply(pair.test, support::RngStream(++stream)), grid);
    }
  }
}

/// A record in cell `cell` of `grid`, `t` seconds in.
mobility::Record in_cell(const geo::CellGrid& grid, geo::CellIndex cell,
                         mobility::Timestamp t) {
  return mobility::Record{grid.point_in_cell(cell, geo::EnuPoint{400.0, 400.0}),
                          t};
}

TEST_F(HeatmapTest, CellCountsGrowTheTableWithoutLosingACell) {
  // 4,970 distinct cells, far more than the table's initial 256 slots, so
  // it rehashes several times. Cell k is visited k % 3 + 1 times over
  // three interleaved sweeps, so no run shortcut hides a count; the cells
  // straddle the origin, so ix and iy take both signs.
  std::vector<mobility::Record> records;
  mobility::Timestamp t = 0;
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (int k = 0; k < 4970; ++k) {
      if (k % 3 < sweep) continue;
      records.push_back(
          in_cell(grid_, geo::CellIndex{k % 71 - 35, k / 71 - 35}, t++));
    }
  }
  const Trace trace("u", std::move(records));
  const CountPairs expected = legacy_counts(trace, grid_);
  ASSERT_EQ(expected.size(), 4970u);
  // A fresh thread starts from the initial table; this one may have grown
  // it already.
  CountPairs counted;
  std::thread([&] { counted = cell_counts(trace.records(), grid_); }).join();
  EXPECT_EQ(counted, expected);
  expect_counts_match_legacy(trace, grid_);
  // The grown table is reused: the next call sees none of these cells.
  const Trace single("u", {in_cell(grid_, geo::CellIndex{3, 3}, 0)});
  EXPECT_EQ(cell_counts(single.records(), grid_),
            (CountPairs{{geo::CellIndex{3, 3}, 1.0}}));
}

TEST_F(HeatmapTest, CellCountsKeepNegativeCellsInOrder) {
  const std::vector<geo::CellIndex> cells = {
      {-3, -2}, {2, -5}, {-1, 4}, {0, 0}, {-3, 7}, {5, 5}, {-3, -2}};
  std::vector<mobility::Record> records;
  mobility::Timestamp t = 0;
  for (const auto& cell : cells) records.push_back(in_cell(grid_, cell, t++));
  const Trace trace("u", std::move(records));
  EXPECT_EQ(cell_counts(trace.records(), grid_),
            (CountPairs{{{-3, -2}, 2.0},
                        {{-3, 7}, 1.0},
                        {{-1, 4}, 1.0},
                        {{0, 0}, 1.0},
                        {{2, -5}, 1.0},
                        {{5, 5}, 1.0}}));
  expect_counts_match_legacy(trace, grid_);
}

TEST_F(HeatmapTest, CellCountsCountRunsThatLeaveAndComeBack) {
  // A A A B B A A C A: the shortcut folds each run into one increment,
  // and A's three runs must add up, the last one included.
  const geo::CellIndex a{0, 0};
  const geo::CellIndex b{1, 0};
  const geo::CellIndex c{0, -1};
  std::vector<mobility::Record> records;
  mobility::Timestamp t = 0;
  for (const auto& cell : {a, a, a, b, b, a, a, c, a}) {
    records.push_back(in_cell(grid_, cell, t++));
  }
  const Trace trace("u", std::move(records));
  EXPECT_EQ(cell_counts(trace.records(), grid_),
            (CountPairs{{c, 1.0}, {a, 6.0}, {b, 2.0}}));
  expect_counts_match_legacy(trace, grid_);
  expect_counts_match_legacy(three_place_trace(), grid_);  // dwells
}

TEST_F(HeatmapTest, CellCountsOverPrecomputedCellsMatchTheRecordForm) {
  // HMC counts the cells it already took per record. Both forms share the
  // dense box count and the per-thread table, so they are interleaved:
  // each call must see only its own cells, whatever the previous call of
  // either form left.
  std::vector<mobility::Record> records;
  mobility::Timestamp t = 0;
  for (int k = 0; k < 900; ++k) {  // a 37 x 25 box: counted densely
    records.push_back(in_cell(grid_, geo::CellIndex{k % 37 - 18, k / 37}, t++));
  }
  for (const auto& cell : {geo::CellIndex{0, 0}, geo::CellIndex{0, 0},
                           geo::CellIndex{-2, 5}, geo::CellIndex{0, 0}}) {
    records.push_back(in_cell(grid_, cell, t++));
  }
  const Trace scattered("u", std::move(records));
  for (const Trace& trace :
       {scattered, three_place_trace(), Trace("u", {}),
        Trace("u", {in_cell(grid_, geo::CellIndex{-4, 9}, 0)})}) {
    std::vector<geo::CellIndex> cells;
    for (const auto& record : trace.records()) {
      cells.push_back(grid_.cell_of(record.position));
    }
    const CountPairs by_record = cell_counts(trace.records(), grid_);
    EXPECT_EQ(cell_counts(cells), by_record);
    EXPECT_EQ(cell_counts(trace.records(), grid_), by_record);
    EXPECT_EQ(cell_counts(cells), legacy_counts(trace, grid_));
  }
}

/// Both cell_counts forms against the legacy heatmap.
void expect_both_forms_match_legacy(const Trace& trace,
                                    const geo::CellGrid& grid) {
  std::vector<geo::CellIndex> cells;
  for (const auto& record : trace.records()) {
    cells.push_back(grid.cell_of(record.position));
  }
  const CountPairs expected = legacy_counts(trace, grid);
  EXPECT_EQ(cell_counts(trace.records(), grid), expected);
  EXPECT_EQ(cell_counts(cells), expected);
}

/// A trace whose cells span exactly the `width` x `height` box with
/// south-west cell `low`: its four corners once each, then every
/// `stride`-th cell of the box (k % 3 + 1 visits, the box walked column
/// by column in a scattered order, so no run shortcut hides a count).
Trace box_trace(const geo::CellGrid& grid, geo::CellIndex low, int width,
                int height, int stride) {
  std::vector<mobility::Record> records;
  mobility::Timestamp t = 0;
  for (const auto& [dx, dy] : {std::pair{0, 0}, std::pair{width - 1, 0},
                               std::pair{0, height - 1},
                               std::pair{width - 1, height - 1}}) {
    records.push_back(
        in_cell(grid, geo::CellIndex{low.ix + dx, low.iy + dy}, t++));
  }
  const int cells = width * height;
  for (int visit = 0; visit < 3; ++visit) {
    for (int k = 0; k < cells; k += stride) {
      if (k % 3 < visit) continue;
      const int slot = static_cast<int>(
          (static_cast<std::int64_t>(k) * 7919) % cells);  // 7919 is prime
      records.push_back(in_cell(
          grid, geo::CellIndex{low.ix + slot / height, low.iy + slot % height},
          t++));
    }
  }
  return Trace("u", std::move(records));
}

TEST_F(HeatmapTest, CellCountsAtTheDenseBoxLimit) {
  // A box of 4,096 cells is counted densely, one of 4,097 in the table;
  // both must give the legacy counts, square or strip, on either side of
  // the origin. 4,097 = 17 x 241.
  struct Box {
    geo::CellIndex low;
    int width;
    int height;
  };
  for (const Box& box : {Box{{-32, -32}, 64, 64}, Box{{-8, -120}, 17, 241},
                         Box{{-2000, 3}, 4096, 1}, Box{{5, -2000}, 1, 4097},
                         Box{{-3, -5}, 4097, 1}}) {
    SCOPED_TRACE(::testing::Message() << box.width << " x " << box.height);
    const Trace trace = box_trace(grid_, box.low, box.width, box.height, 5);
    const CountPairs expected = legacy_counts(trace, grid_);
    ASSERT_EQ(expected.front().first, box.low);
    ASSERT_EQ(expected.back().first,
              (geo::CellIndex{box.low.ix + box.width - 1,
                              box.low.iy + box.height - 1}));
    expect_both_forms_match_legacy(trace, grid_);
  }
}

TEST_F(HeatmapTest, CellCountsOfASparseAndOfANegativeBox) {
  // Records at least 100 km apart (125 cells of 800 m): a box far wider
  // than 4,096 cells holding a handful, counted in the table.
  std::vector<mobility::Record> sparse;
  mobility::Timestamp t = 0;
  for (const geo::CellIndex cell :
       {geo::CellIndex{0, 0}, geo::CellIndex{130, -7}, geo::CellIndex{-140, 260},
        geo::CellIndex{0, 0}, geo::CellIndex{265, 131}, geo::CellIndex{130, -7},
        geo::CellIndex{-140, 260}, geo::CellIndex{-140, 260}}) {
    sparse.push_back(in_cell(grid_, cell, t++));
  }
  const Trace far_apart("u", std::move(sparse));
  EXPECT_EQ(cell_counts(far_apart.records(), grid_),
            (CountPairs{{{-140, 260}, 3.0},
                        {{0, 0}, 2.0},
                        {{130, -7}, 2.0},
                        {{265, 131}, 1.0}}));
  expect_both_forms_match_legacy(far_apart, grid_);
  // A dense box wholly south-west of the origin: every index negative.
  expect_both_forms_match_legacy(box_trace(grid_, {-40, -30}, 31, 26, 2),
                                 grid_);
}

TEST_F(HeatmapTest, CellCountsInterleaveTheDenseAndTheTablePaths) {
  // Calls alternate between boxes counted densely and boxes counted in
  // the per-thread table, in both forms: neither path may keep a count
  // from another call.
  const std::vector<Trace> traces = {
      box_trace(grid_, {-10, -10}, 20, 20, 1),     // dense
      box_trace(grid_, {-50, -50}, 100, 90, 7),    // table
      box_trace(grid_, {3, -12}, 20, 20, 3),       // dense, overlapping
      box_trace(grid_, {-50, -49}, 100, 90, 11),   // table, shifted
      three_place_trace(),                         // dense, dwelling
      box_trace(grid_, {-10, -10}, 20, 20, 1)};    // the first again
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < traces.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "round " << round << " trace " << i);
      expect_both_forms_match_legacy(traces[i], grid_);
    }
  }
}

TEST_F(HeatmapTest, CellCountsOfEmptyAndSingleRecordTraces) {
  const Trace empty("u", {});
  EXPECT_TRUE(cell_counts(empty.records(), grid_).empty());
  EXPECT_TRUE(CompiledHeatmap::from_trace(empty, grid_).empty());

  const Trace single("u", {in_cell(grid_, geo::CellIndex{-4, 9}, 0)});
  EXPECT_EQ(cell_counts(single.records(), grid_),
            (CountPairs{{geo::CellIndex{-4, 9}, 1.0}}));
  expect_counts_match_legacy(single, grid_);
  EXPECT_EQ(CompiledHeatmap::from_trace(single, grid_).cells()[0].probability,
            1.0);
}

}  // namespace
}  // namespace mood::profiles
