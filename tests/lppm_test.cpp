// Unit tests for the LPPM set: Geo-I (planar Laplace), TRL (dummies),
// HMC (heatmap confusion), composition algebra and the registry.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <unordered_map>

#include "geo/cell_grid.h"
#include "lppm/composition.h"
#include "lppm/geo_ind.h"
#include "lppm/heatmap_confusion.h"
#include "lppm/registry.h"
#include "lppm/trilateration.h"
#include "profiles/heatmap.h"
#include "simulation/generator.h"
#include "simulation/presets.h"
#include "support/error.h"
#include "test_helpers.h"

namespace mood::lppm {
namespace {

using geo::GeoPoint;
using mobility::Trace;
using support::RngStream;
using testing::dwell;
using testing::trace_of;

const GeoPoint kHome{45.7640, 4.8357};
const GeoPoint kWork{45.7800, 4.8700};

Trace sample_trace(const std::string& user = "u") {
  std::vector<mobility::Record> records = dwell(kHome, 0, 40);
  auto w = dwell(kWork, 5 * mobility::kHour, 40);
  records.insert(records.end(), w.begin(), w.end());
  return Trace(user, std::move(records));
}

// ----------------------------------------------------------------- GeoI --

TEST(GeoI, PreservesTimestampsAndCardinality) {
  const GeoIndistinguishability geoi(0.01);
  const Trace in = sample_trace();
  const Trace out = geoi.apply(in, RngStream(1));
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out.at(i).time, in.at(i).time);
  }
  EXPECT_EQ(out.user(), in.user());
}

TEST(GeoI, DeterministicForSameStream) {
  const GeoIndistinguishability geoi(0.01);
  const Trace in = sample_trace();
  EXPECT_EQ(geoi.apply(in, RngStream(7)), geoi.apply(in, RngStream(7)));
}

TEST(GeoI, DifferentStreamsDiffer) {
  const GeoIndistinguishability geoi(0.01);
  const Trace in = sample_trace();
  EXPECT_NE(geoi.apply(in, RngStream(7)), geoi.apply(in, RngStream(8)));
}

TEST(GeoI, MeanDisplacementMatchesTheory) {
  // E[r] for the polar Laplace is 2/epsilon.
  const double epsilon = 0.01;
  const GeoIndistinguishability geoi(epsilon);
  const Trace in = sample_trace();
  RngStream rng(3);
  double total = 0.0;
  int count = 0;
  for (int rep = 0; rep < 30; ++rep) {
    const Trace out = geoi.apply(in, rng.fork("rep", rep));
    for (std::size_t i = 0; i < in.size(); ++i) {
      total += geo::haversine_m(in.at(i).position, out.at(i).position);
      ++count;
    }
  }
  EXPECT_NEAR(total / count, 2.0 / epsilon, 12.0);
}

TEST(GeoI, RadiusSamplerMatchesAnalyticCdf) {
  // CDF of the polar Laplace radius: C(r) = 1 - (1 + eps r) e^{-eps r}.
  const double epsilon = 0.01;
  const GeoIndistinguishability geoi(epsilon);
  RngStream rng(11);
  const int n = 50000;
  std::vector<double> radii;
  radii.reserve(n);
  for (int i = 0; i < n; ++i) radii.push_back(geoi.sample_radius_m(rng));
  for (const double q : {100.0, 200.0, 400.0, 800.0}) {
    const double expected = 1.0 - (1.0 + epsilon * q) * std::exp(-epsilon * q);
    const double observed =
        static_cast<double>(std::count_if(radii.begin(), radii.end(),
                                          [&](double r) { return r <= q; })) /
        n;
    EXPECT_NEAR(observed, expected, 0.01) << "q=" << q;
  }
}

TEST(GeoI, LowerEpsilonMeansMoreNoise) {
  const Trace in = sample_trace();
  auto mean_noise = [&](double eps) {
    const GeoIndistinguishability geoi(eps);
    const Trace out = geoi.apply(in, RngStream(5));
    double total = 0.0;
    for (std::size_t i = 0; i < in.size(); ++i) {
      total += geo::haversine_m(in.at(i).position, out.at(i).position);
    }
    return total / static_cast<double>(in.size());
  };
  EXPECT_GT(mean_noise(0.001), mean_noise(0.1));
}

TEST(GeoI, RejectsNonPositiveEpsilon) {
  EXPECT_THROW(GeoIndistinguishability(0.0), support::PreconditionError);
  EXPECT_THROW(GeoIndistinguishability(-1.0), support::PreconditionError);
}

// ------------------------------------------------------------------ TRL --

TEST(Trl, EmitsThreeDummiesPerRecordWithinRadius) {
  const Trilateration trl(1000.0);
  const Trace in = sample_trace();
  const Trace out = trl.apply(in, RngStream(2));
  ASSERT_EQ(out.size(), in.size() * 3);
  double min_r = 1e9;
  for (std::size_t i = 0; i < in.size(); ++i) {
    for (int d = 0; d < 3; ++d) {
      const auto& dummy = out.at(i * 3 + d);
      EXPECT_EQ(dummy.time, in.at(i).time);
      const double r = geo::haversine_m(dummy.position, in.at(i).position);
      EXPECT_LE(r, 1000.5);
      min_r = std::min(min_r, r);
    }
  }
  EXPECT_LT(min_r, 400.0);  // default disk sampling reaches near the centre
}

TEST(Trl, AnnulusVariantKeepsAwayFromTruePosition) {
  const Trilateration trl(1000.0, 3, 0.7);
  const Trace in = sample_trace();
  const Trace out = trl.apply(in, RngStream(2));
  for (std::size_t i = 0; i < in.size(); ++i) {
    for (int d = 0; d < 3; ++d) {
      const double r =
          geo::haversine_m(out.at(i * 3 + d).position, in.at(i).position);
      EXPECT_GE(r, 699.5);
      EXPECT_LE(r, 1000.5);
    }
  }
}

TEST(Trl, DummyCountConfigurable) {
  const Trilateration trl(500.0, 5);
  const Trace in = sample_trace();
  EXPECT_EQ(trl.apply(in, RngStream(2)).size(), in.size() * 5);
}

TEST(Trl, NeverPublishesTheTruePosition) {
  const Trilateration trl(1000.0);
  const Trace in = sample_trace();
  const Trace out = trl.apply(in, RngStream(2));
  int exact = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    for (int d = 0; d < 3; ++d) {
      if (geo::haversine_m(out.at(i * 3 + d).position, in.at(i).position) <
          0.5) {
        ++exact;
      }
    }
  }
  EXPECT_EQ(exact, 0);
}

TEST(Trl, DeterministicForSameStream) {
  const Trilateration trl(1000.0);
  const Trace in = sample_trace();
  EXPECT_EQ(trl.apply(in, RngStream(9)), trl.apply(in, RngStream(9)));
}

TEST(Trl, RejectsBadParameters) {
  EXPECT_THROW(Trilateration(0.0), support::PreconditionError);
  EXPECT_THROW(Trilateration(100.0, 0), support::PreconditionError);
  EXPECT_THROW(Trilateration(100.0, 3, 1.0), support::PreconditionError);
  EXPECT_THROW(Trilateration(100.0, 3, -0.1), support::PreconditionError);
}

TEST(Hmc, CellBudgetCapsTheAlignment) {
  // With max_mapped_cells = 1 only the hottest cell can move even at full
  // coverage.
  const geo::GeoPoint home{45.7640, 4.8357};
  const geo::CellGrid grid(geo::LocalProjection(home), 800.0);
  const auto dataset = testing::distinct_population(3, 4);
  std::vector<Trace> background(dataset.traces().begin(),
                                dataset.traces().end());
  const auto pool = std::make_shared<DonorPool>(background, grid);
  const HeatmapConfusion hmc(grid, pool, 1.0, 1, 1e9);
  const Trace& own = background[0];
  const Trace out = hmc.apply(own, RngStream(1));
  std::set<std::pair<int, int>> moved_cells;
  for (std::size_t i = 0; i < own.size(); ++i) {
    if (geo::haversine_m(own.at(i).position, out.at(i).position) > 0.01) {
      const auto cell = grid.cell_of(own.at(i).position);
      moved_cells.insert({cell.ix, cell.iy});
    }
  }
  EXPECT_LE(moved_cells.size(), 1u);
  EXPECT_THROW(HeatmapConfusion(grid, pool, 1.0, 0),
               support::PreconditionError);
}

// ------------------------------------------------------------------ HMC --

class HmcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    grid_ = std::make_unique<geo::CellGrid>(geo::LocalProjection(kHome),
                                            800.0);
    // Background population: three users at distinct places.
    const auto dataset = testing::distinct_population(3, 4);
    for (const auto& trace : dataset.traces()) background_.push_back(trace);
    pool_ = std::make_shared<DonorPool>(background_, *grid_);
  }

  std::unique_ptr<geo::CellGrid> grid_;
  std::vector<Trace> background_;
  std::shared_ptr<const DonorPool> pool_;
};

TEST_F(HmcTest, OutputHeatmapResemblesDonorNotSelf) {
  // Unlimited budgets: the full map is aligned onto the donor.
  const HeatmapConfusion hmc(*grid_, pool_, 1.0, 4096, 1e9);
  const Trace& own = background_[0];
  const Trace out = hmc.apply(own, RngStream(1));

  const auto own_map = profiles::Heatmap::from_trace(own, *grid_);
  const auto out_map = profiles::Heatmap::from_trace(out, *grid_);
  const auto donor =
      hmc.choose_donor(own_map, own.user());
  ASSERT_NE(donor, nullptr);
  EXPECT_NE(donor->user, own.user());
  EXPECT_LT(profiles::topsoe_divergence(out_map, donor->heatmap),
            profiles::topsoe_divergence(out_map, own_map));
}

TEST_F(HmcTest, KeepsTimestampsAndCount) {
  const HeatmapConfusion hmc(*grid_, pool_, 0.8);
  const Trace& own = background_[1];
  const Trace out = hmc.apply(own, RngStream(1));
  ASSERT_EQ(out.size(), own.size());
  for (std::size_t i = 0; i < own.size(); ++i) {
    EXPECT_EQ(out.at(i).time, own.at(i).time);
  }
}

TEST_F(HmcTest, DonorSearchExcludesSelf) {
  const HeatmapConfusion hmc(*grid_, pool_, 0.8);
  const auto own_map =
      profiles::Heatmap::from_trace(background_[2], *grid_);
  const auto* donor = hmc.choose_donor(own_map, background_[2].user());
  ASSERT_NE(donor, nullptr);
  EXPECT_NE(donor->user, background_[2].user());
}

TEST_F(HmcTest, PartialCoverageLeavesColdCellsInPlace) {
  // With tiny coverage only the single hottest cell moves; other records
  // stay exactly where they were. (Unlimited budget so the plan is
  // feasible.)
  const HeatmapConfusion hmc(*grid_, pool_, 0.05, 32, 1e9);
  const Trace& own = background_[0];
  const Trace out = hmc.apply(own, RngStream(1));
  int unchanged = 0;
  for (std::size_t i = 0; i < own.size(); ++i) {
    if (geo::haversine_m(own.at(i).position, out.at(i).position) < 0.01) {
      ++unchanged;
    }
  }
  EXPECT_GT(unchanged, 0);
  EXPECT_LT(unchanged, static_cast<int>(own.size()));
}

TEST_F(HmcTest, EmptyTracePassesThrough) {
  const HeatmapConfusion hmc(*grid_, pool_, 0.8);
  EXPECT_TRUE(hmc.apply(Trace("ghost", {}), RngStream(1)).empty());
}

TEST_F(HmcTest, ValidatesConstruction) {
  EXPECT_THROW(HeatmapConfusion(*grid_, nullptr, 0.8),
               support::PreconditionError);
  EXPECT_THROW(HeatmapConfusion(*grid_, pool_, 0.0),
               support::PreconditionError);
  EXPECT_THROW(HeatmapConfusion(*grid_, pool_, 1.5),
               support::PreconditionError);
  EXPECT_THROW(HeatmapConfusion(*grid_, pool_, 0.8, 64, 0.0),
               support::PreconditionError);
}

TEST_F(HmcTest, UnaffordablePlanMakesHmcRefuse) {
  // If even the cheapest donor costs more than the budget, the trace comes
  // back unchanged (fail-open: the user stays visibly unprotected instead
  // of silently wrecking utility). A huge budget relocates everything.
  const Trace& own = background_[0];
  auto moved_fraction = [&](double budget) {
    const HeatmapConfusion hmc(*grid_, pool_, 1.0, 4096, budget);
    const Trace out = hmc.apply(own, RngStream(1));
    std::size_t moved = 0;
    for (std::size_t i = 0; i < own.size(); ++i) {
      if (geo::haversine_m(own.at(i).position, out.at(i).position) > 0.01) {
        ++moved;
      }
    }
    return static_cast<double>(moved) / static_cast<double>(own.size());
  };
  EXPECT_DOUBLE_EQ(moved_fraction(10.0), 0.0);  // refusal
  EXPECT_NEAR(moved_fraction(1e9), 1.0, 1e-9);  // full alignment
}

TEST_F(HmcTest, DonorMinimisesRelocationCost) {
  const HeatmapConfusion hmc(*grid_, pool_, 1.0, 4096, 1e9);
  const auto own_map = profiles::Heatmap::from_trace(background_[0], *grid_);
  const auto user_cells = own_map.ranked_cells();
  const auto* donor = hmc.choose_donor(own_map, background_[0].user());
  ASSERT_NE(donor, nullptr);
  const double chosen_cost =
      hmc.relocation_cost(user_cells, own_map.total(), *donor);
  for (const auto& entry : pool_->entries()) {
    if (entry.user == background_[0].user()) continue;
    EXPECT_LE(chosen_cost,
              hmc.relocation_cost(user_cells, own_map.total(), entry) + 1e-9);
  }
}

// ------------------------------------------------ HMC donor-scan oracle --

/// The exhaustive HMC of the first implementation, kept as the oracle for
/// the branch-and-bound donor scan: it prices every donor in full from
/// GeoPoint haversines, keeps the first strict minimum in pool order, and
/// prices the winner a second time for the budget test.
struct ReferenceHmc {
  const geo::CellGrid& grid;
  const DonorPool& pool;
  double hot_coverage;
  std::size_t max_mapped_cells;
  double budget_m;

  double cost(const std::vector<std::pair<geo::CellIndex, double>>& cells,
              double user_total, const DonorPool::Entry& donor) const {
    if (donor.ranked.empty() || user_total <= 0.0) {
      return std::numeric_limits<double>::infinity();
    }
    double cost = 0.0;
    double covered = 0.0;
    const double target = hot_coverage * user_total;
    for (std::size_t rank = 0; rank < cells.size() &&
                               rank < max_mapped_cells && covered < target;
         ++rank) {
      const auto& [cell, count] = cells[rank];
      const auto& donor_cell = donor.ranked[rank % donor.ranked.size()].first;
      const double mass = count / user_total;
      cost += mass * geo::haversine_m(grid.cell_center(cell),
                                      grid.cell_center(donor_cell));
      covered += count;
    }
    return cost;
  }

  const DonorPool::Entry* choose(const profiles::Heatmap& map,
                                 const mobility::UserId& owner) const {
    const auto cells = map.ranked_cells();
    const DonorPool::Entry* best = nullptr;
    double best_cost = std::numeric_limits<double>::infinity();
    for (const auto& entry : pool.entries()) {
      if (entry.user == owner) continue;
      const double c = cost(cells, map.total(), entry);
      if (c < best_cost) {
        best_cost = c;
        best = &entry;
      }
    }
    return best;
  }

  Trace apply(const Trace& trace) const {
    if (trace.empty()) return trace;
    const auto map = profiles::Heatmap::from_trace(trace, grid);
    const DonorPool::Entry* donor = choose(map, trace.user());
    if (donor == nullptr || donor->ranked.empty()) return trace;
    const auto cells = map.ranked_cells();
    if (cost(cells, map.total(), *donor) > budget_m) return trace;
    std::unordered_map<geo::CellIndex, geo::CellIndex, geo::CellIndexHash>
        mapping;
    double covered = 0.0;
    const double target = hot_coverage * map.total();
    for (std::size_t rank = 0; rank < cells.size(); ++rank) {
      if (covered >= target || mapping.size() >= max_mapped_cells) break;
      const auto& [cell, count] = cells[rank];
      covered += count;
      mapping.emplace(cell, donor->ranked[rank % donor->ranked.size()].first);
    }
    std::vector<mobility::Record> out;
    for (const auto& record : trace.records()) {
      const auto mapped = mapping.find(grid.cell_of(record.position));
      if (mapped == mapping.end()) {
        out.push_back(record);
        continue;
      }
      out.push_back(mobility::Record{
          grid.point_in_cell(mapped->second,
                             grid.offset_within_cell(record.position)),
          record.time});
    }
    return Trace(trace.user(), std::move(out));
  }
};

/// HMC parameter sets the equivalence tests sweep: the defaults, unlimited
/// budgets, a tight cell cap with a budget that refuses some users, and a
/// single mapped cell.
struct HmcParams {
  double hot_coverage;
  std::size_t max_mapped_cells;
  double budget_m;
};
const HmcParams kHmcParams[] = {
    {0.85, 32, 5000.0}, {1.0, 4096, 1e9}, {0.5, 3, 800.0}, {1.0, 1, 2000.0}};

/// The first pool entry, in pool order, minimising the public
/// relocation_cost: the exhaustive answer choose_donor must reproduce.
const DonorPool::Entry* exhaustive_donor(const HeatmapConfusion& hmc,
                                         const DonorPool& pool,
                                         const profiles::Heatmap& map,
                                         const mobility::UserId& owner) {
  const auto cells = map.ranked_cells();
  const DonorPool::Entry* best = nullptr;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const auto& entry : pool.entries()) {
    if (entry.user == owner) continue;
    const double c = hmc.relocation_cost(cells, map.total(), entry);
    if (c < best_cost) {
      best_cost = c;
      best = &entry;
    }
  }
  return best;
}

/// Record-by-record equality of two traces down to the bits of every
/// coordinate.
void expect_bit_identical(const Trace& actual, const Trace& expected) {
  ASSERT_EQ(actual.user(), expected.user());
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const auto& a = actual.at(i);
    const auto& e = expected.at(i);
    ASSERT_EQ(a.time, e.time) << "record " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.position.lat),
              std::bit_cast<std::uint64_t>(e.position.lat))
        << "record " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.position.lon),
              std::bit_cast<std::uint64_t>(e.position.lon))
        << "record " << i;
  }
}

/// Checks choose_donor and apply against the oracles for every `stride`-th
/// owner of `population`, under every parameter set.
void expect_matches_exhaustive_scan(const mobility::Dataset& population,
                                    const geo::GeoPoint& origin,
                                    std::size_t stride) {
  const geo::CellGrid grid(geo::LocalProjection(origin), 800.0);
  const std::vector<Trace> background(population.traces().begin(),
                                      population.traces().end());
  const auto pool = std::make_shared<DonorPool>(background, grid);
  std::size_t refused = 0;
  std::size_t applied = 0;
  for (const auto& params : kHmcParams) {
    const HeatmapConfusion hmc(grid, pool, params.hot_coverage,
                               params.max_mapped_cells, params.budget_m);
    const ReferenceHmc reference{grid, *pool, params.hot_coverage,
                                 params.max_mapped_cells, params.budget_m};
    for (std::size_t u = 0; u < background.size(); u += stride) {
      const Trace& own = background[u];
      SCOPED_TRACE(own.user());
      const auto map = profiles::Heatmap::from_trace(own, grid);
      const auto* donor = hmc.choose_donor(map, own.user());
      EXPECT_EQ(donor, exhaustive_donor(hmc, *pool, map, own.user()));
      EXPECT_EQ(donor, reference.choose(map, own.user()));
      const Trace out = hmc.apply(own, RngStream(1));
      expect_bit_identical(out, reference.apply(own));
      ++(out.records() == own.records() ? refused : applied);
    }
  }
  // The sweep must exercise both outcomes of the budget test.
  EXPECT_GT(refused, 0u);
  EXPECT_GT(applied, 0u);
}

TEST(HmcDonorScan, MatchesExhaustiveScanOnPrivamovSizedPool) {
  auto params = simulation::preset_params("privamov", 0.05, 11);
  params.days = 4;
  ASSERT_EQ(params.users, 41u);
  expect_matches_exhaustive_scan(simulation::generate(params),
                                 params.city_center, 1);
}

TEST(HmcDonorScan, MatchesExhaustiveScanOnCabspottingSizedPool) {
  auto params = simulation::preset_params("cabspotting", 0.05, 12);
  params.days = 3;
  ASSERT_EQ(params.users, 531u);
  expect_matches_exhaustive_scan(simulation::generate(params),
                                 params.city_center, 9);
}

/// Hand-built pools: every record sits in a chosen cell of a grid anchored
/// at kHome, so costs and rankings are known by construction.
class HmcHandPoolTest : public ::testing::Test {
 protected:
  HmcHandPoolTest() : grid_(geo::LocalProjection(kHome), 800.0) {}

  /// `counts[k]` records in cell (ix0 + k, iy); decreasing counts give the
  /// ranking in order.
  Trace cells_trace(const std::string& user, int ix0, int iy,
                    const std::vector<std::size_t>& counts) const {
    std::vector<mobility::Record> records;
    mobility::Timestamp t = 0;
    for (std::size_t k = 0; k < counts.size(); ++k) {
      const GeoPoint p = grid_.point_in_cell(
          geo::CellIndex{ix0 + static_cast<int>(k), iy},
          geo::EnuPoint{200.0, 300.0});
      auto run = dwell(p, t, counts[k]);
      records.insert(records.end(), run.begin(), run.end());
      t += static_cast<mobility::Timestamp>(counts[k]) * mobility::kHour;
    }
    return Trace(user, std::move(records));
  }

  std::shared_ptr<const DonorPool> pool_of(
      const std::vector<Trace>& traces) const {
    return std::make_shared<DonorPool>(traces, grid_);
  }

  /// Asserts choose_donor == `expected` and == the exhaustive first
  /// minimum, and apply == the reference apply, bit for bit.
  void expect_choice(const std::shared_ptr<const DonorPool>& pool,
                     const Trace& own, const HmcParams& params,
                     const DonorPool::Entry* expected) const {
    const HeatmapConfusion hmc(grid_, pool, params.hot_coverage,
                               params.max_mapped_cells, params.budget_m);
    const ReferenceHmc reference{grid_, *pool, params.hot_coverage,
                                 params.max_mapped_cells, params.budget_m};
    const auto map = profiles::Heatmap::from_trace(own, grid_);
    EXPECT_EQ(hmc.choose_donor(map, own.user()), expected);
    EXPECT_EQ(exhaustive_donor(hmc, *pool, map, own.user()), expected);
    expect_bit_identical(hmc.apply(own, RngStream(1)), reference.apply(own));
  }

  geo::CellGrid grid_;
};

TEST_F(HmcHandPoolTest, EqualCostsKeepTheEarlierDonor) {
  const Trace own = cells_trace("u", 0, 0, {5, 3, 1});
  const Trace twin_a = cells_trace("a", 4, 2, {6, 4});
  const Trace twin_b = cells_trace("b", 4, 2, {6, 4});
  const Trace far = cells_trace("f", 40, 40, {6, 4});
  const HmcParams params{1.0, 32, 1e9};
  const auto pool = pool_of({far, twin_a, own, twin_b});
  const HeatmapConfusion hmc(grid_, pool, 1.0, 32, 1e9);
  const auto map = profiles::Heatmap::from_trace(own, grid_);
  const auto cells = map.ranked_cells();
  const auto& entries = pool->entries();
  ASSERT_EQ(hmc.relocation_cost(cells, map.total(), entries[1]),
            hmc.relocation_cost(cells, map.total(), entries[3]));
  expect_choice(pool, own, params, &entries[1]);
  const auto swapped = pool_of({far, twin_b, own, twin_a});
  expect_choice(swapped, own, params, &swapped->entries()[1]);
}

TEST_F(HmcHandPoolTest, OwnerIsNeverItsOwnDonor) {
  // The owner's own entry would cost 0; the nearer of the others wins.
  const Trace own = cells_trace("u", 0, 0, {5, 3});
  const auto pool = pool_of({cells_trace("far", 20, 0, {5, 3}), own,
                             cells_trace("near", 2, 0, {5, 3})});
  expect_choice(pool, own, {1.0, 32, 1e9}, &pool->entries()[2]);
  // A pool holding only the owner has no donor: the trace passes through.
  const auto alone = pool_of({own});
  expect_choice(alone, own, {1.0, 32, 1e9}, nullptr);
}

TEST_F(HmcHandPoolTest, DonorWithEmptyRankingIsSkipped) {
  const Trace own = cells_trace("u", 0, 0, {5, 3});
  const Trace empty("e", {});
  const auto pool =
      pool_of({empty, own, cells_trace("d", 3, 1, {4, 4}), empty});
  ASSERT_TRUE(pool->entries()[0].ranked.empty());
  expect_choice(pool, own, {1.0, 32, 1e9}, &pool->entries()[2]);
  const auto only_empty = pool_of({empty, own});
  expect_choice(only_empty, own, {1.0, 32, 1e9}, nullptr);
}

TEST_F(HmcHandPoolTest, UserRankingLongerThanDonorsWraps) {
  // Five user ranks onto two- and three-cell donors: the ranks past a
  // donor's length wrap around its ranking (rank % n).
  const Trace own = cells_trace("u", 0, 0, {9, 7, 5, 3, 1});
  const auto pool = pool_of({cells_trace("two", 6, 1, {8, 2}), own,
                             cells_trace("three", 1, 3, {8, 5, 2})});
  const HeatmapConfusion hmc(grid_, pool, 1.0, 32, 1e9);
  const auto map = profiles::Heatmap::from_trace(own, grid_);
  const auto* donor = hmc.choose_donor(map, own.user());
  ASSERT_NE(donor, nullptr);
  expect_choice(pool, own, {1.0, 32, 1e9}, donor);
  // The user's third-hottest cell (rank 2) lands on the donor's
  // (2 % n)-th cell.
  const Trace out = hmc.apply(own, RngStream(1));
  const auto third = grid_.cell_of(own.at(9 + 7).position);
  const auto expected = donor->ranked[2 % donor->ranked.size()].first;
  for (std::size_t i = 0; i < own.size(); ++i) {
    if (grid_.cell_of(own.at(i).position) == third) {
      EXPECT_EQ(grid_.cell_of(out.at(i).position), expected);
    }
  }
}

TEST_F(HmcHandPoolTest, CellCapLargerThanTheRankingMapsEveryCell) {
  const Trace own = cells_trace("u", 0, 0, {4, 3, 2});
  const auto pool = pool_of({own, cells_trace("d", 2, 2, {5, 4, 3, 2, 1}),
                             cells_trace("e", 9, 9, {1})});
  expect_choice(pool, own, {1.0, 4096, 1e9}, &pool->entries()[1]);
  expect_choice(pool, own, {0.85, 4096, 1e9}, &pool->entries()[1]);
}

TEST_F(HmcHandPoolTest, BudgetTestUsesTheWinnersExactCost) {
  // The budget test refuses exactly when the winner's relocation cost
  // exceeds the budget: at the cost itself the plan still runs, one ulp
  // below it the trace comes back unchanged.
  const Trace own = cells_trace("u", 0, 0, {5, 3, 1});
  const auto pool = pool_of({cells_trace("d", 3, 2, {6, 4, 2}), own,
                             cells_trace("f", 30, 30, {6, 4, 2})});
  const auto map = profiles::Heatmap::from_trace(own, grid_);
  const HeatmapConfusion unlimited(grid_, pool, 1.0, 32, 1e9);
  const double cost = unlimited.relocation_cost(
      map.ranked_cells(), map.total(), pool->entries()[0]);
  ASSERT_GT(cost, 0.0);

  expect_choice(pool, own, {1.0, 32, cost}, &pool->entries()[0]);
  const HeatmapConfusion at_cost(grid_, pool, 1.0, 32, cost);
  EXPECT_NE(at_cost.apply(own, RngStream(1)).records(), own.records());

  const double below = std::nextafter(cost, 0.0);
  expect_choice(pool, own, {1.0, 32, below}, &pool->entries()[0]);
  const HeatmapConfusion refusing(grid_, pool, 1.0, 32, below);
  expect_bit_identical(refusing.apply(own, RngStream(1)), own);
}

TEST_F(HmcHandPoolTest, MasslessHeatmapHasNoDonor) {
  // relocation_cost prices every donor at infinity for a zero-total map.
  profiles::Heatmap massless;
  massless.add(geo::CellIndex{0, 0}, 0.0);
  const auto pool = pool_of({cells_trace("d", 1, 1, {3})});
  const HeatmapConfusion hmc(grid_, pool, 1.0, 32, 1e9);
  EXPECT_EQ(hmc.choose_donor(massless, "u"), nullptr);
  EXPECT_EQ(exhaustive_donor(hmc, *pool, massless, "u"), nullptr);
}

// ---------------------------------------------------------- Composition --

TEST(Composition, AppliesStagesInOrder) {
  const testing::ShiftLppm a("A", 100.0);
  const testing::ShiftLppm b("B", 50.0);
  const Composition ab({&a, &b});
  EXPECT_EQ(ab.name(), "A+B");
  const Trace in = sample_trace();
  const Trace out = ab.apply(in, RngStream(1));
  EXPECT_NEAR(testing::mean_north_shift_m(in, out), 150.0, 0.5);
}

TEST(Composition, OrderChangesNameNotAdditiveShift) {
  const testing::ShiftLppm a("A", 100.0);
  const testing::ShiftLppm b("B", 50.0);
  const Composition ab({&a, &b});
  const Composition ba({&b, &a});
  EXPECT_NE(ab.name(), ba.name());
  const Trace in = sample_trace();
  // Shifts commute (additive), but names must encode the order.
  EXPECT_NEAR(testing::mean_north_shift_m(in, ab.apply(in, RngStream(1))),
              testing::mean_north_shift_m(in, ba.apply(in, RngStream(1))),
              0.5);
}

TEST(Composition, RejectsEmptyAndNull) {
  EXPECT_THROW(Composition({}), support::PreconditionError);
  EXPECT_THROW(Composition({nullptr}), support::PreconditionError);
}

TEST(CompositionEnumeration, CountsMatchClosedForm) {
  // |C| = sum_{i=1..n} n!/(n-i)!; paper: n = 3 -> 15.
  EXPECT_EQ(composition_count(3, 1, 3), 15u);
  EXPECT_EQ(composition_count(3, 2, 3), 12u);  // C \ L
  EXPECT_EQ(composition_count(1, 1, 1), 1u);
  EXPECT_EQ(composition_count(2, 1, 2), 4u);
  EXPECT_EQ(composition_count(4, 1, 4), 64u);
}

TEST(CompositionEnumeration, EnumeratesAllDistinctOrderings) {
  const testing::ShiftLppm a("A", 1), b("B", 2), c("C", 3);
  const std::vector<const Lppm*> singles{&a, &b, &c};
  const auto all = enumerate_compositions(singles, 1, 3);
  EXPECT_EQ(all.size(), 15u);
  std::set<std::string> names;
  for (const auto& comp : all) names.insert(comp.name());
  EXPECT_EQ(names.size(), 15u);  // all distinct
  EXPECT_TRUE(names.contains("A"));
  EXPECT_TRUE(names.contains("A+B+C"));
  EXPECT_TRUE(names.contains("C+B+A"));
}

TEST(CompositionEnumeration, OrderedByIncreasingLength) {
  const testing::ShiftLppm a("A", 1), b("B", 2), c("C", 3);
  const auto all = enumerate_compositions({&a, &b, &c}, 1, 3);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(all[i - 1].length(), all[i].length());
  }
}

TEST(CompositionEnumeration, RespectsLengthBounds) {
  const testing::ShiftLppm a("A", 1), b("B", 2), c("C", 3);
  const auto pairs_only = enumerate_compositions({&a, &b, &c}, 2, 2);
  EXPECT_EQ(pairs_only.size(), 6u);
  for (const auto& comp : pairs_only) EXPECT_EQ(comp.length(), 2u);
}

TEST(CompositionEnumeration, ValidatesBounds) {
  const testing::ShiftLppm a("A", 1);
  EXPECT_THROW(enumerate_compositions({&a}, 0, 1),
               support::PreconditionError);
  EXPECT_THROW(enumerate_compositions({&a}, 2, 1),
               support::PreconditionError);
}

// -------------------------------------------------------------- Registry --

TEST(Registry, AddFindAndViews) {
  LppmRegistry registry;
  const Lppm* a = registry.add(std::make_unique<testing::ShiftLppm>("A", 1));
  registry.add(std::make_unique<testing::ShiftLppm>("B", 2));
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.find("A"), a);
  EXPECT_EQ(registry.find("missing"), nullptr);
  EXPECT_EQ(registry.singles().size(), 2u);
}

TEST(Registry, RejectsDuplicatesAndNull) {
  LppmRegistry registry;
  registry.add(std::make_unique<testing::ShiftLppm>("A", 1));
  EXPECT_THROW(registry.add(std::make_unique<testing::ShiftLppm>("A", 9)),
               support::PreconditionError);
  EXPECT_THROW(registry.add(nullptr), support::PreconditionError);
}

TEST(Registry, CompositionSetsMatchPaperSizes) {
  LppmRegistry registry;
  registry.add(std::make_unique<testing::ShiftLppm>("A", 1));
  registry.add(std::make_unique<testing::ShiftLppm>("B", 2));
  registry.add(std::make_unique<testing::ShiftLppm>("C", 3));
  EXPECT_EQ(registry.all_compositions().size(), 15u);
  EXPECT_EQ(registry.multi_compositions().size(), 12u);
}

TEST(Registry, MultiCompositionsEmptyForSingleLppm) {
  LppmRegistry registry;
  registry.add(std::make_unique<testing::ShiftLppm>("A", 1));
  EXPECT_TRUE(registry.multi_compositions().empty());
}

}  // namespace
}  // namespace mood::lppm
