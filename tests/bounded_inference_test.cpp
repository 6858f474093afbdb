// Equivalence and property tests for the inference hot path: compiled flat
// profiles and bounded divergences must reproduce the legacy profile
// distances, and every query path — the branch-and-bound scans and the
// AP posting index — must answer every re-identification exactly as a
// naive argmin over the legacy profiles, including ties, empty profiles
// and the disjoint-support Topsoe ceiling. The parallel evaluators must
// be schedule-independent.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "attacks/ap_attack.h"
#include "attacks/attack.h"
#include "attacks/pit_attack.h"
#include "attacks/poi_attack.h"
#include "attacks/suite.h"
#include "core/experiment.h"
#include "geo/cell_grid.h"
#include "lppm/composition.h"
#include "profiles/heatmap.h"
#include "profiles/markov_profile.h"
#include "profiles/poi_profile.h"
#include "simulation/generator.h"
#include "simulation/presets.h"
#include "support/rng.h"
#include "test_helpers.h"

namespace mood {
namespace {

using geo::GeoPoint;
using mobility::kHour;
using mobility::Trace;
using testing::distinct_population;
using testing::dwell;
using testing::trace_of;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ------------------------------------------------ compiled heatmaps ----

class CompiledHeatmapTest : public ::testing::Test {
 protected:
  /// Deterministic random heatmap over a small cell universe; `salt`
  /// varies the draw.
  profiles::Heatmap random_map(std::uint64_t salt, int cells,
                               int universe = 12) {
    auto rng = support::RngStream(0xbeef).fork("map", salt);
    profiles::Heatmap map;
    for (int c = 0; c < cells; ++c) {
      const auto ix = static_cast<std::int32_t>(
          rng.uniform_index(static_cast<std::uint64_t>(universe)));
      const auto iy = static_cast<std::int32_t>(
          rng.uniform_index(static_cast<std::uint64_t>(universe)));
      map.add(geo::CellIndex{ix, iy},
              static_cast<double>(1 + rng.uniform_index(50)));
    }
    return map;
  }
};

TEST_F(CompiledHeatmapTest, PreservesProbabilitiesSorted) {
  const auto map = random_map(1, 9);
  const profiles::CompiledHeatmap compiled(map);
  ASSERT_EQ(compiled.cell_count(), map.cell_count());
  for (std::size_t i = 0; i < compiled.cells().size(); ++i) {
    const auto& cell = compiled.cells()[i];
    EXPECT_DOUBLE_EQ(cell.probability, map.probability(cell.cell));
    if (i > 0) {
      EXPECT_LT(compiled.cells()[i - 1].cell, cell.cell);
    }
  }
}

TEST_F(CompiledHeatmapTest, FromTraceMatchesCompilingLegacyBitwise) {
  const geo::CellGrid grid(geo::LocalProjection(GeoPoint{45.76, 4.83}),
                           800.0);
  const Trace trace = trace_of(
      "u", {dwell(GeoPoint{45.764, 4.8357}, 0, 30),
            dwell(GeoPoint{45.78, 4.87}, 4 * kHour, 20),
            dwell(GeoPoint{45.764, 4.8357}, 8 * kHour, 25)});
  const profiles::CompiledHeatmap direct =
      profiles::CompiledHeatmap::from_trace(trace, grid);
  const profiles::CompiledHeatmap via_legacy(
      profiles::Heatmap::from_trace(trace, grid));
  ASSERT_EQ(direct.cell_count(), via_legacy.cell_count());
  for (std::size_t i = 0; i < direct.cells().size(); ++i) {
    EXPECT_EQ(direct.cells()[i].cell, via_legacy.cells()[i].cell);
    EXPECT_EQ(direct.cells()[i].probability,
              via_legacy.cells()[i].probability);
  }
}

TEST_F(CompiledHeatmapTest, TopsoeMatchesLegacyWithinRounding) {
  for (std::uint64_t salt = 0; salt < 30; ++salt) {
    const auto a = random_map(2 * salt, 3 + static_cast<int>(salt % 7));
    const auto b = random_map(2 * salt + 1, 2 + static_cast<int>(salt % 5));
    const double legacy = profiles::topsoe_divergence(a, b);
    const double compiled = profiles::topsoe_divergence(
        profiles::CompiledHeatmap(a), profiles::CompiledHeatmap(b));
    EXPECT_NEAR(compiled, legacy, 1e-12) << "salt " << salt;
  }
}

TEST_F(CompiledHeatmapTest, TopsoeSymmetricAndZeroOnSelf) {
  const auto map = random_map(7, 8);
  const profiles::CompiledHeatmap compiled(map);
  EXPECT_EQ(profiles::topsoe_divergence(compiled, compiled), 0.0);
  const profiles::CompiledHeatmap other(random_map(8, 5));
  EXPECT_EQ(profiles::topsoe_divergence(compiled, other),
            profiles::topsoe_divergence(other, compiled));
}

TEST_F(CompiledHeatmapTest, TopsoeInfiniteForEmpty) {
  const profiles::CompiledHeatmap empty;
  const profiles::CompiledHeatmap some(random_map(3, 4));
  EXPECT_EQ(profiles::topsoe_divergence(some, empty), kInf);
  EXPECT_EQ(profiles::topsoe_divergence(empty, some), kInf);
}

TEST_F(CompiledHeatmapTest, DisjointSupportsHitTheCeilingExactly) {
  profiles::Heatmap a, b;
  a.add(geo::CellIndex{0, 0}, 3.0);
  a.add(geo::CellIndex{1, 0}, 1.0);
  b.add(geo::CellIndex{5, 5}, 2.0);
  const double ceiling = 2.0 * std::log(2.0);
  // Both paths return the exact constant, so whole-population ties at the
  // ceiling break identically everywhere.
  EXPECT_EQ(profiles::topsoe_divergence(a, b), ceiling);
  EXPECT_EQ(profiles::topsoe_divergence(profiles::CompiledHeatmap(a),
                                        profiles::CompiledHeatmap(b)),
            ceiling);
  // A bound at the ceiling must not prune the disjoint case away.
  EXPECT_EQ(profiles::topsoe_divergence_bounded(
                profiles::CompiledHeatmap(a), profiles::CompiledHeatmap(b),
                ceiling),
            ceiling);
}

TEST_F(CompiledHeatmapTest, BoundedContract) {
  for (std::uint64_t salt = 0; salt < 30; ++salt) {
    const profiles::CompiledHeatmap a(
        random_map(3 * salt, 4 + static_cast<int>(salt % 6)));
    const profiles::CompiledHeatmap b(
        random_map(3 * salt + 1, 3 + static_cast<int>(salt % 4)));
    const double exact = profiles::topsoe_divergence(a, b);
    // Bound >= value: exact result, bit for bit.
    EXPECT_EQ(profiles::topsoe_divergence_bounded(a, b, exact), exact);
    EXPECT_EQ(profiles::topsoe_divergence_bounded(a, b, kInf), exact);
    // Bound < value: anything strictly above the bound (infinity here).
    if (exact > 0.0) {
      EXPECT_GT(profiles::topsoe_divergence_bounded(a, b, exact * 0.5),
                exact * 0.5);
    }
  }
}

// ---------------------------------------- compiled Markov / POI forms ----

Trace shifted_three_places(const std::string& user, double north_m) {
  const GeoPoint home{45.764, 4.8357};
  const GeoPoint work{45.78, 4.87};
  const GeoPoint gym{45.75, 4.81};
  auto at = [&](const GeoPoint& p) {
    return geo::destination(p, 0.0, north_m);
  };
  return trace_of(user, {dwell(at(home), 0, 30), dwell(at(work), 4 * kHour, 20),
                         dwell(at(gym), 8 * kHour, 14),
                         dwell(at(home), 12 * kHour, 30)});
}

TEST(CompiledMarkovProfile, StatsProxBitIdenticalToLegacy) {
  const auto a = profiles::MarkovProfile::from_trace(
      shifted_three_places("a", 0.0));
  for (const double shift : {0.0, 700.0, 3000.0, 12000.0}) {
    const auto b = profiles::MarkovProfile::from_trace(
        shifted_three_places("b", shift));
    const double legacy = profiles::stats_prox_distance(a, b);
    const double compiled = profiles::stats_prox_distance(
        profiles::CompiledMarkovProfile(a),
        profiles::CompiledMarkovProfile(b));
    // Same matching, same accumulation order, cached trig rounds
    // identically: the values must be equal to the last bit.
    EXPECT_EQ(compiled, legacy) << "shift " << shift;
  }
}

TEST(CompiledMarkovProfile, BoundedContract) {
  const profiles::CompiledMarkovProfile a(
      profiles::MarkovProfile::from_trace(shifted_three_places("a", 0.0)));
  const profiles::CompiledMarkovProfile b(
      profiles::MarkovProfile::from_trace(shifted_three_places("b", 5000.0)));
  const double exact = profiles::stats_prox_distance(a, b);
  EXPECT_EQ(profiles::stats_prox_distance_bounded(a, b, 1000.0, exact),
            exact);
  EXPECT_GT(profiles::stats_prox_distance_bounded(a, b, 1000.0, exact * 0.25),
            exact * 0.25);
  const profiles::CompiledMarkovProfile empty;
  EXPECT_EQ(profiles::stats_prox_distance(a, empty), kInf);
}

TEST(CompiledPoiProfile, DistanceBitIdenticalToLegacy) {
  const auto a =
      profiles::PoiProfile::from_trace(shifted_three_places("a", 0.0));
  for (const double shift : {0.0, 700.0, 3000.0, 12000.0}) {
    const auto b =
        profiles::PoiProfile::from_trace(shifted_three_places("b", shift));
    EXPECT_EQ(profiles::poi_profile_distance(profiles::CompiledPoiProfile(a),
                                             profiles::CompiledPoiProfile(b)),
              profiles::poi_profile_distance(a, b))
        << "shift " << shift;
  }
}

TEST(CompiledPoiProfile, BoundedContract) {
  const profiles::CompiledPoiProfile a(
      profiles::PoiProfile::from_trace(shifted_three_places("a", 0.0)));
  const profiles::CompiledPoiProfile b(
      profiles::PoiProfile::from_trace(shifted_three_places("b", 8000.0)));
  const double exact = profiles::poi_profile_distance(a, b);
  EXPECT_EQ(profiles::poi_profile_distance_bounded(a, b, exact), exact);
  EXPECT_GT(profiles::poi_profile_distance_bounded(a, b, exact * 0.5),
            exact * 0.5);
  const profiles::CompiledPoiProfile empty;
  EXPECT_EQ(profiles::poi_profile_distance(empty, b), kInf);
  EXPECT_EQ(profiles::poi_profile_distance(a, empty), kInf);
}

// ------------------------------------- attack decision equivalence ----

/// The naive first-strict-min argmin: the first user attaining the minimum
/// finite distance, nullopt when every distance is infinite. The question
/// every attack answers (paper Eq. 1), asked without compiled profiles,
/// bounds, pruning or an index.
template <typename Profile, typename Distance>
std::optional<mobility::UserId> naive_argmin(
    const std::vector<std::pair<mobility::UserId, Profile>>& profiles,
    const Distance& distance) {
  double best = kInf;
  const mobility::UserId* best_user = nullptr;
  for (const auto& [user, profile] : profiles) {
    const double d = distance(profile);
    if (d < best) {
      best = d;
      best_user = &user;
    }
  }
  if (best_user == nullptr) return std::nullopt;
  return *best_user;
}

/// A trained attack's answer recomputed from scratch.
using Oracle = std::function<std::optional<mobility::UserId>(const Trace&)>;

/// Builds the legacy (uncompiled) profile of every background trace of the
/// harness, in training order, and answers a query with naive_argmin over
/// the legacy distance to the query's legacy profile.
template <typename Profile, typename Build, typename Distance>
Oracle legacy_oracle(const core::ExperimentHarness& harness, Build build,
                     Distance distance) {
  std::vector<std::pair<mobility::UserId, Profile>> profiles;
  for (const auto& pair : harness.pairs()) {
    profiles.emplace_back(pair.train.user(), build(pair.train));
  }
  return [profiles = std::move(profiles), build,
          distance](const Trace& trace) -> std::optional<mobility::UserId> {
    const Profile anonymous = build(trace);
    if (anonymous.empty()) return std::nullopt;
    return naive_argmin(profiles, [&](const Profile& profile) {
      return distance(anonymous, profile);
    });
  };
}

/// The oracle for each attack of the harness, in attacks() order.
std::vector<Oracle> naive_oracles(const core::ExperimentHarness& harness) {
  const attacks::SuiteParams& params = harness.config().attack_params;
  std::vector<Oracle> oracles;
  for (const auto& attack : harness.attacks()) {
    if (const auto* ap = dynamic_cast<const attacks::ApAttack*>(attack.get())) {
      oracles.push_back(legacy_oracle<profiles::Heatmap>(
          harness,
          [grid = ap->grid()](const Trace& trace) {
            return profiles::Heatmap::from_trace(trace, grid);
          },
          [](const profiles::Heatmap& a, const profiles::Heatmap& b) {
            return profiles::topsoe_divergence(a, b);
          }));
    } else if (dynamic_cast<const attacks::PitAttack*>(attack.get())) {
      oracles.push_back(legacy_oracle<profiles::MarkovProfile>(
          harness,
          [poi = params.poi](const Trace& trace) {
            return profiles::MarkovProfile::from_trace(trace, poi);
          },
          [scale = params.pit_proximity_scale_m](
              const profiles::MarkovProfile& a,
              const profiles::MarkovProfile& b) {
            return profiles::stats_prox_distance(a, b, scale);
          }));
    } else if (dynamic_cast<const attacks::PoiAttack*>(attack.get())) {
      oracles.push_back(legacy_oracle<profiles::PoiProfile>(
          harness,
          [poi = params.poi](const Trace& trace) {
            return profiles::PoiProfile::from_trace(trace, poi);
          },
          [](const profiles::PoiProfile& a, const profiles::PoiProfile& b) {
            return profiles::poi_profile_distance(a, b);
          }));
    } else {
      ADD_FAILURE() << "no oracle for " << attack->name();
    }
  }
  return oracles;
}

/// Asks every attack of the harness about `trace` in both query modes and
/// checks it against the naive oracle: reidentify() must return the
/// oracle's answer, and reidentifies_target() must hold exactly for that
/// answer — asked for the true `owner`, a stranger and the answer itself.
/// Leaves the attacks in the production mode (kIndex).
void expect_oracle_agreement(const core::ExperimentHarness& harness,
                             const std::vector<Oracle>& oracles,
                             const Trace& trace,
                             const mobility::UserId& owner) {
  ASSERT_EQ(oracles.size(), harness.attacks().size());
  for (std::size_t a = 0; a < oracles.size(); ++a) {
    const attacks::Attack& attack = *harness.attacks()[a];
    const auto truth = oracles[a](trace);
    std::vector<mobility::UserId> owners = {owner, "nobody-in-training"};
    if (truth.has_value()) owners.push_back(*truth);
    for (const auto mode :
         {attacks::QueryMode::kScan, attacks::QueryMode::kIndex}) {
      harness.set_attack_query_mode(mode);
      const char* label = mode == attacks::QueryMode::kScan ? " (scan)"
                                                            : " (index)";
      EXPECT_EQ(attack.reidentify(trace), truth)
          << attack.name() << label << " on " << owner;
      for (const auto& candidate : owners) {
        EXPECT_EQ(attack.reidentifies_target(trace, candidate),
                  truth.has_value() && *truth == candidate)
            << attack.name() << label << " target " << candidate << " on "
            << owner;
      }
    }
  }
  harness.set_attack_query_mode(attacks::QueryMode::kIndex);
}

/// Trains the standard suite on a population and checks every raw test
/// trace against the naive oracle.
void expect_decision_equivalence(const mobility::Dataset& dataset,
                                 std::size_t min_records = 16) {
  core::ExperimentConfig config;
  config.min_records = min_records;
  const core::ExperimentHarness harness(dataset, config, 7);
  const auto oracles = naive_oracles(harness);
  for (const auto& pair : harness.pairs()) {
    expect_oracle_agreement(harness, oracles, pair.test, pair.test.user());
  }
}

TEST(BoundedScanEquivalence, DistinctPopulation) {
  expect_decision_equivalence(distinct_population(8));
}

TEST(BoundedScanEquivalence, GeneratedPreset) {
  expect_decision_equivalence(
      simulation::make_preset_dataset("privamov", 0.05, 11), 8);
}

/// An 80-user PrivaMov population: past kIndexMinPopulation, so the AP
/// posting bounds actually skip candidates. Every other case here trains
/// fewer users, where AP delegates to the scans.
core::ExperimentHarness pruning_population() {
  auto params = simulation::preset_params("privamov", 0.05, 11);
  params.users = 80;
  core::ExperimentConfig config;
  config.min_records = 8;
  return core::ExperimentHarness(simulation::generate(params), config, 7);
}

const attacks::Attack& ap_attack(const core::ExperimentHarness& harness) {
  return *harness.attacks()[harness.ap_attack_index()];
}

/// Fails unless the AP index pruned some candidate since `before`: a pass
/// that prunes nothing compares the scan with itself.
void expect_ap_index_pruned(const core::ExperimentHarness& harness,
                            const attacks::IndexStats& before) {
  EXPECT_GT(ap_attack(harness).index_stats().pruned_candidates,
            before.pruned_candidates)
      << "the AP index never pruned: the case tests nothing";
}

TEST(BoundedScanEquivalence, PrunedIndexMatchesTheOracle) {
  // Pruning must still skip no candidate the naive argmin would pick.
  const auto harness = pruning_population();
  ASSERT_GE(harness.pairs().size(), attacks::kIndexMinPopulation);
  const auto before = ap_attack(harness).index_stats();
  const auto oracles = naive_oracles(harness);
  for (const auto& pair : harness.pairs()) {
    expect_oracle_agreement(harness, oracles, pair.test, pair.test.user());
  }
  expect_ap_index_pruned(harness, before);
}

TEST(BoundedScanEquivalence, EvaluateMoodFullIndexMatchesScan) {
  // The whole Algorithm 1 pipeline (whole-trace searches, 24 h slicing,
  // every targeted query they issue) must reach the same outcome, search
  // cost included, through the AP index as through the scans.
  const auto harness = pruning_population();
  ASSERT_GE(harness.pairs().size(), attacks::kIndexMinPopulation);
  harness.set_attack_query_mode(attacks::QueryMode::kScan);
  const auto scan =
      std::get<core::MoodResult>(harness.evaluate({"MooD-full"}).rows[0]);
  const auto before = ap_attack(harness).index_stats();
  harness.set_attack_query_mode(attacks::QueryMode::kIndex);
  const auto index =
      std::get<core::MoodResult>(harness.evaluate({"MooD-full"}).rows[0]);

  ASSERT_EQ(scan.users.size(), index.users.size());
  for (std::size_t i = 0; i < scan.users.size(); ++i) {
    const auto& s = scan.users[i];
    const auto& x = index.users[i];
    ASSERT_EQ(s.user, x.user) << "user order differs at " << i;
    EXPECT_EQ(s.level, x.level) << s.user;
    EXPECT_EQ(s.winner, x.winner) << s.user;
    EXPECT_EQ(s.records, x.records) << s.user;
    EXPECT_EQ(s.lost_records, x.lost_records) << s.user;
    EXPECT_EQ(s.subtraces, x.subtraces) << s.user;
    EXPECT_EQ(s.protected_subtraces, x.protected_subtraces) << s.user;
    EXPECT_EQ(s.distortion, x.distortion) << s.user;
    EXPECT_EQ(s.lppm_applications, x.lppm_applications) << s.user;
    EXPECT_EQ(s.attack_invocations, x.attack_invocations) << s.user;
  }
  EXPECT_EQ(scan.data_loss(), index.data_loss());
  EXPECT_EQ(scan.distortion_bands(), index.distortion_bands());
  expect_ap_index_pruned(harness, before);
}

/// Asks the harness's attack of type `A` about every owner's test trace:
/// its targeted query must agree with its argmin, and every call with a
/// non-empty anonymous profile must count one scan query that prunes
/// nothing.
template <typename A>
void expect_scan_answers_every_owner(const core::ExperimentHarness& harness) {
  const A* attack = nullptr;
  for (const auto& candidate : harness.attacks()) {
    if (const auto* typed = dynamic_cast<const A*>(candidate.get())) {
      attack = typed;
    }
  }
  ASSERT_NE(attack, nullptr);
  const attacks::IndexStats before = attack->index_stats();
  std::uint64_t calls = 0;
  std::size_t owned = 0;
  for (const auto& pair : harness.pairs()) {
    // An empty anonymous profile answers no one without a query.
    if (attacks::Candidate(pair.test).poi(attack->params()).empty()) continue;
    const mobility::UserId& owner = pair.test.user();
    const bool owns = attack->reidentify(pair.test) == owner;
    EXPECT_EQ(attack->reidentifies_target(pair.test, owner), owns)
        << attack->name() << " on " << owner;
    calls += 2;
    owned += owns ? 1 : 0;
  }
  const attacks::IndexStats after = attack->index_stats();
  EXPECT_EQ(after.queries - before.queries, calls) << attack->name();
  EXPECT_GT(after.exact_evaluations, before.exact_evaluations)
      << attack->name();
  EXPECT_EQ(after.pruned_candidates, 0u) << attack->name();
  EXPECT_EQ(after.rebuilds, 0u) << attack->name();
  // Not vacuous: both verdicts occur.
  EXPECT_GT(owned, 0u) << attack->name();
  EXPECT_LT(owned, calls / 2) << attack->name();
}

TEST(BoundedScanEquivalence, PoiAndPitScansAnswerEveryOwner) {
  // POI and PIT answer by the bounded scans at every population size,
  // past kIndexMinPopulation included.
  const auto harness = pruning_population();
  ASSERT_GE(harness.pairs().size(), attacks::kIndexMinPopulation);
  expect_scan_answers_every_owner<attacks::PoiAttack>(harness);
  expect_scan_answers_every_owner<attacks::PitAttack>(harness);
}

TEST(BoundedScanEquivalence, ObfuscatedTraces) {
  // Decisions must also agree on protected outputs (where near-ties and
  // no-match cases live), not just raw traces.
  const auto dataset = distinct_population(6);
  core::ExperimentConfig config;
  const core::ExperimentHarness harness(dataset, config, 7);
  const auto oracles = naive_oracles(harness);
  for (const auto* single : harness.registry().singles()) {
    for (const auto& pair : harness.pairs()) {
      // The output the harness publishes for this single (seed 7).
      const Trace output = lppm::apply_keyed(
          *single, pair.test, support::RngStream(7).fork(pair.test.user()));
      expect_oracle_agreement(harness, oracles, output, pair.test.user());
    }
  }
}

TEST(BoundedScanEquivalence, TwinUsersTieBreaksToFirstTrained) {
  // Two users with byte-identical traces: every distance ties exactly, and
  // the first trained profile must win in the oracle and in both modes.
  mobility::Dataset dataset("twins");
  const auto day = [&](const std::string& user) {
    std::vector<mobility::Record> records;
    for (int d = 0; d < 4; ++d) {
      auto r1 = dwell(GeoPoint{45.0, 5.0},
                      d * 24 * kHour, 30);
      auto r2 = dwell(GeoPoint{45.02, 5.03}, d * 24 * kHour + 9 * kHour, 30);
      records.insert(records.end(), r1.begin(), r1.end());
      records.insert(records.end(), r2.begin(), r2.end());
    }
    return Trace(user, std::move(records));
  };
  dataset.add(day("twinA"));
  dataset.add(day("twinB"));
  dataset.add(day("loner"));  // so scans have a third profile

  core::ExperimentConfig config;
  config.min_records = 8;
  const core::ExperimentHarness harness(dataset, config, 7);
  const auto oracles = naive_oracles(harness);
  const auto& twin_b_test = harness.pairs()[1].test;
  ASSERT_EQ(twin_b_test.user(), "twinB");
  for (std::size_t a = 0; a < oracles.size(); ++a) {
    EXPECT_EQ(oracles[a](twin_b_test), std::optional<mobility::UserId>("twinA"))
        << harness.attacks()[a]->name();
  }
  expect_oracle_agreement(harness, oracles, twin_b_test, "twinB");
}

TEST(BoundedScanEquivalence, EmptyAnonymousProfileNeverReidentifies) {
  const auto dataset = distinct_population(4);
  core::ExperimentConfig config;
  const core::ExperimentHarness harness(dataset, config, 7);
  const auto oracles = naive_oracles(harness);
  // Two records moving fast: no POIs, and (being only two samples) a
  // heatmap that matches nobody meaningfully; the empty trace exercises
  // the no-profile path everywhere.
  const Trace sparse("user0", {testing::rec(44.0, 4.0, 0),
                               testing::rec(44.5, 4.5, kHour)});
  const Trace empty("user0", {});
  for (const auto mode :
       {attacks::QueryMode::kScan, attacks::QueryMode::kIndex}) {
    harness.set_attack_query_mode(mode);
    for (const auto& attack : harness.attacks()) {
      EXPECT_FALSE(attack->reidentifies_target(empty, "user0"))
          << attack->name();
      EXPECT_EQ(attack->reidentify(empty), std::nullopt) << attack->name();
      if (attack->name() != "AP-Attack") {
        // POI-based profiles cannot form from a 2-record sprint.
        EXPECT_EQ(attack->reidentify(sparse), std::nullopt)
            << attack->name();
      }
    }
  }
  expect_oracle_agreement(harness, oracles, empty, "user0");
  expect_oracle_agreement(harness, oracles, sparse, "user0");
}

// --------------------------------------------- one compiled candidate ----

void expect_same_markov(const profiles::CompiledMarkovProfile& actual,
                        const profiles::CompiledMarkovProfile& expected,
                        const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (std::size_t s = 0; s < expected.size(); ++s) {
    const auto& a = actual.states()[s];
    const auto& e = expected.states()[s];
    ASSERT_EQ(a.weight, e.weight) << label;
    ASSERT_EQ(a.center.lat_rad, e.center.lat_rad) << label;
    ASSERT_EQ(a.center.lon_deg, e.center.lon_deg) << label;
    ASSERT_EQ(a.center.cos_lat, e.center.cos_lat) << label;
  }
}

void expect_same_poi(const profiles::CompiledPoiProfile& actual,
                     const profiles::CompiledPoiProfile& expected,
                     const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (std::size_t c = 0; c < expected.size(); ++c) {
    ASSERT_EQ(actual.centers()[c].lat_rad, expected.centers()[c].lat_rad)
        << label;
    ASSERT_EQ(actual.centers()[c].lon_deg, expected.centers()[c].lon_deg)
        << label;
    ASSERT_EQ(actual.centers()[c].cos_lat, expected.centers()[c].cos_lat)
        << label;
  }
}

TEST(OneCompiledCandidate, EverySearchedOutputMatchesTheLegacyOracle) {
  // Every output search() applies on the PrivaMov windows, singles and
  // compositions: one Candidate per output must answer each attack as the
  // naive legacy oracle does, its shared stay extraction must compile
  // exactly the legacy POI and Markov forms, and the predicate must ask
  // exactly the attacks an early-exit walk asks.
  const auto harness = pruning_population();
  const auto oracles = naive_oracles(harness);
  const decision::MoodEngine engine = harness.make_engine();
  const clustering::PoiParams& stays = harness.config().attack_params.poi;
  const auto compositions = harness.registry().multi_compositions();
  std::vector<const lppm::Lppm*> mechanisms = harness.registry().singles();
  for (const auto& composition : compositions) {
    mechanisms.push_back(&composition);
  }
  std::size_t outputs = 0;
  std::size_t stayless = 0;  // outputs through GeoI without a stay
  std::size_t protecting = 0;
  for (const auto& pair : harness.pairs()) {
    const Trace& trace = pair.test;
    const mobility::UserId& owner = trace.user();
    for (const lppm::Lppm* mechanism : mechanisms) {
      // MoodEngine's noise streams: the owner's, keyed per stage by
      // (mechanism prefix, start time).
      const Trace output = lppm::apply_keyed(
          *mechanism, trace,
          support::RngStream(engine.config().seed).fork(owner));
      const std::string label = mechanism->name() + " on " + owner;
      if (const auto kept = engine.recheck(mechanism->name(), trace)) {
        // Pins the stream above to the one search() draws from.
        ASSERT_EQ(kept->output, output) << label;
        ++protecting;
      }
      const attacks::Candidate candidate(output);
      expect_same_markov(
          candidate.markov(stays),
          profiles::CompiledMarkovProfile(
              profiles::MarkovProfile::from_trace(output, stays)),
          label);
      expect_same_poi(candidate.poi(stays),
                      profiles::CompiledPoiProfile(
                          profiles::PoiProfile::from_trace(output, stays)),
                      label);
      if (candidate.poi(stays).empty() &&
          mechanism->name().find("GeoI") != std::string::npos) {
        ++stayless;
      }

      std::size_t walked = 0;
      bool caught = false;
      for (std::size_t a = 0; a < oracles.size(); ++a) {
        const bool truth = oracles[a](output) == owner;
        EXPECT_EQ(harness.attacks()[a]->reidentifies_target(candidate, owner),
                  truth)
            << harness.attacks()[a]->name() << ", " << label;
        if (!caught) {
          ++walked;
          caught = truth;
        }
      }
      std::size_t asked = 0;
      EXPECT_EQ(attacks::any_reidentifies(engine.attacks(), candidate, owner,
                                          &asked),
                caught)
          << label;
      EXPECT_EQ(asked, walked) << label;
      ++outputs;
    }
  }
  // Not vacuous: outputs that defeat every attack, and outputs through
  // GeoI from which no stay survives (here those of its compositions with
  // TRL).
  EXPECT_EQ(outputs, harness.pairs().size() * mechanisms.size());
  EXPECT_GT(protecting, 0u);
  EXPECT_GT(stayless, 0u);
}

// ---------------------------------------------- Eq. 1 contract --------

TEST(PrivacyContract, GatewayVerdictsHoldAgainstTheLegacyOracles) {
  // Every final verdict checked against its definition (paper Eq. 1), not
  // through the compiled candidates, pruning or the search that produced
  // it. A protect verdict's winner is re-applied by name, its stages
  // resolved through the registry, with the engine's streams: no legacy-
  // profile oracle may name the owner from that output. An exposed raw
  // trace must be named by no oracle, and an at-risk one by some oracle.
  const auto harness = pruning_population();
  const auto oracles = naive_oracles(harness);
  const std::uint64_t seed = harness.make_engine().config().seed;
  const auto named = [&](const Trace& trace, const mobility::UserId& owner) {
    return std::any_of(oracles.begin(), oracles.end(),
                       [&](const Oracle& oracle) {
                         return oracle(trace) == owner;
                       });
  };
  const core::GatewayResult result = harness.evaluate_gateway();
  ASSERT_EQ(result.users.size(), harness.pairs().size());
  std::size_t exposed = 0;
  std::size_t protected_by_single = 0;
  std::size_t protected_by_composition = 0;
  std::size_t without_winner = 0;  // at risk, and nothing protects
  for (std::size_t i = 0; i < result.users.size(); ++i) {
    const Trace& trace = harness.pairs()[i].test;
    const core::GatewayOutcome& outcome = result.users[i];
    ASSERT_EQ(outcome.user, trace.user());
    if (outcome.decision == decision::Decision::kExpose) {
      EXPECT_FALSE(named(trace, outcome.user)) << outcome.user;
      ++exposed;
      continue;
    }
    EXPECT_TRUE(named(trace, outcome.user)) << outcome.user;
    if (outcome.winner.empty()) {
      ++without_winner;
      continue;
    }
    std::vector<const lppm::Lppm*> stages;
    std::string_view rest = outcome.winner;
    while (!rest.empty()) {
      const std::size_t plus = std::min(rest.find('+'), rest.size());
      const lppm::Lppm* stage =
          harness.registry().find(std::string(rest.substr(0, plus)));
      ASSERT_NE(stage, nullptr) << outcome.winner;
      stages.push_back(stage);
      rest.remove_prefix(std::min(plus + 1, rest.size()));
    }
    const lppm::Composition mechanism(stages);
    const Trace output =
        mechanism.apply(trace, support::RngStream(seed).fork(outcome.user));
    EXPECT_FALSE(named(output, outcome.user))
        << outcome.winner << " on " << outcome.user;
    ++(stages.size() == 1 ? protected_by_single : protected_by_composition);
  }
  // Not vacuous: every kind of verdict occurs.
  EXPECT_GT(exposed, 0u);
  EXPECT_GT(protected_by_single, 0u);
  EXPECT_GT(protected_by_composition, 0u);
  EXPECT_GT(without_winner, 0u);
}

// ------------------------------------------------ determinism ----------

TEST(EvaluatorDeterminism, ParallelMoodFullMatchesSerialReconstruction) {
  // evaluate() fans users across the shared pool; its MooD-full rows must
  // equal a serial per-user reconstruction (the engine is pure), which
  // makes the result independent of worker count and scheduling (--jobs 1
  // vs --jobs N agree; the CI smoke also checks that across processes).
  const auto dataset = distinct_population(6);
  core::ExperimentConfig config;
  const core::ExperimentHarness harness(dataset, config, 7);
  const auto parallel =
      std::get<core::MoodResult>(harness.evaluate({"MooD-full"}).rows[0]);
  const auto engine = harness.make_engine();
  ASSERT_EQ(parallel.users.size(), harness.pairs().size());
  for (std::size_t i = 0; i < harness.pairs().size(); ++i) {
    const auto& pair = harness.pairs()[i];
    const auto& outcome = parallel.users[i];
    EXPECT_EQ(outcome.user, pair.test.user());
    core::ProtectionResult cost;
    if (const auto whole = engine.search(pair.test, &cost)) {
      EXPECT_EQ(outcome.winner, whole->lppm);
      EXPECT_EQ(outcome.level, whole->level);
      EXPECT_EQ(outcome.distortion, whole->distortion);
      EXPECT_EQ(outcome.lost_records, 0u);
    } else {
      EXPECT_EQ(outcome.level, core::ProtectionLevel::kFineGrained);
    }
  }
  // And a second parallel run is bit-identical.
  const auto again =
      std::get<core::MoodResult>(harness.evaluate({"MooD-full"}).rows[0]);
  for (std::size_t i = 0; i < parallel.users.size(); ++i) {
    EXPECT_EQ(parallel.users[i].winner, again.users[i].winner);
    EXPECT_EQ(parallel.users[i].distortion, again.users[i].distortion);
    EXPECT_EQ(parallel.users[i].lost_records, again.users[i].lost_records);
    EXPECT_EQ(parallel.users[i].attack_invocations,
              again.users[i].attack_invocations);
  }
}

}  // namespace
}  // namespace mood
