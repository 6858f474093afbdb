// Property suite for attacks::PopulationIndex (the sublinear
// re-identification index): fuzzes the summaries.h admissibility contract
// over random and adversarially tied profiles, asserts index-vs-scan
// decision identity on populations with duplicates, ties and empty
// profiles, and checks coherence under in-place apply_update (including
// the forced periodic rebuild).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "attacks/bounded_scan.h"
#include "attacks/population_index.h"
#include "geo/cell_grid.h"
#include "profiles/heatmap.h"
#include "profiles/markov_profile.h"
#include "profiles/poi_profile.h"
#include "profiles/summaries.h"
#include "support/rng.h"
#include "test_helpers.h"

namespace mood {
namespace {

using geo::GeoPoint;
using mobility::Record;
using mobility::Timestamp;
using mobility::Trace;
using support::RngStream;

constexpr double kInf = std::numeric_limits<double>::infinity();
const GeoPoint kCity{45.76, 4.83};

/// A trace that dwells: a handful of anchor hotspots around the city,
/// visited in random order with >1h stays, so POI extraction and the
/// Markov chain produce multi-state profiles. A shared downtown anchor is
/// mixed in half the time — the adversarial shape the two-ball covers
/// exist for.
Trace hotspot_trace(RngStream& rng, const std::string& user) {
  std::vector<GeoPoint> anchors;
  const std::size_t hotspots = 1 + rng.uniform_index(4);
  for (std::size_t h = 0; h < hotspots; ++h) {
    anchors.push_back(geo::destination(kCity, rng.uniform(0.0, 2.0 * geo::kPi),
                                       rng.uniform(500.0, 20000.0)));
  }
  if (rng.uniform_index(2) == 0) anchors.push_back(kCity);  // shared downtown
  std::vector<Record> records;
  Timestamp t = 0;
  const std::size_t visits = 3 + rng.uniform_index(6);
  for (std::size_t v = 0; v < visits; ++v) {
    const GeoPoint p =
        geo::destination(anchors[rng.uniform_index(anchors.size())],
                         rng.uniform(0.0, 2.0 * geo::kPi),
                         rng.uniform(0.0, 40.0));
    for (const auto& r : testing::dwell(p, t, 15)) records.push_back(r);
    t += 16 * mobility::kHour;
  }
  return Trace(user, std::move(records));
}

geo::CellGrid city_grid() {
  return geo::CellGrid(geo::LocalProjection(kCity), 800.0);
}

// ----------------------------------------- admissibility fuzz: Topsoe --

class SummaryAdmissibility : public ::testing::TestWithParam<int> {};

TEST_P(SummaryAdmissibility, TopsoeBoundNeverExceedsExact) {
  RngStream rng(GetParam());
  const geo::CellGrid grid = city_grid();
  for (int it = 0; it < 40; ++it) {
    const Trace ta = hotspot_trace(rng, "a");
    // Adversarial ties one third of the time: an identical trace, whose
    // divergence is exactly zero — the bound must come out <= 0.
    const Trace tb = it % 3 == 0 ? Trace("b", std::vector<Record>(
                                                  ta.records().begin(),
                                                  ta.records().end()))
                                 : hotspot_trace(rng, "b");
    const auto a = profiles::CompiledHeatmap::from_trace(ta, grid);
    const auto b = profiles::CompiledHeatmap::from_trace(tb, grid);
    const double exact = profiles::topsoe_divergence(a, b);
    const double lb =
        profiles::topsoe_lower_bound(profiles::summarize(a),
                                     profiles::summarize(b));
    ASSERT_LE(lb, exact) << "iteration " << it;
  }
}

TEST_P(SummaryAdmissibility, PoiBoundNeverExceedsExact) {
  RngStream rng(GetParam());
  for (int it = 0; it < 40; ++it) {
    const Trace ta = hotspot_trace(rng, "a");
    const Trace tb = it % 3 == 0 ? Trace("b", std::vector<Record>(
                                                  ta.records().begin(),
                                                  ta.records().end()))
                                 : hotspot_trace(rng, "b");
    const auto a = profiles::CompiledPoiProfile::incremental(ta);
    const auto b = profiles::CompiledPoiProfile::incremental(tb);
    const auto sa = profiles::summarize(a);
    const auto sb = profiles::summarize(b);
    // The bound is asymmetric (first argument = query); check both
    // orientations against their own exact distance.
    ASSERT_LE(profiles::poi_profile_lower_bound(sa, sb),
              profiles::poi_profile_distance(a, b))
        << "iteration " << it;
    ASSERT_LE(profiles::poi_profile_lower_bound(sb, sa),
              profiles::poi_profile_distance(b, a))
        << "iteration " << it;
  }
}

TEST_P(SummaryAdmissibility, StatsProxBoundNeverExceedsExact) {
  RngStream rng(GetParam());
  for (int it = 0; it < 40; ++it) {
    const Trace ta = hotspot_trace(rng, "a");
    const Trace tb = it % 3 == 0 ? Trace("b", std::vector<Record>(
                                                  ta.records().begin(),
                                                  ta.records().end()))
                                 : hotspot_trace(rng, "b");
    const auto a = profiles::CompiledMarkovProfile::incremental(ta);
    const auto b = profiles::CompiledMarkovProfile::incremental(tb);
    const auto sa = profiles::summarize(a);
    const auto sb = profiles::summarize(b);
    ASSERT_LE(profiles::stats_prox_lower_bound(sa, sb, 1000.0),
              profiles::stats_prox_distance(a, b, 1000.0))
        << "iteration " << it;
    ASSERT_LE(profiles::stats_prox_lower_bound(sb, sa, 1000.0),
              profiles::stats_prox_distance(b, a, 1000.0))
        << "iteration " << it;
  }
}

TEST_P(SummaryAdmissibility, BoundStaysBelowExactAfterApplyUpdate) {
  RngStream rng(GetParam());
  for (int it = 0; it < 15; ++it) {
    std::vector<Record> base = hotspot_trace(rng, "a").records();
    const std::vector<Record> extra =
        hotspot_trace(rng, "a").records();  // fresh hotspots to fold in
    auto poi = profiles::CompiledPoiProfile::incremental(
        Trace("a", std::vector<Record>(base)));
    auto markov = profiles::CompiledMarkovProfile::incremental(
        Trace("a", std::vector<Record>(base)));
    const Timestamp shift = base.back().time + mobility::kHour;
    for (const auto& r : extra) {
      base.push_back(Record{r.position, r.time + shift});
    }
    const Trace window("a", std::vector<Record>(base));
    poi.apply_update(window, extra.size(), 0);
    markov.apply_update(window, extra.size(), 0);

    const Trace tb = hotspot_trace(rng, "b");
    const auto poi_b = profiles::CompiledPoiProfile::incremental(tb);
    const auto markov_b = profiles::CompiledMarkovProfile::incremental(tb);
    ASSERT_LE(profiles::poi_profile_lower_bound(profiles::summarize(poi_b),
                                                profiles::summarize(poi)),
              profiles::poi_profile_distance(poi_b, poi))
        << "iteration " << it;
    ASSERT_LE(
        profiles::stats_prox_lower_bound(profiles::summarize(markov_b),
                                         profiles::summarize(markov), 1000.0),
        profiles::stats_prox_distance(markov_b, markov, 1000.0))
        << "iteration " << it;
  }
}

TEST_P(SummaryAdmissibility, CoversContainTheirOwnPoints) {
  RngStream rng(GetParam());
  for (int it = 0; it < 20; ++it) {
    const auto profile =
        profiles::CompiledPoiProfile::incremental(hotspot_trace(rng, "a"));
    const auto summary = profiles::summarize(profile);
    for (const auto& p : summary.centers) {
      EXPECT_EQ(profiles::point_ball_separation_m(p, summary.ball), 0.0);
      EXPECT_EQ(profiles::point_cover_separation_m(p, summary.cover), 0.0);
    }
  }
}

TEST_P(SummaryAdmissibility, EmptyProfilesBoundToInfinity) {
  RngStream rng(GetParam());
  const geo::CellGrid grid = city_grid();
  const auto full_map =
      profiles::CompiledHeatmap::from_trace(hotspot_trace(rng, "a"), grid);
  const auto empty_map = profiles::CompiledHeatmap();
  EXPECT_EQ(profiles::topsoe_lower_bound(profiles::summarize(full_map),
                                         profiles::summarize(empty_map)),
            kInf);
  const auto full_poi =
      profiles::CompiledPoiProfile::incremental(hotspot_trace(rng, "b"));
  EXPECT_EQ(profiles::poi_profile_lower_bound(
                profiles::summarize(full_poi),
                profiles::summarize(profiles::CompiledPoiProfile())),
            kInf);
  const auto full_markov =
      profiles::CompiledMarkovProfile::incremental(hotspot_trace(rng, "c"));
  EXPECT_EQ(profiles::stats_prox_lower_bound(
                profiles::summarize(full_markov),
                profiles::summarize(profiles::CompiledMarkovProfile()),
                1000.0),
            kInf);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SummaryAdmissibility,
                         ::testing::Values(7, 42, 1234, 90210));

// --------------------------------------- index-vs-scan decision identity --

/// Asserts argmin and is_first_argmin agree with the linear scans for one
/// query, for every trained owner plus an unknown one.
template <typename Traits, typename Profile, typename Exact, typename Bounded>
void expect_index_matches_scan(
    const attacks::PopulationIndex<Traits>& index,
    const std::vector<std::pair<mobility::UserId, Profile>>& population,
    const Profile& query, const Exact& exact,
    const Bounded& bounded) {
  EXPECT_EQ(index.argmin(query, bounded),
            attacks::scan_argmin(population, bounded));
  std::vector<mobility::UserId> owners{"ghost"};
  for (const auto& [user, profile] : population) owners.push_back(user);
  for (const auto& owner : owners) {
    EXPECT_EQ(index.is_first_argmin(query, owner, exact, bounded),
              attacks::scan_is_first_argmin(population, owner, exact, bounded))
        << "owner " << owner;
  }
}

class IndexDecisionIdentity : public ::testing::TestWithParam<int> {};

TEST_P(IndexDecisionIdentity, PoiIndexMatchesScans) {
  RngStream rng(GetParam());
  std::vector<std::pair<mobility::UserId, profiles::CompiledPoiProfile>>
      population;
  for (int u = 0; u < 70; ++u) {
    const std::string user = "u" + std::to_string(u);
    population.emplace_back(
        user, profiles::CompiledPoiProfile::incremental(
                  hotspot_trace(rng, user)));
  }
  population.emplace_back("empty", profiles::CompiledPoiProfile());
  // Duplicate id (first occurrence must own) and duplicate profile under a
  // second id (a forced exact tie the first-strict-min rule arbitrates).
  population.emplace_back("u3", population[5].second);
  population.emplace_back("twin", population[7].second);

  attacks::PopulationIndex<attacks::PoiIndexTraits> index;
  index.build(population);
  for (int q = 0; q < 12; ++q) {
    // Every third query is a member profile verbatim: a guaranteed tie.
    const auto query = q % 3 == 0
                           ? population[static_cast<std::size_t>(q)].second
                           : profiles::CompiledPoiProfile::incremental(
                                 hotspot_trace(rng, "q"));
    expect_index_matches_scan(
        index, population, query,
        [&](const profiles::CompiledPoiProfile& p) {
          return profiles::poi_profile_distance(query, p);
        },
        [&](const profiles::CompiledPoiProfile& p, double bound) {
          return profiles::poi_profile_distance_bounded(query, p, bound);
        });
  }
}

TEST_P(IndexDecisionIdentity, PitIndexMatchesScans) {
  RngStream rng(GetParam());
  std::vector<std::pair<mobility::UserId, profiles::CompiledMarkovProfile>>
      population;
  for (int u = 0; u < 70; ++u) {
    const std::string user = "u" + std::to_string(u);
    population.emplace_back(
        user, profiles::CompiledMarkovProfile::incremental(
                  hotspot_trace(rng, user)));
  }
  population.emplace_back("empty", profiles::CompiledMarkovProfile());
  population.emplace_back("u3", population[5].second);
  population.emplace_back("twin", population[7].second);

  attacks::PopulationIndex<attacks::PitIndexTraits> index(
      attacks::PitIndexTraits{1000.0});
  index.build(population);
  for (int q = 0; q < 12; ++q) {
    const auto query = q % 3 == 0
                           ? population[static_cast<std::size_t>(q)].second
                           : profiles::CompiledMarkovProfile::incremental(
                                 hotspot_trace(rng, "q"));
    expect_index_matches_scan(
        index, population, query,
        [&](const profiles::CompiledMarkovProfile& p) {
          return profiles::stats_prox_distance(query, p, 1000.0);
        },
        [&](const profiles::CompiledMarkovProfile& p, double bound) {
          return profiles::stats_prox_distance_bounded(query, p, 1000.0,
                                                       bound);
        });
  }
}

TEST_P(IndexDecisionIdentity, ApIndexMatchesScansAndStaysCoherentUnderUpdates) {
  RngStream rng(GetParam());
  const geo::CellGrid grid = city_grid();
  std::vector<std::pair<mobility::UserId, profiles::CompiledHeatmap>>
      population;
  for (int u = 0; u < 70; ++u) {
    const std::string user = "u" + std::to_string(u);
    population.emplace_back(user, profiles::CompiledHeatmap::incremental(
                                      hotspot_trace(rng, user), grid));
  }
  population.emplace_back("empty", profiles::CompiledHeatmap());
  population.emplace_back("u3", population[5].second);
  population.emplace_back("twin", population[7].second);

  attacks::PopulationIndex<attacks::ApIndexTraits> index;
  index.build(population);

  const auto check = [&](const profiles::CompiledHeatmap& query) {
    expect_index_matches_scan(
        index, population, query,
        [&](const profiles::CompiledHeatmap& p) {
          return profiles::topsoe_divergence(query, p);
        },
        [&](const profiles::CompiledHeatmap& p, double bound) {
          return profiles::topsoe_divergence_bounded(query, p, bound);
        });
  };
  for (int q = 0; q < 8; ++q) {
    check(q % 3 == 0 ? population[static_cast<std::size_t>(q)].second
                     : profiles::CompiledHeatmap::from_trace(
                           hotspot_trace(rng, "q"), grid));
  }

  // In-place mutations: fold fresh records into random entries, tell the
  // index, and require identity to hold against the mutated population.
  for (int round = 0; round < 10; ++round) {
    const std::size_t i = rng.uniform_index(70);
    population[i].second.apply_update(hotspot_trace(rng, "delta").records(),
                                      {}, grid);
    population[i].second.compile();
    index.update(i);
  }
  for (int q = 0; q < 6; ++q) {
    check(q % 2 == 0 ? population[static_cast<std::size_t>(2 * q)].second
                     : profiles::CompiledHeatmap::from_trace(
                           hotspot_trace(rng, "q2"), grid));
  }
}

TEST_P(IndexDecisionIdentity, SmallPopulationsDelegateToTheScans) {
  RngStream rng(GetParam());
  const geo::CellGrid grid = city_grid();
  std::vector<std::pair<mobility::UserId, profiles::CompiledHeatmap>>
      population;
  for (int u = 0; u < 8; ++u) {  // far below kIndexMinPopulation
    const std::string user = "u" + std::to_string(u);
    population.emplace_back(user, profiles::CompiledHeatmap::incremental(
                                      hotspot_trace(rng, user), grid));
  }
  attacks::PopulationIndex<attacks::ApIndexTraits> index;
  index.build(population);
  for (int round = 0; round < 4; ++round) {
    const std::size_t i = rng.uniform_index(population.size());
    population[i].second.apply_update(hotspot_trace(rng, "delta").records(),
                                      {}, grid);
    population[i].second.compile();
    index.update(i);
  }
  const auto query =
      profiles::CompiledHeatmap::from_trace(hotspot_trace(rng, "q"), grid);
  const auto exact = [&](const profiles::CompiledHeatmap& p) {
    return profiles::topsoe_divergence(query, p);
  };
  const auto bounded = [&](const profiles::CompiledHeatmap& p, double bound) {
    return profiles::topsoe_divergence_bounded(query, p, bound);
  };
  expect_index_matches_scan(index, population, query, exact, bounded);

  // Delegated queries keep the counters exactly: one query per call, one
  // exact evaluation per distance the scan prices, no prunes.
  const attacks::IndexStats before = index.stats();
  EXPECT_EQ(before.pruned_candidates, 0u);
  std::uint64_t queries = 1;
  (void)index.argmin(query, bounded);
  // The branch-and-bound argmin prices every candidate (with a bound).
  std::uint64_t priced = population.size();
  const auto counted_exact = [&](const profiles::CompiledHeatmap& p) {
    ++priced;
    return exact(p);
  };
  const auto counted_bounded = [&](const profiles::CompiledHeatmap& p,
                                   double bound) {
    ++priced;
    return bounded(p, bound);
  };
  std::vector<mobility::UserId> owners{"ghost"};
  for (const auto& [user, profile] : population) owners.push_back(user);
  for (const auto& owner : owners) {
    (void)index.is_first_argmin(query, owner, exact, bounded);
    ++queries;
    (void)attacks::scan_is_first_argmin(population, owner, counted_exact,
                                        counted_bounded);
  }
  const attacks::IndexStats after = index.stats();
  EXPECT_EQ(after.queries - before.queries, queries);
  EXPECT_EQ(after.exact_evaluations - before.exact_evaluations, priced);
  EXPECT_EQ(after.pruned_candidates, 0u);
  // Not vacuous: the argmin's winner, asked as owner, walks the whole
  // population unbeaten.
  EXPECT_GE(priced, 2 * population.size());
}

TEST_P(IndexDecisionIdentity, PeriodicRebuildFiresAndPreservesDecisions) {
  RngStream rng(GetParam());
  const geo::CellGrid grid = city_grid();
  std::vector<std::pair<mobility::UserId, profiles::CompiledHeatmap>>
      population;
  for (int u = 0; u < 64; ++u) {  // exactly kIndexMinPopulation
    const std::string user = "u" + std::to_string(u);
    population.emplace_back(user, profiles::CompiledHeatmap::incremental(
                                      hotspot_trace(rng, user), grid));
  }
  attacks::PopulationIndex<attacks::ApIndexTraits> index;
  index.build(population);
  ASSERT_EQ(index.stats().rebuilds, 1u);
  // size() updates force a hygiene rebuild (the stream cost model reads
  // the same counter as index_rebuilds).
  for (int round = 0; round < 64; ++round) {
    const std::size_t i = rng.uniform_index(population.size());
    population[i].second.apply_update(hotspot_trace(rng, "delta").records(),
                                      {}, grid);
    population[i].second.compile();
    index.update(i);
  }
  EXPECT_GE(index.stats().rebuilds, 2u);
  const auto query =
      profiles::CompiledHeatmap::from_trace(hotspot_trace(rng, "q"), grid);
  expect_index_matches_scan(
      index, population, query,
      [&](const profiles::CompiledHeatmap& p) {
        return profiles::topsoe_divergence(query, p);
      },
      [&](const profiles::CompiledHeatmap& p, double bound) {
        return profiles::topsoe_divergence_bounded(query, p, bound);
      });
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexDecisionIdentity,
                         ::testing::Values(3, 11, 2026));

}  // namespace
}  // namespace mood
