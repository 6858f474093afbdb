// Property suite for the AP attack's per-cell posting index, the one
// pruning index: fuzzes the summaries.h Topsoe admissibility contract over
// random, adversarially tied, single-cell, disjoint and apply_update-edited
// heatmaps, asserts index-vs-scan decision identity on populations with
// duplicates, ties and empty profiles, and checks that concurrent AP
// queries answer and count exactly as a serial run.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attacks/ap_attack.h"
#include "attacks/bounded_scan.h"
#include "geo/cell_grid.h"
#include "profiles/heatmap.h"
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
/// visited in random order with >1h stays, so its heatmap spans several
/// cells. A shared downtown anchor is mixed in half the time, so many
/// heatmaps overlap there.
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

/// `trace`'s heatmap on the attack's grid, compiled exactly as a
/// Candidate and train() compile it.
profiles::CompiledHeatmap compile(const attacks::ApAttack& attack,
                                  const Trace& trace) {
  return profiles::CompiledHeatmap::from_trace(trace, attack.grid());
}

/// The targeted query over `query`, a heatmap of `trace` compiled from it
/// or edited into it by apply_update, handed to the candidate as the
/// decision kernel hands its own.
bool owns(const attacks::ApAttack& attack, const Trace& trace,
          const profiles::CompiledHeatmap& query,
          const mobility::UserId& owner) {
  attacks::Candidate candidate(trace);
  candidate.use_heatmap(query, attack.grid());
  return attack.reidentifies_target(candidate, owner);
}

/// The population ApAttack::train(background) indexes, entry for entry.
std::vector<std::pair<mobility::UserId, profiles::CompiledHeatmap>>
compiled_population(const attacks::ApAttack& attack,
                    const std::vector<Trace>& background) {
  std::vector<std::pair<mobility::UserId, profiles::CompiledHeatmap>>
      population;
  for (const auto& trace : background) {
    population.emplace_back(trace.user(), compile(attack, trace));
  }
  return population;
}

/// `trace`'s heatmap with every count nudged up or down by a relative
/// 1e-12: a near-tie whose exact divergence lies far below rounding.
profiles::CompiledHeatmap near_tie(const Trace& trace,
                                   const geo::CellGrid& grid,
                                   RngStream& rng) {
  const auto source = profiles::Heatmap::from_trace(trace, grid);
  profiles::Heatmap jittered;
  for (const auto& [cell, count] : source.counts()) {
    const double nudge = rng.uniform_index(2) == 0 ? -1e-12 : 1e-12;
    jittered.add(cell, count * (1.0 + nudge));
  }
  return profiles::CompiledHeatmap(jittered);
}

/// `base` with its first `evicted` records dropped and `extra` appended
/// after its end, as a sliding window moves.
Trace moved_window(const Trace& base, const Trace& extra,
                   std::size_t evicted) {
  std::vector<Record> records(base.records().begin() + evicted,
                              base.records().end());
  const Timestamp shift = base.records().back().time + mobility::kHour;
  for (const auto& r : extra.records()) {
    records.push_back(Record{r.position, r.time + shift});
  }
  return Trace(base.user(), std::move(records));
}

/// The gateway's form of moved_window: `base` compiled incrementally, then
/// edited in place by apply_update and compile().
profiles::CompiledHeatmap moved_window_map(const Trace& base,
                                           const Trace& extra,
                                           std::size_t evicted,
                                           const geo::CellGrid& grid) {
  auto map = profiles::CompiledHeatmap::incremental(base, grid);
  const Trace window = moved_window(base, extra, evicted);
  const auto added =
      std::span(window.records()).last(extra.records().size());
  map.apply_update(added, std::span(base.records()).first(evicted), grid);
  map.compile();
  return map;
}

/// One dwell in a single grid cell.
Trace single_cell_trace(const std::string& user) {
  return Trace(user, testing::dwell(geo::destination(kCity, 1.0, 3000.0),
                                    0, 12));
}

/// A trace in another city: its heatmap shares no cell with any
/// hotspot_trace, so every divergence to it is the 2 ln 2 ceiling.
Trace far_trace(const std::string& user) {
  return Trace(user, testing::dwell(GeoPoint{48.85, 2.35}, 0, 20));
}

// ----------------------------------------- admissibility fuzz: Topsoe --

class SummaryAdmissibility : public ::testing::TestWithParam<int> {};

TEST_P(SummaryAdmissibility, TopsoeBoundNeverExceedsExact) {
  // The AP index's own computed bounds against every trained entry, for
  // queries that stress each regime of the Hellinger bound: ties (a
  // member verbatim, and near-ties below rounding), a single cell,
  // disjoint supports (the bound's tight case) and windows edited by
  // apply_update.
  RngStream rng(GetParam());
  const geo::CellGrid grid = city_grid();
  std::vector<Trace> background;
  for (int u = 0; u < 70; ++u) {
    background.push_back(hotspot_trace(rng, "u" + std::to_string(u)));
  }
  background.push_back(single_cell_trace("single"));
  background.push_back(far_trace("far"));
  background.push_back(Trace("empty", {}));
  attacks::ApAttack attack(grid);
  attack.train(background);
  const auto population = compiled_population(attack, background);

  std::vector<double> bounds;
  double loosest_gap = 0.0;
  for (int it = 0; it < 48; ++it) {
    const Trace& member = background[rng.uniform_index(70)];
    profiles::CompiledHeatmap query;
    switch (it % 6) {
      case 0: query = compile(attack, member); break;
      case 1: query = near_tie(member, grid, rng); break;
      case 2: query = compile(attack, single_cell_trace("q")); break;
      case 3: query = compile(attack, far_trace("q")); break;
      case 4:
        query = moved_window_map(member, hotspot_trace(rng, "x"),
                                 rng.uniform_index(member.size()), grid);
        break;
      default:
        query = compile(attack, hotspot_trace(rng, "q"));
    }
    attack.lower_bounds(query, bounds);
    ASSERT_EQ(bounds.size(), population.size());
    for (std::size_t i = 0; i < population.size(); ++i) {
      const double exact =
          profiles::topsoe_divergence(query, population[i].second);
      ASSERT_LE(bounds[i], exact) << "iteration " << it << " entry " << i;
      if (exact < kInf) loosest_gap = std::max(loosest_gap, bounds[i]);
    }
  }
  // Not vacuous: disjoint supports bound to just below the ceiling.
  EXPECT_GT(loosest_gap, 1.38);
}

TEST_P(SummaryAdmissibility, BoundStaysBelowExactAfterApplyUpdate) {
  // The gateway prices windows edited in place by apply_update, never
  // compiled afresh: the posting bounds must hold for those too, on every
  // entry, as the windows slide further and further from the trained
  // traces.
  RngStream rng(GetParam());
  const geo::CellGrid grid = city_grid();
  std::vector<Trace> background;
  for (int u = 0; u < 70; ++u) {
    background.push_back(hotspot_trace(rng, "u" + std::to_string(u)));
  }
  attacks::ApAttack attack(grid);
  attack.train(background);
  const auto population = compiled_population(attack, background);
  std::vector<double> bounds;
  for (int it = 0; it < 15; ++it) {
    const Trace& member = background[rng.uniform_index(background.size())];
    const auto query =
        moved_window_map(member, hotspot_trace(rng, "x"),
                         rng.uniform_index(member.size()), grid);
    attack.lower_bounds(query, bounds);
    ASSERT_EQ(bounds.size(), population.size());
    for (std::size_t i = 0; i < population.size(); ++i) {
      ASSERT_LE(bounds[i],
                profiles::topsoe_divergence(query, population[i].second))
          << "iteration " << it << " entry " << i;
    }
  }
}

TEST_P(SummaryAdmissibility, EmptyProfilesBoundToInfinity) {
  RngStream rng(GetParam());
  attacks::ApAttack attack(city_grid());
  attack.train({Trace("empty", {}), hotspot_trace(rng, "a")});
  std::vector<double> bounds;
  attack.lower_bounds(compile(attack, hotspot_trace(rng, "q")),
                      bounds);
  ASSERT_EQ(bounds.size(), 2u);
  EXPECT_EQ(bounds[0], kInf);
  EXPECT_LT(bounds[1], kInf);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SummaryAdmissibility,
                         ::testing::Values(7, 42, 1234, 90210));

// --------------------------------------- index-vs-scan decision identity --

class IndexDecisionIdentity : public ::testing::TestWithParam<int> {};

/// Asserts the AP attack answers in kIndex mode exactly as in kScan mode:
/// the argmin of `trace`, and the targeted query over `query` for every
/// id in `owners`. `query` is `trace`'s heatmap, compiled from the trace
/// or edited into it by apply_update. Leaves the attack in kIndex mode.
void expect_ap_index_matches_scan(attacks::ApAttack& attack,
                                  const std::vector<mobility::UserId>& owners,
                                  const Trace& trace,
                                  const profiles::CompiledHeatmap& query) {
  attack.set_query_mode(attacks::QueryMode::kScan);
  const auto scan_answer = attack.reidentify(trace);
  std::vector<bool> scan_owns;
  for (const auto& owner : owners) {
    scan_owns.push_back(owns(attack, trace, query, owner));
  }
  attack.set_query_mode(attacks::QueryMode::kIndex);
  EXPECT_EQ(attack.reidentify(trace), scan_answer);
  for (std::size_t o = 0; o < owners.size(); ++o) {
    EXPECT_EQ(owns(attack, trace, query, owners[o]), scan_owns[o])
        << "owner " << owners[o];
  }
}

/// A background of `users` hotspot traces plus the shapes the index must
/// arbitrate exactly as the scans: a twin placed before its original and
/// one after (identical heatmaps on either side of an owner), a duplicate
/// user id (its first occurrence owns) and empty entries.
std::vector<Trace> adversarial_background(RngStream& rng, std::size_t users) {
  std::vector<Trace> background;
  for (std::size_t u = 0; u < users; ++u) {
    background.push_back(hotspot_trace(rng, "u" + std::to_string(u)));
  }
  const auto copy = [&](const std::string& user, std::size_t of) {
    return Trace(user, std::vector<Record>(background[of].records()));
  };
  background.insert(background.begin() + 2, copy("twin-early", 40));
  background.push_back(copy("twin-late", 7));
  background.push_back(copy("u3", 5));
  background.insert(background.begin() + 20, Trace("empty-early", {}));
  background.push_back(Trace("empty-late", {}));
  return background;
}

TEST_P(IndexDecisionIdentity, ApIndexMatchesScansAndStaysCoherentUnderUpdates) {
  // Queries: fresh traces, members verbatim (exact ties, also against the
  // twins), moving windows edited in place by apply_update, and a trace
  // disjoint from everyone (every divergence ties at the 2 ln 2 ceiling).
  for (const std::size_t users : {std::size_t{64}, std::size_t{300}}) {
    RngStream rng(GetParam());
    const geo::CellGrid grid = city_grid();
    const std::vector<Trace> background = adversarial_background(rng, users);
    attacks::ApAttack attack(grid);
    attack.train(background);
    ASSERT_GE(attack.trained_users(), attacks::kIndexMinPopulation);
    std::vector<mobility::UserId> owners{"ghost"};
    for (const auto& trace : background) owners.push_back(trace.user());

    const auto check = [&](const Trace& trace) {
      expect_ap_index_matches_scan(attack, owners, trace,
                                   compile(attack, trace));
    };
    for (const auto& trace : background) {
      const auto& user = trace.user();
      if (user == "u0" || user == "u3" || user == "u5" || user == "u7" ||
          user == "u40" || user == "twin-early" || user == "twin-late") {
        check(trace);
      }
    }
    check(far_trace("q"));
    for (int q = 0; q < 4; ++q) check(hotspot_trace(rng, "q"));
    for (int q = 0; q < 3; ++q) {
      const Trace& member = background[rng.uniform_index(users)];
      const Trace extra = hotspot_trace(rng, "x");
      const std::size_t evicted = rng.uniform_index(member.size());
      expect_ap_index_matches_scan(
          attack, owners, moved_window(member, extra, evicted),
          moved_window_map(member, extra, evicted, grid));
    }
    EXPECT_GT(attack.index_stats().pruned_candidates, 0u)
        << "the index never pruned: the case tests nothing";
  }
}

TEST_P(IndexDecisionIdentity, SmallPopulationsDelegateToTheScans) {
  RngStream rng(GetParam());
  const geo::CellGrid grid = city_grid();
  std::vector<Trace> background;
  for (int u = 0; u < 8; ++u) {  // far below kIndexMinPopulation
    background.push_back(hotspot_trace(rng, "u" + std::to_string(u)));
  }
  attacks::ApAttack attack(grid);
  attack.train(background);
  const auto population = compiled_population(attack, background);
  std::vector<mobility::UserId> owners{"ghost"};
  for (const auto& trace : background) owners.push_back(trace.user());
  const Trace trace = hotspot_trace(rng, "q");
  const auto query = compile(attack, trace);
  expect_ap_index_matches_scan(attack, owners, trace, query);

  // Delegated queries keep the counters exactly: one query per call, one
  // exact evaluation per distance the scan prices, no prunes.
  const auto exact = [&](const profiles::CompiledHeatmap& p) {
    return profiles::topsoe_divergence(query, p);
  };
  const auto bounded = [&](const profiles::CompiledHeatmap& p, double bound) {
    return profiles::topsoe_divergence_bounded(query, p, bound);
  };
  const attacks::IndexStats before = attack.index_stats();
  EXPECT_EQ(before.pruned_candidates, 0u);
  std::uint64_t queries = 1;
  (void)attack.reidentify(trace);
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
  for (const auto& owner : owners) {
    (void)owns(attack, trace, query, owner);
    ++queries;
    (void)attacks::scan_is_first_argmin(population, owner, counted_exact,
                                        counted_bounded);
  }
  const attacks::IndexStats after = attack.index_stats();
  EXPECT_EQ(after.queries - before.queries, queries);
  EXPECT_EQ(after.exact_evaluations - before.exact_evaluations, priced);
  EXPECT_EQ(after.pruned_candidates, 0u);
  // Not vacuous: the argmin's winner, asked as owner, walks the whole
  // population unbeaten.
  EXPECT_GE(priced, 2 * population.size());
}

TEST_P(IndexDecisionIdentity, RetrainRebuildsThePostingsAndPreservesDecisions) {
  // Training is the only way the AP index changes: each train() rebuilds
  // the postings anew (counted as an index rebuild), and the
  // answers follow the new population, not the old one.
  RngStream rng(GetParam());
  const geo::CellGrid grid = city_grid();
  std::vector<Trace> background;
  for (int u = 0; u < 64; ++u) {  // exactly kIndexMinPopulation
    background.push_back(hotspot_trace(rng, "u" + std::to_string(u)));
  }
  attacks::ApAttack attack(grid);
  attack.train(background);
  ASSERT_EQ(attack.index_stats().rebuilds, 1u);
  for (int round = 0; round < 16; ++round) {
    const std::size_t i = rng.uniform_index(background.size());
    background[i] = moved_window(background[i], hotspot_trace(rng, "x"), 10);
  }
  attack.train(background);
  EXPECT_EQ(attack.index_stats().rebuilds, 2u);
  std::vector<mobility::UserId> owners{"ghost"};
  for (const auto& trace : background) owners.push_back(trace.user());
  for (const std::size_t member : {std::size_t{0}, std::size_t{63}}) {
    expect_ap_index_matches_scan(
        attack, owners, background[member],
        compile(attack, background[member]));
  }
  const Trace query = hotspot_trace(rng, "q");
  expect_ap_index_matches_scan(attack, owners, query,
                               compile(attack, query));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexDecisionIdentity,
                         ::testing::Values(3, 11, 2026));

// ------------------------------------------- concurrent AP queries -------

TEST(ApIndexConcurrency, ConcurrentQueriesMatchASerialRun) {
  // Shard workers and pool threads query one trained attack at once; the
  // posting pass's thread-local buffers must keep their answers and the
  // shared counters exactly those of a serial run.
  RngStream rng(31);
  const geo::CellGrid grid = city_grid();
  std::vector<Trace> background;
  for (int u = 0; u < 96; ++u) {
    background.push_back(hotspot_trace(rng, "u" + std::to_string(u)));
  }
  attacks::ApAttack attack(grid);
  attack.train(background);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kQueries = 24;
  std::vector<Trace> queries;
  std::vector<mobility::UserId> owners;
  for (std::size_t q = 0; q < kQueries; ++q) {
    const Trace& member = background[rng.uniform_index(background.size())];
    queries.push_back(q % 2 == 0 ? moved_window(member, hotspot_trace(rng, "x"),
                                                5)
                                 : hotspot_trace(rng, "q"));
    owners.push_back(member.user());
  }
  struct Answer {
    std::optional<mobility::UserId> argmin;
    bool owned = false;
  };
  const auto answer = [&](std::size_t q) {
    return Answer{attack.reidentify(queries[q]),
                  attack.reidentifies_target(queries[q], owners[q])};
  };
  const auto delta = [](const attacks::IndexStats& from,
                        const attacks::IndexStats& to) {
    return std::vector<std::uint64_t>{
        to.queries - from.queries,
        to.pruned_candidates - from.pruned_candidates,
        to.exact_evaluations - from.exact_evaluations};
  };

  const attacks::IndexStats start = attack.index_stats();
  std::vector<Answer> serial;
  for (std::size_t q = 0; q < kQueries; ++q) serial.push_back(answer(q));
  const attacks::IndexStats after_serial = attack.index_stats();

  std::vector<Answer> parallel(kQueries);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t q = t; q < kQueries; q += kThreads) {
        parallel[q] = answer(q);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (std::size_t q = 0; q < kQueries; ++q) {
    EXPECT_EQ(parallel[q].argmin, serial[q].argmin) << "query " << q;
    EXPECT_EQ(parallel[q].owned, serial[q].owned) << "query " << q;
  }
  EXPECT_EQ(delta(after_serial, attack.index_stats()),
            delta(start, after_serial));
  EXPECT_GT(after_serial.pruned_candidates, start.pruned_candidates);
}

}  // namespace
}  // namespace mood
