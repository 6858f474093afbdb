// Tests for the online MooD gateway (src/stream): sharded user-state
// store semantics, incremental-vs-full profile equivalence (the AP
// heatmap exactly, PIT/POI under the staleness-rebuild policy), and the
// StreamEngine/Replay pipeline's headline invariant — final streamed
// decisions are bit-identical to the batch evaluators, independent of
// batch size, shard count and drain parallelism.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "attacks/ap_attack.h"
#include "attacks/pit_attack.h"
#include "attacks/poi_attack.h"
#include "clustering/incremental_stays.h"
#include "clustering/poi_extraction.h"
#include "core/experiment.h"
#include "geo/geo.h"
#include "profiles/heatmap.h"
#include "profiles/markov_profile.h"
#include "profiles/poi_profile.h"
#include "simulation/generator.h"
#include "stream/engine.h"
#include "stream/event.h"
#include "stream/replay.h"
#include "stream/resilience.h"
#include "stream/snapshot.h"
#include "stream/user_state.h"
#include "support/error.h"
#include "support/failpoint.h"
#include "support/logging.h"
#include "support/thread_pool.h"
#include "telemetry/exposition.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace mood::stream {
namespace {

/// Compact population in the integration-test mold: routine users with
/// mostly-private POIs, so both expose and protect verdicts appear.
simulation::GeneratorParams population_params() {
  simulation::GeneratorParams p;
  p.users = 10;
  p.days = 6;
  p.records_per_user_per_day = 120.0;
  p.p_private_poi = 0.75;
  p.p_private_leisure = 0.8;
  p.private_poi_spread_m = 4000.0;
  p.relocation_prob = 0.1;
  p.seed = 4321;
  return p;
}

class StreamTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    support::set_log_level(support::LogLevel::kWarn);
    dataset_ = new mobility::Dataset(
        simulation::generate(population_params()));
    core::ExperimentConfig config;
    config.min_records = 8;
    harness_ = new core::ExperimentHarness(*dataset_, config, /*seed=*/11);
    events_ = new std::vector<StreamEvent>(
        make_event_stream(harness_->pairs()));
  }
  static void TearDownTestSuite() {
    delete events_;
    delete harness_;
    delete dataset_;
    events_ = nullptr;
    harness_ = nullptr;
    dataset_ = nullptr;
  }

  void TearDown() override { testing::FailPoint::disarm_all(); }

  /// Replays the shared event stream through a fresh gateway and returns
  /// (decisions, result).
  static ReplayResult replay_with(StreamConfig config,
                                  ReplayOptions options = {}) {
    StreamEngine engine(harness_->make_engine(), config);
    return run_replay(engine, *events_, options);
  }

  static mobility::Dataset* dataset_;
  static core::ExperimentHarness* harness_;
  static std::vector<StreamEvent>* events_;
};

mobility::Dataset* StreamTest::dataset_ = nullptr;
core::ExperimentHarness* StreamTest::harness_ = nullptr;
std::vector<StreamEvent>* StreamTest::events_ = nullptr;

// ------------------------------------------------------ event stream --

TEST_F(StreamTest, EventStreamIsTimeOrderedAndComplete) {
  std::size_t expected = 0;
  for (const auto& pair : harness_->pairs()) expected += pair.test.size();
  ASSERT_EQ(events_->size(), expected);
  for (std::size_t i = 1; i < events_->size(); ++i) {
    EXPECT_LE((*events_)[i - 1].record.time, (*events_)[i].record.time);
    EXPECT_EQ((*events_)[i].seq, i);
  }
}

TEST_F(StreamTest, EventStreamReassemblesEachUsersTestTrace) {
  std::unordered_map<mobility::UserId, std::vector<mobility::Record>> rebuilt;
  for (const auto& event : *events_) {
    rebuilt[event.user].push_back(event.record);
  }
  for (const auto& pair : harness_->pairs()) {
    const auto it = rebuilt.find(pair.test.user());
    ASSERT_NE(it, rebuilt.end());
    EXPECT_EQ(it->second, pair.test.records());
  }
}

// -------------------------------------------------------------- store --

TEST(UserStateStore, ShardingIsStableAndEnqueueMarksDirty) {
  UserStateStore store(StoreConfig{4, 0});
  EXPECT_EQ(store.shard_count(), 4u);
  EXPECT_EQ(store.shard_of("alice"), store.shard_of("alice"));

  store.enqueue(StreamEvent{"alice", {{45.0, 5.0}, 100}, 0});
  store.enqueue(StreamEvent{"alice", {{45.0, 5.0}, 200}, 1});
  store.enqueue(StreamEvent{"bob", {{46.0, 6.0}, 150}, 2});
  EXPECT_EQ(store.user_count(), 2u);

  std::size_t visited = 0;
  std::size_t pending = 0;
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    visited += store.drain_shard(s, [&](UserState& state) {
      pending += state.pending.size();
      state.pending.clear();
    });
  }
  EXPECT_EQ(visited, 2u);
  EXPECT_EQ(pending, 3u);

  // Drained users are no longer dirty.
  visited = 0;
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    visited += store.drain_shard(s, [](UserState&) {});
  }
  EXPECT_EQ(visited, 0u);
}

TEST(UserStateStore, LruEvictionPrefersLeastRecentlyTouchedCleanUser) {
  // One shard so every user competes for the same capacity.
  UserStateStore store(StoreConfig{1, 2});
  store.enqueue(StreamEvent{"a", {{45.0, 5.0}, 100}, 0});
  store.enqueue(StreamEvent{"b", {{45.0, 5.0}, 200}, 1});
  store.drain_shard(0, [](UserState& state) { state.pending.clear(); });
  // Touch "a" again so "b" is the LRU candidate.
  store.enqueue(StreamEvent{"a", {{45.0, 5.0}, 300}, 2});

  store.enqueue(StreamEvent{"c", {{45.0, 5.0}, 400}, 3});
  EXPECT_EQ(store.user_count(), 2u);
  EXPECT_EQ(store.eviction_count(), 1u);

  std::vector<std::string> resident;
  std::as_const(store).for_each(
      [&](const UserState& state) { resident.push_back(state.user); });
  std::sort(resident.begin(), resident.end());
  EXPECT_EQ(resident, (std::vector<std::string>{"a", "c"}));
}

TEST(UserStateStore, RejectsZeroShards) {
  EXPECT_THROW(UserStateStore(StoreConfig{0, 0}), support::PreconditionError);
}

/// The exact --max-users boundary with *every* resident state dirty: the
/// store must still admit the newcomer by evicting the least-recently-
/// touched dirty user, drop that user's id from the dirty list (no
/// dangling drains), and lose no pending events of the survivors.
TEST(UserStateStore, EvictionAtExactCapacityWhenEveryResidentIsDirty) {
  UserStateStore store(StoreConfig{1, 2});
  store.enqueue(StreamEvent{"a", {{45.0, 5.0}, 100}, 0});
  store.enqueue(StreamEvent{"b", {{45.0, 5.0}, 200}, 1});
  store.enqueue(StreamEvent{"b", {{45.0, 5.0}, 250}, 2});
  ASSERT_EQ(store.user_count(), 2u);  // at the exact capacity bound

  // Nobody drained: both residents hold undecided events. Admitting "c"
  // must evict "a" (least-recently-touched; the all-dirty fallback).
  store.enqueue(StreamEvent{"c", {{45.0, 5.0}, 300}, 3});
  EXPECT_EQ(store.user_count(), 2u);
  EXPECT_EQ(store.eviction_count(), 1u);

  // Re-enqueueing a resident at the bound must NOT evict anyone.
  store.enqueue(StreamEvent{"b", {{45.0, 5.0}, 350}, 4});
  EXPECT_EQ(store.user_count(), 2u);
  EXPECT_EQ(store.eviction_count(), 1u);

  // The drain sees exactly the survivors, with their queues intact — and
  // never chases the evicted user's dangling dirty entry.
  std::unordered_map<std::string, std::size_t> pending;
  const std::size_t visited = store.drain_shard(0, [&](UserState& state) {
    pending[state.user] = state.pending.size();
    state.pending.clear();
  });
  EXPECT_EQ(visited, 2u);
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending.at("b"), 3u);
  EXPECT_EQ(pending.at("c"), 1u);
}

/// Enqueues `users` users with 1..5 pending events each over `store`.
std::size_t fill_store(UserStateStore& store, std::size_t users) {
  std::size_t events = 0;
  for (std::size_t u = 0; u < users; ++u) {
    for (std::size_t e = 0; e <= u % 5; ++e, ++events) {
      store.enqueue(StreamEvent{"u" + std::to_string(u),
                                {{45.0, 5.0}, mobility::Timestamp(100 + e)},
                                events});
    }
  }
  return events;
}

std::size_t total_backlog(const UserStateStore& store) {
  std::size_t backlog = 0;
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    backlog += store.pending_events(s);
  }
  return backlog;
}

/// The finish() traversal: every resident state exactly once, in parallel,
/// with each shard's backlog recomputed from the folded queues.
TEST(UserStateStore, ParallelForEachVisitsEveryUserOnceAndRecomputesBacklog) {
  UserStateStore store(StoreConfig{3, 0});
  const std::size_t events = fill_store(store, 41);
  ASSERT_EQ(total_backlog(store), events);

  std::atomic<std::size_t> visits{0};
  store.for_each([&](UserState& state) {
    visits.fetch_add(1, std::memory_order_relaxed);
    state.dead_letters += 1;  // a per-state mark: no shared writes
    state.pending.clear();
  });
  EXPECT_EQ(visits.load(), 41u);
  std::as_const(store).for_each(
      [](const UserState& state) { EXPECT_EQ(state.dead_letters, 1u); });
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    EXPECT_EQ(store.pending_events(s), 0u) << "shard " << s;
  }
}

/// A throwing visit still leaves every shard's backlog equal to what its
/// states actually hold, and the first error reaches the caller.
TEST(UserStateStore, ParallelForEachRethrowsAndKeepsBacklogExact) {
  UserStateStore store(StoreConfig{3, 0});
  fill_store(store, 41);
  EXPECT_THROW(store.for_each([](UserState& state) {
                 if (state.user == "u17") throw support::Error("boom");
                 state.pending.clear();
               }),
               support::Error);
  std::size_t held = 0;
  std::as_const(store).for_each(
      [&](const UserState& state) { held += state.pending.size(); });
  EXPECT_GE(held, 3u);  // u17's own queue (17 % 5 + 1 events) survives
  EXPECT_EQ(total_backlog(store), held);
}

/// Called from inside a shared-pool task, the traversal degrades to a
/// serial loop on that worker instead of waiting on its own pool.
TEST(UserStateStore, ForEachInsideAPoolTaskRunsSeriallyOnThatWorker) {
  UserStateStore store(StoreConfig{3, 0});
  fill_store(store, 41);
  std::thread::id worker;
  std::vector<std::thread::id> seen;  // unguarded on purpose: serial
  support::ThreadPool::shared()
      .submit([&] {
        worker = std::this_thread::get_id();
        store.for_each([&](UserState& state) {
          seen.push_back(std::this_thread::get_id());
          state.pending.clear();
        });
      })
      .get();
  ASSERT_EQ(seen.size(), 41u);
  for (const std::thread::id& id : seen) EXPECT_EQ(id, worker);
  EXPECT_EQ(total_backlog(store), 0u);
}

// ------------------------------- incremental profile equivalence --------

/// The satellite property test: stream a real test trace point by point;
/// after every point the incrementally maintained profiles must be
/// decision-identical to a one-shot compile for all three attacks (and
/// the AP heatmap bit-identical cell for cell).
TEST_F(StreamTest, IncrementalProfilesAreDecisionIdenticalPointByPoint) {
  const attacks::ApAttack* ap = nullptr;
  const attacks::PitAttack* pit = nullptr;
  const attacks::PoiAttack* poi = nullptr;
  for (const auto& attack : harness_->attacks()) {
    if (ap == nullptr) ap = dynamic_cast<const attacks::ApAttack*>(attack.get());
    if (pit == nullptr) {
      pit = dynamic_cast<const attacks::PitAttack*>(attack.get());
    }
    if (poi == nullptr) {
      poi = dynamic_cast<const attacks::PoiAttack*>(attack.get());
    }
  }
  ASSERT_NE(ap, nullptr);
  ASSERT_NE(pit, nullptr);
  ASSERT_NE(poi, nullptr);

  const auto& pair = harness_->pairs().front();
  const mobility::UserId owner = pair.test.user();

  mobility::Trace window;
  window.set_user(owner);
  auto heatmap =
      profiles::CompiledHeatmap::incremental(window, ap->grid());
  for (const auto& record : pair.test.records()) {
    window.append(record);
    heatmap.apply_update({record}, {}, ap->grid());

    // AP: the folded heatmap is bit-identical to a from-scratch compile.
    const auto fresh =
        profiles::CompiledHeatmap::from_trace(window, ap->grid());
    ASSERT_EQ(heatmap.cell_count(), fresh.cell_count());
    for (std::size_t c = 0; c < fresh.cell_count(); ++c) {
      ASSERT_EQ(heatmap.cells()[c].cell, fresh.cells()[c].cell);
      ASSERT_EQ(heatmap.cells()[c].probability,
                fresh.cells()[c].probability);
      ASSERT_EQ(heatmap.cells()[c].self_term, fresh.cells()[c].self_term);
      ASSERT_EQ(heatmap.cells()[c].solo_term, fresh.cells()[c].solo_term);
    }
    ASSERT_EQ(ap->reidentifies_compiled(heatmap, owner),
              ap->reidentifies_target(window, owner));

    // PIT / POI: the compiled-anonymous path equals the trace-based path.
    ASSERT_EQ(pit->reidentifies_compiled(pit->compile_anonymous(window),
                                         owner),
              pit->reidentifies_target(window, owner));
    ASSERT_EQ(poi->reidentifies_compiled(poi->compile_anonymous(window),
                                         owner),
              poi->reidentifies_target(window, owner));
  }
}

TEST_F(StreamTest, IncrementalHeatmapSurvivesSlidingWindowEviction) {
  const auto* ap = dynamic_cast<const attacks::ApAttack*>(
      harness_->attacks()[harness_->ap_attack_index()].get());
  ASSERT_NE(ap, nullptr);
  const auto& pair = harness_->pairs().front();
  const auto& records = pair.test.records();
  const std::size_t cap = 40;

  mobility::Trace window;
  window.set_user(pair.test.user());
  auto heatmap =
      profiles::CompiledHeatmap::incremental(window, ap->grid());
  for (std::size_t i = 0; i < records.size(); ++i) {
    window.append(records[i]);
    std::vector<mobility::Record> evicted;
    if (window.size() > cap) {
      evicted.assign(window.records().begin(),
                     window.records().begin() +
                         static_cast<std::ptrdiff_t>(window.size() - cap));
      window.drop_front(window.size() - cap);
    }
    heatmap.apply_update({records[i]}, evicted, ap->grid());
  }
  const auto fresh =
      profiles::CompiledHeatmap::from_trace(window, ap->grid());
  ASSERT_EQ(heatmap.cell_count(), fresh.cell_count());
  for (std::size_t c = 0; c < fresh.cell_count(); ++c) {
    EXPECT_EQ(heatmap.cells()[c].cell, fresh.cells()[c].cell);
    EXPECT_EQ(heatmap.cells()[c].probability, fresh.cells()[c].probability);
  }
}

void expect_same_markov(const profiles::CompiledMarkovProfile& actual,
                        const profiles::CompiledMarkovProfile& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t s = 0; s < expected.size(); ++s) {
    ASSERT_EQ(actual.states()[s].weight, expected.states()[s].weight);
    ASSERT_EQ(actual.states()[s].center.lat_rad,
              expected.states()[s].center.lat_rad);
    ASSERT_EQ(actual.states()[s].center.lon_deg,
              expected.states()[s].center.lon_deg);
    ASSERT_EQ(actual.states()[s].center.cos_lat,
              expected.states()[s].center.cos_lat);
  }
}

void expect_same_poi(const profiles::CompiledPoiProfile& actual,
                     const profiles::CompiledPoiProfile& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t c = 0; c < expected.size(); ++c) {
    ASSERT_EQ(actual.centers()[c].lat_rad, expected.centers()[c].lat_rad);
    ASSERT_EQ(actual.centers()[c].lon_deg, expected.centers()[c].lon_deg);
    ASSERT_EQ(actual.centers()[c].cos_lat, expected.centers()[c].cos_lat);
  }
}

/// from_states (the decision kernel's shared-tracker compile path) must
/// be bit-identical to routing through the full legacy profile pipeline.
TEST_F(StreamTest, FromStatesMatchesLegacyCompiledProfiles) {
  const auto* pit = dynamic_cast<const attacks::PitAttack*>(
      harness_->attacks()[1].get());
  const auto* poi = dynamic_cast<const attacks::PoiAttack*>(
      harness_->attacks()[0].get());
  ASSERT_NE(pit, nullptr);
  ASSERT_NE(poi, nullptr);
  const auto params = pit->params();
  for (const auto& pair : harness_->pairs()) {
    const auto seq = clustering::build_visit_sequence(
        clustering::extract_pois(pair.test, params), params.max_diameter_m);
    expect_same_markov(profiles::CompiledMarkovProfile::from_states(seq.states),
                       pit->compile_anonymous(pair.test));
    expect_same_poi(profiles::CompiledPoiProfile::from_states(seq.states),
                    poi->compile_anonymous(pair.test));
  }
}

/// The PR 5 tentpole property: the incrementally maintained PIT and POI
/// compiled profiles are bit-identical to a from-scratch compile after
/// every single appended point (no eviction, so the pinned origin equals
/// the window front and the oracle is the attacks' own compile path).
TEST_F(StreamTest, IncrementalMarkovAndPoiMatchFromScratchPointByPoint) {
  const auto* pit = dynamic_cast<const attacks::PitAttack*>(
      harness_->attacks()[1].get());
  const auto* poi = dynamic_cast<const attacks::PoiAttack*>(
      harness_->attacks()[0].get());
  ASSERT_NE(pit, nullptr);
  ASSERT_NE(poi, nullptr);
  const auto& pair = harness_->pairs().front();
  const auto params = pit->params();

  mobility::Trace window;
  window.set_user(pair.test.user());
  auto markov = profiles::CompiledMarkovProfile::incremental(window, params);
  auto poi_profile = profiles::CompiledPoiProfile::incremental(window, params);
  ASSERT_TRUE(markov.updatable());
  ASSERT_TRUE(poi_profile.updatable());
  for (const auto& record : pair.test.records()) {
    window.append(record);
    markov.apply_update(window, 1, 0);
    poi_profile.apply_update(window, 1, 0);
    expect_same_markov(markov, pit->compile_anonymous(window));
    expect_same_poi(poi_profile, poi->compile_anonymous(window));
  }
  // The targeted queries therefore agree with the trace-based entry points.
  EXPECT_EQ(pit->reidentifies_compiled(markov, pair.test.user()),
            pit->reidentifies_target(pair.test, pair.test.user()));
  EXPECT_EQ(poi->reidentifies_compiled(poi_profile, pair.test.user()),
            poi->reidentifies_target(pair.test, pair.test.user()));
}

/// Same property under a sliding window: per-point add + front eviction.
/// Once the front has been evicted the oracle is the same pipeline with
/// the projection pinned at the first-ever record (extract_pois' origin
/// overload) — clean prefix drops and the bounded rebuild fallback must
/// both land exactly there.
TEST_F(StreamTest, IncrementalMarkovAndPoiSurviveSlidingWindowEviction) {
  const auto* pit = dynamic_cast<const attacks::PitAttack*>(
      harness_->attacks()[1].get());
  ASSERT_NE(pit, nullptr);
  const auto& pair = harness_->pairs().front();
  const auto& records = pair.test.records();
  const auto params = pit->params();
  const geo::GeoPoint origin = records.front().position;
  const std::size_t cap = 60;

  mobility::Trace window;
  window.set_user(pair.test.user());
  auto markov = profiles::CompiledMarkovProfile::incremental(window, params);
  auto poi_profile = profiles::CompiledPoiProfile::incremental(window, params);
  const auto oracle_states = [&] {
    return clustering::build_visit_sequence(
               clustering::extract_pois(window, params, origin),
               params.max_diameter_m)
        .states;
  };
  for (std::size_t i = 0; i < records.size(); ++i) {
    window.append(records[i]);
    std::size_t evicted = 0;
    if (window.size() > cap) {
      evicted = window.size() - cap;
      window.drop_front(evicted);
    }
    markov.apply_update(window, 1, evicted);
    poi_profile.apply_update(window, 1, evicted);
    if (i % 16 == 0 || i + 1 == records.size()) {
      const auto states = oracle_states();
      expect_same_markov(markov,
                         profiles::CompiledMarkovProfile::from_states(states));
      expect_same_poi(poi_profile,
                      profiles::CompiledPoiProfile::from_states(states));
    }
  }
  // The window slid, so the tracker really exercised the eviction paths.
  EXPECT_GT(markov.tracker().updates(), 0u);
  EXPECT_EQ(markov.tracker().origin().lat, origin.lat);
  EXPECT_EQ(markov.tracker().origin().lon, origin.lon);
}

TEST_F(StreamTest, ApplyUpdateOnNonUpdatableProfilesThrows) {
  const auto* pit = dynamic_cast<const attacks::PitAttack*>(
      harness_->attacks()[1].get());
  ASSERT_NE(pit, nullptr);
  const auto& pair = harness_->pairs().front();
  auto markov = pit->compile_anonymous(pair.test);
  EXPECT_FALSE(markov.updatable());
  EXPECT_THROW(markov.apply_update(pair.test, 0, 0),
               support::PreconditionError);
  profiles::CompiledPoiProfile poi_profile;
  EXPECT_THROW(poi_profile.apply_update(pair.test, 0, 0),
               support::PreconditionError);
}

// ----------------------------------------- gateway vs batch harness ----

/// Shared oracle: the batch evaluators' answers on the same harness.
struct BatchOracle {
  std::unordered_map<mobility::UserId, bool> exposed;
  std::unordered_map<mobility::UserId, std::string> winner;
};

BatchOracle batch_oracle(const core::ExperimentHarness& harness) {
  BatchOracle oracle;
  const auto no_lppm = harness.evaluate_no_lppm();
  const auto engine = harness.make_engine();
  for (const auto& user : no_lppm.users) {
    oracle.exposed[user.user] = user.is_protected;
  }
  for (const auto& pair : harness.pairs()) {
    if (oracle.exposed.at(pair.test.user())) continue;
    const auto candidate = engine.search(pair.test);
    oracle.winner[pair.test.user()] = candidate ? candidate->lppm : "";
  }
  return oracle;
}

void expect_matches_batch(const std::vector<UserDecision>& decisions,
                          const BatchOracle& oracle) {
  ASSERT_EQ(decisions.size(), oracle.exposed.size());
  for (const auto& decision : decisions) {
    const bool exposed = decision.decision == Decision::kExpose;
    ASSERT_TRUE(oracle.exposed.contains(decision.user)) << decision.user;
    EXPECT_EQ(exposed, oracle.exposed.at(decision.user)) << decision.user;
    if (!exposed) {
      EXPECT_EQ(decision.winner, oracle.winner.at(decision.user))
          << decision.user;
    } else {
      EXPECT_TRUE(decision.winner.empty()) << decision.user;
    }
  }
}

TEST_F(StreamTest, FinalDecisionsMatchBatchEvaluators) {
  const BatchOracle oracle = batch_oracle(*harness_);
  StreamConfig config;
  config.shards = 4;
  const auto result = replay_with(config);
  expect_matches_batch(result.decisions, oracle);
  EXPECT_EQ(result.stats.exposed_events + result.stats.protected_events,
            result.events);
}

TEST_F(StreamTest, DecisionsAreIndependentOfShardsBatchAndParallelism) {
  StreamConfig base;
  base.shards = 4;
  ReplayOptions options;
  options.batch_events = 256;
  const auto reference = replay_with(base, options);

  StreamConfig one_shard = base;
  one_shard.shards = 1;
  StreamConfig serial = base;
  serial.parallel_drain = false;
  serial.shards = 7;
  ReplayOptions tiny_batches;
  tiny_batches.batch_events = 37;
  ReplayOptions one_batch;
  one_batch.batch_events = 1u << 20;

  for (const auto& result :
       {replay_with(one_shard, options), replay_with(serial, options),
        replay_with(base, tiny_batches), replay_with(base, one_batch)}) {
    ASSERT_EQ(result.decisions.size(), reference.decisions.size());
    for (std::size_t i = 0; i < result.decisions.size(); ++i) {
      EXPECT_EQ(result.decisions[i].user, reference.decisions[i].user);
      EXPECT_EQ(result.decisions[i].decision,
                reference.decisions[i].decision);
      EXPECT_EQ(result.decisions[i].winner, reference.decisions[i].winner);
    }
  }
}

TEST_F(StreamTest, StalenessBoundIsRepairedByFinish) {
  const BatchOracle oracle = batch_oracle(*harness_);
  StreamConfig config;
  config.shards = 4;
  config.staleness_points = 150;  // serve stale PIT/POI profiles mid-stream
  const auto result = replay_with(config);
  expect_matches_batch(result.decisions, oracle);

  // The bound must actually have saved refresh work relative to the
  // always-fresh default.
  StreamConfig fresh = config;
  fresh.staleness_points = 0;
  EXPECT_LT(result.stats.profile_refreshes,
            replay_with(fresh).stats.profile_refreshes);
}

TEST_F(StreamTest, WindowCapsBoundTheResidentWindow) {
  StreamConfig config;
  config.shards = 2;
  config.max_points = 50;
  const auto result = replay_with(config);
  EXPECT_GT(result.stats.evicted_points, 0u);
  for (const auto& decision : result.decisions) {
    EXPECT_LE(decision.window_points, 50u);
  }
}

TEST_F(StreamTest, LruCapEvictsUsers) {
  StreamConfig config;
  config.shards = 1;
  config.max_users_per_shard = 3;
  const auto result = replay_with(config);
  EXPECT_GT(result.stats.evicted_users, 0u);
  EXPECT_LE(result.decisions.size(), 3u);
}

// -------------------------------------------------------------- replay --

TEST_F(StreamTest, ReplayMeasuresThroughputAndOrderedLatencies) {
  StreamConfig config;
  config.shards = 4;
  ReplayOptions options;
  options.batch_events = 128;
  const auto result = replay_with(config, options);

  EXPECT_EQ(result.events, events_->size());
  EXPECT_EQ(result.batches,
            (events_->size() + options.batch_events - 1) /
                options.batch_events);
  EXPECT_GT(result.wall_seconds, 0.0);
  EXPECT_GT(result.events_per_second, 0.0);
  // The canonical pass is timed and counted in the end-to-end rate.
  EXPECT_GT(result.finish_seconds, 0.0);
  EXPECT_DOUBLE_EQ(result.end_to_end_events_per_second,
                   static_cast<double>(result.session_events) /
                       (result.wall_seconds + result.finish_seconds));
  EXPECT_LT(result.end_to_end_events_per_second, result.events_per_second);
  EXPECT_GE(result.latency.p50, 0.0);
  EXPECT_LE(result.latency.p50, result.latency.p95);
  EXPECT_LE(result.latency.p95, result.latency.p99);
  EXPECT_LE(result.latency.p99, result.latency.max);
  EXPECT_GT(result.stats.batches, 0u);
}

TEST_F(StreamTest, ReplayLatencyHistogramCoversEveryEvent) {
  StreamConfig config;
  config.shards = 4;
  ReplayOptions options;
  options.batch_events = 128;
  const auto result = replay_with(config, options);

  // Every ingested event records exactly one latency sample on its
  // owning shard's lane; the merged histogram is the lane sum.
  EXPECT_EQ(result.latency_histogram.count, result.events);
  ASSERT_EQ(result.latency_per_shard.size(), config.shards);
  std::uint64_t lane_total = 0;
  for (const auto& lane : result.latency_per_shard) lane_total += lane.count;
  EXPECT_EQ(lane_total, result.latency_histogram.count);

  // The summary is derived from the histogram, not a sample vector.
  EXPECT_DOUBLE_EQ(result.latency.p50,
                   result.latency_histogram.percentile(0.50));
  EXPECT_DOUBLE_EQ(result.latency.p95,
                   result.latency_histogram.percentile(0.95));
  EXPECT_DOUBLE_EQ(result.latency.p99,
                   result.latency_histogram.percentile(0.99));
  EXPECT_DOUBLE_EQ(result.latency.mean, result.latency_histogram.mean());
}

TEST_F(StreamTest, StageTimersOffChangesNoDecision) {
  StreamConfig timed;
  timed.shards = 4;
  const auto reference = replay_with(timed);

  StreamConfig untimed = timed;
  untimed.telemetry.stage_timers = false;
  const auto result = replay_with(untimed);

  ASSERT_EQ(result.decisions.size(), reference.decisions.size());
  for (std::size_t i = 0; i < result.decisions.size(); ++i) {
    EXPECT_EQ(result.decisions[i].user, reference.decisions[i].user);
    EXPECT_EQ(result.decisions[i].decision, reference.decisions[i].decision);
    EXPECT_EQ(result.decisions[i].winner, reference.decisions[i].winner);
  }
  // Replay latency is always on (it is the report's headline metric);
  // only the per-stage histograms go quiet.
  EXPECT_EQ(result.latency_histogram.count, result.events);
  StreamEngine probe(harness_->make_engine(), untimed);
  probe.ingest((*events_)[0]);
  probe.drain();
  for (const auto& entry : probe.metrics_snapshot().histograms) {
    if (entry.name.rfind("mood_stage_", 0) == 0) {
      EXPECT_TRUE(entry.merged.empty()) << entry.name;
    }
  }
}

TEST_F(StreamTest, MetricsSnapshotMirrorsGatewayCounters) {
  StreamConfig config;
  config.shards = 2;
  StreamEngine engine(harness_->make_engine(), config);
  const auto result = run_replay(engine, *events_, {});

  const telemetry::MetricsSnapshot snapshot = engine.metrics_snapshot();
  const auto counter = [&](std::string_view name) -> std::uint64_t {
    for (const auto& [n, v] : snapshot.counters) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  const auto gauge = [&](std::string_view name) -> double {
    for (const auto& [n, v] : snapshot.gauges) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "missing gauge " << name;
    return -1.0;
  };
  EXPECT_EQ(counter("mood_stream_events_total"), result.events);
  EXPECT_EQ(counter("mood_stream_batches_total"), result.batches);
  EXPECT_DOUBLE_EQ(gauge("mood_gateway_events"), double(result.stats.events));
  EXPECT_DOUBLE_EQ(gauge("mood_gateway_searches"),
                   double(result.stats.searches));
  // Names are sorted, and the exposition of a live engine renders.
  EXPECT_TRUE(std::is_sorted(
      snapshot.counters.begin(), snapshot.counters.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
  const std::string text = telemetry::render_exposition(snapshot);
  EXPECT_NE(text.find("# TYPE mood_replay_latency_seconds histogram"),
            std::string::npos);
}

TEST_F(StreamTest, TelemetryOnRestoredReplayDiffsCleanAgainstStraight) {
  // Stage timers + an active trace session must not perturb the
  // restart drill: a restored gateway's decisions and continued stats
  // stay byte-identical to an uninterrupted run's.
  telemetry::TraceSession::instance().start(1 << 12);
  StreamConfig config;
  config.shards = 2;
  ReplayOptions options;
  options.batch_events = 256;

  StreamEngine straight(harness_->make_engine(), config);
  const auto reference = run_replay(straight, *events_, options);

  const std::size_t boundary = 2 * options.batch_events;
  StreamEngine first(harness_->make_engine(), config);
  for (std::size_t i = 0; i < boundary; ++i) {
    first.ingest((*events_)[i]);
    if ((i + 1) % options.batch_events == 0) first.drain();
  }
  const SnapshotData snap =
      decode_snapshot(encode_snapshot(first.capture_snapshot()));
  StreamEngine second(harness_->make_engine(), config);
  second.restore_snapshot(snap);
  options.resume_events = boundary;
  const auto resumed = run_replay(second, *events_, options);
  telemetry::TraceSession::instance().stop();

  ASSERT_EQ(resumed.decisions.size(), reference.decisions.size());
  for (std::size_t i = 0; i < reference.decisions.size(); ++i) {
    EXPECT_EQ(resumed.decisions[i].user, reference.decisions[i].user);
    EXPECT_EQ(resumed.decisions[i].decision,
              reference.decisions[i].decision);
    EXPECT_EQ(resumed.decisions[i].winner, reference.decisions[i].winner);
  }
  EXPECT_EQ(resumed.stats.events, reference.stats.events);
  EXPECT_EQ(resumed.stats.decisions, reference.stats.decisions);
  // The latency histogram is session-scoped: the resumed process only
  // measured the events it replayed itself.
  EXPECT_EQ(resumed.latency_histogram.count, events_->size() - boundary);
}

TEST_F(StreamTest, ReplayOfEmptyStreamIsWellFormed) {
  StreamEngine engine(harness_->make_engine(), StreamConfig{});
  const auto result = run_replay(engine, {});
  EXPECT_EQ(result.events, 0u);
  EXPECT_EQ(result.batches, 0u);
  EXPECT_TRUE(result.decisions.empty());
}

TEST_F(StreamTest, ReplayRejectsZeroBatch) {
  StreamEngine engine(harness_->make_engine(), StreamConfig{});
  ReplayOptions options;
  options.batch_events = 0;
  EXPECT_THROW(run_replay(engine, *events_, options),
               support::PreconditionError);
}

TEST_F(StreamTest, ReplayRejectsMisalignedOrOverlongResume) {
  // Resume positions must fall on micro-batch boundaries (checkpoints are
  // written at drain boundaries, so any legitimate restore position does)
  // and inside the stream.
  StreamEngine engine(harness_->make_engine(), StreamConfig{});
  ReplayOptions options;
  options.batch_events = 128;
  options.resume_events = 100;
  EXPECT_THROW(run_replay(engine, *events_, options),
               support::PreconditionError);
  options.resume_events = events_->size() + 128;
  EXPECT_THROW(run_replay(engine, *events_, options),
               support::PreconditionError);
}

// ---------------------------------------------------------- resilience --

TEST(BadRecordPolicyTest, ParsesSpellingsAndRejectsUnknowns) {
  EXPECT_EQ(parse_bad_record_policy("fail"), BadRecordPolicy::kFail);
  EXPECT_EQ(parse_bad_record_policy("skip"), BadRecordPolicy::kSkip);
  EXPECT_EQ(parse_bad_record_policy("quarantine"),
            BadRecordPolicy::kQuarantine);
  EXPECT_THROW(parse_bad_record_policy("explode"), support::UsageError);
  EXPECT_EQ(to_string(BadRecordPolicy::kQuarantine), "quarantine");
}

TEST_F(StreamTest, StrictAdmissionThrowsTypedBadRecordError) {
  StreamConfig config;
  config.shards = 1;

  StreamEngine nan_engine(harness_->make_engine(), config);
  StreamEvent bad = (*events_)[0];
  bad.record.position.lat = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(nan_engine.ingest(bad), BadRecordError);

  StreamEngine off_planet(harness_->make_engine(), config);
  bad = (*events_)[0];
  bad.record.position.lat = 95.0;  // finite but outside the legal band
  EXPECT_THROW(off_planet.ingest(bad), BadRecordError);

  StreamEngine id_engine(harness_->make_engine(), config);
  StreamEvent huge = (*events_)[0];
  huge.user = std::string(kMaxUserIdBytes + 1, 'x');
  EXPECT_THROW(id_engine.ingest(huge), BadRecordError);

  // Per-user timestamp regression; an exact tie stays legal (real exports
  // carry same-second fixes routinely).
  StreamEngine time_engine(harness_->make_engine(), config);
  const StreamEvent first = (*events_)[0];
  EXPECT_EQ(time_engine.ingest(first), IngestStatus::kAdmitted);
  StreamEvent regressed = first;
  regressed.record.time -= 100;
  EXPECT_THROW(time_engine.ingest(regressed), BadRecordError);
  EXPECT_EQ(time_engine.ingest(first), IngestStatus::kAdmitted);
}

TEST_F(StreamTest, SkipPolicyDropsBadRecordsAndCounts) {
  StreamConfig config;
  config.shards = 1;
  config.resilience.on_bad_record = BadRecordPolicy::kSkip;
  StreamEngine engine(harness_->make_engine(), config);

  StreamEvent bad = (*events_)[0];
  bad.record.position.lon = std::numeric_limits<double>::infinity();
  EXPECT_EQ(engine.ingest(bad), IngestStatus::kRejected);
  EXPECT_EQ(engine.ingest((*events_)[0]), IngestStatus::kAdmitted);
  engine.drain();
  engine.finish();

  const StreamStats stats = engine.stats();
  EXPECT_EQ(stats.bad_records, 1u);
  EXPECT_EQ(stats.quarantined_users, 0u);
  EXPECT_EQ(stats.dead_letters, 0u);
  // Every presented event advances the stream position, rejected or not,
  // so checkpoint/resume indices stay aligned with the replay stream.
  EXPECT_EQ(stats.events, 2u);
  const auto decisions = engine.decisions();
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_FALSE(decisions[0].quarantined);
}

TEST_F(StreamTest, QuarantineIsolatesPoisonedUserFromHealthyDecisions) {
  StreamConfig config;
  config.shards = 4;
  const auto clean = replay_with(config);

  std::vector<StreamEvent> poisoned_events = *events_;
  PoisonSpec spec;
  spec.users = 1;
  spec.stride = 3;
  ASSERT_GT(inject_poison(poisoned_events, spec), 0u);
  // inject_poison targets the first user id in sorted order.
  mobility::UserId victim = poisoned_events.front().user;
  for (const StreamEvent& event : *events_) {
    victim = std::min(victim, event.user);
  }

  StreamConfig quarantine = config;
  quarantine.resilience.on_bad_record = BadRecordPolicy::kQuarantine;
  StreamEngine engine(harness_->make_engine(), quarantine);
  const auto result = run_replay(engine, poisoned_events, {});

  EXPECT_EQ(result.stats.quarantined_users, 1u);
  EXPECT_GT(result.stats.bad_records, 0u);
  EXPECT_GT(result.stats.dead_letters, 0u);
  ASSERT_EQ(result.decisions.size(), clean.decisions.size());
  for (std::size_t i = 0; i < clean.decisions.size(); ++i) {
    const UserDecision& a = result.decisions[i];
    const UserDecision& e = clean.decisions[i];
    ASSERT_EQ(a.user, e.user);
    if (a.user == victim) {
      EXPECT_TRUE(a.quarantined);
      EXPECT_FALSE(a.quarantine_reason.empty());
      EXPECT_GT(a.dead_letters, 0u);
      continue;
    }
    // The headline isolation property: one poisoned neighbour must not
    // perturb a healthy user's outcome in any observable way.
    EXPECT_FALSE(a.quarantined) << a.user;
    EXPECT_EQ(a.decision, e.decision) << a.user;
    EXPECT_EQ(a.winner, e.winner) << a.user;
    EXPECT_EQ(a.events, e.events) << a.user;
    EXPECT_EQ(a.risk_transitions, e.risk_transitions) << a.user;
    EXPECT_EQ(a.searches, e.searches) << a.user;
    EXPECT_EQ(a.window_points, e.window_points) << a.user;
  }
}

TEST_F(StreamTest, ShedHysteresisEngagesBetweenWatermarksAndReleases) {
  StreamConfig config;
  config.shards = 1;
  config.parallel_drain = false;
  config.resilience.shed_high_watermark = 64;
  config.resilience.shed_low_watermark = 16;
  StreamEngine engine(harness_->make_engine(), config);
  std::size_t next = 0;
  const auto ingest_n = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) engine.ingest((*events_)[next++]);
  };

  // Below the high watermark: full decisions, latch off.
  ingest_n(32);
  engine.drain();
  EXPECT_EQ(engine.stats().degraded_batches, 0u);

  // Backlog at/above high: the latch engages and the batch degrades to
  // held verdicts (users decided in the first drain are genuinely held).
  ingest_n(128);
  engine.drain();
  const StreamStats engaged = engine.stats();
  EXPECT_EQ(engaged.degraded_batches, 1u);
  EXPECT_GT(engaged.shed_decisions, 0u);
  EXPECT_EQ(engine.capture_snapshot().shard_shedding,
            (std::vector<std::uint8_t>{1}));

  // Backlog between the watermarks: hysteresis holds the latch engaged.
  ingest_n(32);
  engine.drain();
  EXPECT_EQ(engine.stats().degraded_batches, 2u);

  // Backlog at/below low: the latch releases and decisions are full again.
  ingest_n(8);
  engine.drain();
  const StreamStats released = engine.stats();
  EXPECT_EQ(released.degraded_batches, 2u);
  EXPECT_EQ(engine.capture_snapshot().shard_shedding,
            (std::vector<std::uint8_t>{0}));
}

TEST_F(StreamTest, DrainBudgetDegradesBatchTailButFinishCanonicalizes) {
  const BatchOracle oracle = batch_oracle(*harness_);
  StreamConfig config;
  config.shards = 1;
  config.parallel_drain = false;
  config.resilience.drain_budget = 2;  // at most 2 full decisions per drain
  const auto result = replay_with(config);

  EXPECT_GT(result.stats.shed_decisions, 0u);
  EXPECT_GT(result.stats.degraded_batches, 0u);
  std::uint64_t degraded = 0;
  for (const auto& decision : result.decisions) degraded += decision.degraded;
  EXPECT_GT(degraded, 0u);
  // finish() re-searches every user whose verdict was held, so degraded
  // mid-stream batches never change the final published decisions.
  expect_matches_batch(result.decisions, oracle);
}

TEST_F(StreamTest, ShedDecisionsAreRepairedByFinish) {
  const BatchOracle oracle = batch_oracle(*harness_);
  StreamConfig config;
  config.shards = 2;
  config.parallel_drain = false;
  config.resilience.shed_high_watermark = 48;
  config.resilience.shed_low_watermark = 12;
  ReplayOptions options;
  options.batch_events = 128;  // backlog 64/shard: sheds most batches
  const auto result = replay_with(config, options);
  EXPECT_GT(result.stats.degraded_batches, 0u);
  expect_matches_batch(result.decisions, oracle);
}

TEST_F(StreamTest, BackpressureSignalsWithoutChangingDecisions) {
  StreamConfig config;
  config.shards = 2;
  const auto reference = replay_with(config);

  StreamConfig bounded = config;
  bounded.resilience.max_pending_per_shard = 8;
  bool saw_slow = false;
  StreamEngine probe(harness_->make_engine(), bounded);
  for (std::size_t i = 0; i < 64; ++i) {
    if (probe.ingest((*events_)[i]) == IngestStatus::kAdmittedSlow) {
      saw_slow = true;
    }
  }
  EXPECT_TRUE(saw_slow);

  StreamEngine engine(harness_->make_engine(), bounded);
  const auto result = run_replay(engine, *events_, {});
  EXPECT_GT(result.stats.backpressure_events, 0u);
  // Backpressure is a *signal* to the producer, never a decision input:
  // batch boundaries and outcomes are untouched.
  ASSERT_EQ(result.decisions.size(), reference.decisions.size());
  for (std::size_t i = 0; i < reference.decisions.size(); ++i) {
    EXPECT_EQ(result.decisions[i].decision, reference.decisions[i].decision);
    EXPECT_EQ(result.decisions[i].winner, reference.decisions[i].winner);
  }
}

TEST_F(StreamTest, InjectedDecideFaultQuarantinesExactlyOneUser) {
  StreamConfig config;
  config.shards = 1;
  config.parallel_drain = false;  // deterministic drain order
  const auto clean = replay_with(config);

  // Under the strict default the injected fault propagates out of drain().
  testing::FailPoint::arm("stream.decide.user", testing::FailAction::kThrow);
  StreamEngine strict(harness_->make_engine(), config);
  EXPECT_THROW(run_replay(strict, *events_, {}), testing::InjectedFault);

  // Under quarantine the faulting user is isolated and the drain survives.
  StreamConfig quarantine = config;
  quarantine.resilience.on_bad_record = BadRecordPolicy::kQuarantine;
  testing::FailPoint::arm("stream.decide.user", testing::FailAction::kThrow);
  StreamEngine engine(harness_->make_engine(), quarantine);
  const auto result = run_replay(engine, *events_, {});

  EXPECT_EQ(result.stats.quarantined_users, 1u);
  std::size_t quarantined = 0;
  ASSERT_EQ(result.decisions.size(), clean.decisions.size());
  for (std::size_t i = 0; i < clean.decisions.size(); ++i) {
    const UserDecision& a = result.decisions[i];
    if (a.quarantined) {
      ++quarantined;
      EXPECT_NE(a.quarantine_reason.find("injected a fault"),
                std::string::npos);
      EXPECT_GT(a.dead_letters, 0u);
      continue;
    }
    EXPECT_EQ(a.decision, clean.decisions[i].decision) << a.user;
    EXPECT_EQ(a.winner, clean.decisions[i].winner) << a.user;
    EXPECT_EQ(a.events, clean.decisions[i].events) << a.user;
  }
  EXPECT_EQ(quarantined, 1u);
}

TEST_F(StreamTest, CorruptFailPointIsCaughtByTheFoldPoisonScan) {
  StreamConfig config;
  config.shards = 1;
  config.parallel_drain = false;
  config.resilience.on_bad_record = BadRecordPolicy::kQuarantine;
  testing::FailPoint::arm("stream.drain.corrupt",
                          testing::FailAction::kCorrupt);
  StreamEngine engine(harness_->make_engine(), config);
  const auto result = run_replay(engine, *events_, {});

  EXPECT_EQ(result.stats.quarantined_users, 1u);
  bool found = false;
  for (const auto& decision : result.decisions) {
    if (!decision.quarantined) continue;
    found = true;
    EXPECT_NE(decision.quarantine_reason.find("poisoned pending record"),
              std::string::npos);
  }
  EXPECT_TRUE(found);
}

TEST_F(StreamTest, QuarantineStateRoundTripsThroughSnapshotAndResume) {
  std::vector<StreamEvent> poisoned_events = *events_;
  PoisonSpec spec;
  spec.users = 2;
  spec.stride = 3;
  ASSERT_GT(inject_poison(poisoned_events, spec), 0u);

  StreamConfig config;
  config.shards = 2;
  config.resilience.on_bad_record = BadRecordPolicy::kQuarantine;
  ReplayOptions options;
  options.batch_events = 256;

  StreamEngine straight(harness_->make_engine(), config);
  const auto reference = run_replay(straight, poisoned_events, options);
  ASSERT_EQ(reference.stats.quarantined_users, 2u);

  const std::size_t boundary = 2 * options.batch_events;
  StreamEngine first(harness_->make_engine(), config);
  for (std::size_t i = 0; i < boundary; ++i) {
    first.ingest(poisoned_events[i]);
    if ((i + 1) % options.batch_events == 0) first.drain();
  }
  const SnapshotData snap =
      decode_snapshot(encode_snapshot(first.capture_snapshot()));
  bool any_quarantined = false;
  for (const UserSnapshot& u : snap.users) any_quarantined |= u.quarantined;
  EXPECT_TRUE(any_quarantined);

  StreamEngine second(harness_->make_engine(), config);
  second.restore_snapshot(snap);
  options.resume_events = boundary;
  const auto resumed = run_replay(second, poisoned_events, options);

  ASSERT_EQ(resumed.decisions.size(), reference.decisions.size());
  for (std::size_t i = 0; i < reference.decisions.size(); ++i) {
    const UserDecision& a = resumed.decisions[i];
    const UserDecision& e = reference.decisions[i];
    EXPECT_EQ(a.user, e.user);
    EXPECT_EQ(a.decision, e.decision) << a.user;
    EXPECT_EQ(a.winner, e.winner) << a.user;
    EXPECT_EQ(a.events, e.events) << a.user;
    EXPECT_EQ(a.quarantined, e.quarantined) << a.user;
    EXPECT_EQ(a.quarantine_reason, e.quarantine_reason) << a.user;
    EXPECT_EQ(a.dead_letters, e.dead_letters) << a.user;
  }
  EXPECT_EQ(resumed.stats.bad_records, reference.stats.bad_records);
  EXPECT_EQ(resumed.stats.dead_letters, reference.stats.dead_letters);
  EXPECT_EQ(resumed.stats.quarantined_users,
            reference.stats.quarantined_users);
}

TEST_F(StreamTest, ReplayResumeAtStreamEndOnlyFinishes) {
  // The degenerate restore: the snapshot already covered the full stream,
  // so the resumed session ingests nothing and just finalizes.
  StreamEngine engine(harness_->make_engine(), StreamConfig{});
  ReplayOptions options;
  options.resume_events = events_->size();
  const auto result = run_replay(engine, *events_, options);
  EXPECT_EQ(result.session_events, 0u);
  EXPECT_EQ(result.events_per_second, 0.0);
  EXPECT_TRUE(result.decisions.empty());  // fresh engine held no users
}

// ------------------------------------------------------- loop engine --

TEST(EngineModeTest, ParsesSpellingsAndRejectsUnknowns) {
  EXPECT_EQ(parse_engine_mode("batch"), EngineMode::kBatch);
  EXPECT_EQ(parse_engine_mode("loop"), EngineMode::kLoop);
  EXPECT_THROW((void)parse_engine_mode("turbo"), support::UsageError);
  EXPECT_STREQ(to_string(EngineMode::kLoop), "loop");
  EXPECT_STREQ(to_string(EngineMode::kBatch), "batch");
}

/// Continuous-serving config: per-shard worker threads fed by SPSC rings,
/// deciding at admission time (PR 10).
StreamConfig loop_config(std::size_t shards = 4) {
  StreamConfig config;
  config.engine = EngineMode::kLoop;
  config.shards = shards;
  return config;
}

TEST_F(StreamTest, LoopFinalDecisionsMatchBatchEvaluators) {
  const BatchOracle oracle = batch_oracle(*harness_);
  const auto result = replay_with(loop_config());
  expect_matches_batch(result.decisions, oracle);
  EXPECT_EQ(result.stats.exposed_events + result.stats.protected_events,
            result.events);
  // Latency parity with batch mode: every presented event leaves exactly
  // one end-to-end sample in the replay histogram.
  EXPECT_EQ(result.latency_histogram.count, result.events);
  // A clean strict run must leave the resilience counters untouched —
  // the held/recheck admission tiers are cheap paths, not degradations.
  EXPECT_EQ(result.stats.bad_records, 0u);
  EXPECT_EQ(result.stats.quarantined_users, 0u);
  EXPECT_EQ(result.stats.degraded_batches, 0u);
  EXPECT_EQ(result.stats.shed_decisions, 0u);
}

TEST_F(StreamTest, LoopDecisionsMatchBatchAcrossShardsSlackAndRecheck) {
  StreamConfig batch;
  batch.shards = 4;
  const auto reference = replay_with(batch);

  std::vector<StreamConfig> variants;
  variants.push_back(loop_config(1));
  variants.push_back(loop_config(3));
  variants.push_back(loop_config(8));
  StreamConfig eager = loop_config();  // full decision on every event
  eager.loop_slack = 0;
  variants.push_back(eager);
  StreamConfig lazy = loop_config();  // mostly held, odd cadences
  lazy.loop_slack = 7;
  lazy.loop_recheck = 3;
  variants.push_back(lazy);
  StreamConfig no_recheck = loop_config();
  no_recheck.loop_recheck = 0;
  variants.push_back(no_recheck);

  for (const StreamConfig& config : variants) {
    const auto result = replay_with(config);
    ASSERT_EQ(result.decisions.size(), reference.decisions.size());
    for (std::size_t i = 0; i < result.decisions.size(); ++i) {
      EXPECT_EQ(result.decisions[i].user, reference.decisions[i].user);
      EXPECT_EQ(result.decisions[i].decision,
                reference.decisions[i].decision);
      EXPECT_EQ(result.decisions[i].winner, reference.decisions[i].winner);
      EXPECT_EQ(result.decisions[i].events, reference.decisions[i].events);
    }
  }
}

TEST_F(StreamTest, LoopModeRejectsDrain) {
  StreamEngine engine(harness_->make_engine(), loop_config(1));
  EXPECT_THROW(engine.drain(), support::PreconditionError);
}

TEST_F(StreamTest, LoopCheckpointRestoreRoundTripsMidStream) {
  StreamConfig config = loop_config(2);
  StreamEngine straight(harness_->make_engine(), config);
  const auto reference = run_replay(straight, *events_, {});

  // Loop cuts have no micro-batch alignment requirement: any quiesced
  // position is valid, so pick one off every batch multiple on purpose.
  const std::size_t cut = 333;
  StreamEngine first(harness_->make_engine(), config);
  for (std::size_t i = 0; i < cut; ++i) first.ingest((*events_)[i]);
  first.quiesce();
  const SnapshotData snap =
      decode_snapshot(encode_snapshot(first.capture_snapshot()));
  EXPECT_EQ(snap.stream_position, cut);
  EXPECT_EQ(snap.config.engine, EngineMode::kLoop);

  StreamEngine second(harness_->make_engine(), config);
  second.restore_snapshot(snap);
  ReplayOptions options;
  options.resume_events = cut;
  const auto resumed = run_replay(second, *events_, options);

  ASSERT_EQ(resumed.decisions.size(), reference.decisions.size());
  for (std::size_t i = 0; i < reference.decisions.size(); ++i) {
    const UserDecision& a = resumed.decisions[i];
    const UserDecision& e = reference.decisions[i];
    EXPECT_EQ(a.user, e.user);
    EXPECT_EQ(a.decision, e.decision) << a.user;
    EXPECT_EQ(a.winner, e.winner) << a.user;
    EXPECT_EQ(a.events, e.events) << a.user;
  }
  // The decision tier is a pure function of per-user event ordinals, so
  // the continued counters line up exactly with the straight run's.
  EXPECT_EQ(resumed.stats.events, reference.stats.events);
  EXPECT_EQ(resumed.stats.decisions, reference.stats.decisions);
  EXPECT_EQ(resumed.latency_histogram.count, events_->size() - cut);
}

TEST_F(StreamTest, LoopRestoreRefusesEngineModeMismatch) {
  StreamConfig config = loop_config(2);
  StreamEngine first(harness_->make_engine(), config);
  for (std::size_t i = 0; i < 100; ++i) first.ingest((*events_)[i]);
  first.quiesce();
  const SnapshotData snap = first.capture_snapshot();

  // A loop checkpoint must not restore into a batch gateway (the cut may
  // not fall on a drain boundary) — nor under different loop cadences.
  StreamConfig batch = config;
  batch.engine = EngineMode::kBatch;
  StreamEngine batch_engine(harness_->make_engine(), batch);
  EXPECT_THROW(batch_engine.restore_snapshot(snap), SnapshotError);

  StreamConfig other_slack = config;
  other_slack.loop_slack = 5;
  StreamEngine slack_engine(harness_->make_engine(), other_slack);
  EXPECT_THROW(slack_engine.restore_snapshot(snap), SnapshotError);

  StreamConfig other_recheck = config;
  other_recheck.loop_recheck = 2;
  StreamEngine recheck_engine(harness_->make_engine(), other_recheck);
  EXPECT_THROW(recheck_engine.restore_snapshot(snap), SnapshotError);
}

TEST_F(StreamTest, LoopStrictFaultSurfacesOnTheProducer) {
  // Unattributable events never reach a worker: the producer classifies
  // and throws synchronously, exactly like the batch path.
  StreamEngine id_engine(harness_->make_engine(), loop_config(1));
  StreamEvent huge = (*events_)[0];
  huge.user = std::string(kMaxUserIdBytes + 1, 'x');
  EXPECT_THROW(id_engine.ingest(huge), BadRecordError);

  // A bad coordinate is flagged at ingest but dispositioned by the shard
  // worker; under the strict default its BadRecordError is rethrown on
  // the producer no later than the quiesce barrier.
  StreamEngine nan_engine(harness_->make_engine(), loop_config(1));
  StreamEvent bad = (*events_)[0];
  bad.record.position.lat = std::numeric_limits<double>::quiet_NaN();
  nan_engine.ingest(bad);
  EXPECT_THROW(nan_engine.quiesce(), BadRecordError);

  // Same for the stateful per-user monotonicity check, which only the
  // worker (owner of the user state) can evaluate.
  StreamEngine time_engine(harness_->make_engine(), loop_config(1));
  const StreamEvent first = (*events_)[0];
  time_engine.ingest(first);
  StreamEvent regressed = first;
  regressed.record.time -= 100;
  time_engine.ingest(regressed);
  EXPECT_THROW(time_engine.quiesce(), BadRecordError);
}

TEST_F(StreamTest, LoopQuarantineIsolatesPoisonedUserFromHealthyDecisions) {
  StreamConfig batch;
  batch.shards = 4;
  const auto clean = replay_with(batch);

  std::vector<StreamEvent> poisoned_events = *events_;
  PoisonSpec spec;
  spec.users = 1;
  spec.stride = 3;
  ASSERT_GT(inject_poison(poisoned_events, spec), 0u);
  mobility::UserId victim = poisoned_events.front().user;
  for (const StreamEvent& event : *events_) {
    victim = std::min(victim, event.user);
  }

  StreamConfig quarantine = loop_config();
  quarantine.resilience.on_bad_record = BadRecordPolicy::kQuarantine;
  StreamEngine engine(harness_->make_engine(), quarantine);
  const auto result = run_replay(engine, poisoned_events, {});

  EXPECT_EQ(result.stats.quarantined_users, 1u);
  EXPECT_GT(result.stats.bad_records, 0u);
  EXPECT_GT(result.stats.dead_letters, 0u);
  ASSERT_EQ(result.decisions.size(), clean.decisions.size());
  for (std::size_t i = 0; i < clean.decisions.size(); ++i) {
    const UserDecision& a = result.decisions[i];
    const UserDecision& e = clean.decisions[i];
    ASSERT_EQ(a.user, e.user);
    if (a.user == victim) {
      EXPECT_TRUE(a.quarantined);
      EXPECT_FALSE(a.quarantine_reason.empty());
      EXPECT_GT(a.dead_letters, 0u);
      continue;
    }
    // Isolation holds across execution modes: a poisoned neighbour never
    // perturbs a healthy user's published outcome.
    EXPECT_FALSE(a.quarantined) << a.user;
    EXPECT_EQ(a.decision, e.decision) << a.user;
    EXPECT_EQ(a.winner, e.winner) << a.user;
    EXPECT_EQ(a.events, e.events) << a.user;
    EXPECT_EQ(a.window_points, e.window_points) << a.user;
  }
}

TEST_F(StreamTest, LoopInjectedDecideFaultQuarantinesExactlyOneUser) {
  StreamConfig config = loop_config(1);
  const auto clean = replay_with(config);

  // Under the strict default the worker's injected fault is rethrown on
  // the producer and propagates out of the replay.
  testing::FailPoint::arm("stream.decide.user", testing::FailAction::kThrow);
  StreamEngine strict(harness_->make_engine(), config);
  EXPECT_THROW(run_replay(strict, *events_, {}), testing::InjectedFault);

  // Under quarantine the faulting user is isolated, the worker survives,
  // and every healthy user matches the clean loop run.
  StreamConfig quarantine = config;
  quarantine.resilience.on_bad_record = BadRecordPolicy::kQuarantine;
  testing::FailPoint::arm("stream.decide.user", testing::FailAction::kThrow);
  StreamEngine engine(harness_->make_engine(), quarantine);
  const auto result = run_replay(engine, *events_, {});

  EXPECT_EQ(result.stats.quarantined_users, 1u);
  std::size_t quarantined = 0;
  ASSERT_EQ(result.decisions.size(), clean.decisions.size());
  for (std::size_t i = 0; i < clean.decisions.size(); ++i) {
    const UserDecision& a = result.decisions[i];
    if (a.quarantined) {
      ++quarantined;
      EXPECT_NE(a.quarantine_reason.find("injected a fault"),
                std::string::npos);
      EXPECT_GT(a.dead_letters, 0u);
      continue;
    }
    EXPECT_EQ(a.decision, clean.decisions[i].decision) << a.user;
    EXPECT_EQ(a.winner, clean.decisions[i].winner) << a.user;
    EXPECT_EQ(a.events, clean.decisions[i].events) << a.user;
  }
  EXPECT_EQ(quarantined, 1u);
}

TEST_F(StreamTest, LoopShedEngagesOnRingDepthAndFinishRepairs) {
  const BatchOracle oracle = batch_oracle(*harness_);
  StreamConfig config = loop_config(1);
  config.loop_autostart = false;
  config.resilience.shed_high_watermark = 64;
  config.resilience.shed_low_watermark = 16;
  StreamEngine engine(harness_->make_engine(), config);
  // Pre-fill the ring beyond the high watermark before any worker runs:
  // the first dequeue sees the full backlog, so the latch engages
  // deterministically even though ring depth is otherwise timing-shaped.
  for (const StreamEvent& event : *events_) engine.ingest(event);
  engine.start_loop();
  engine.quiesce();

  const StreamStats mid = engine.stats();
  EXPECT_GE(mid.degraded_batches, 1u);
  EXPECT_GT(mid.shed_decisions, 0u);
  // Draining to empty crossed the low watermark: the latch released.
  EXPECT_EQ(engine.capture_snapshot().shard_shedding,
            (std::vector<std::uint8_t>{0}));

  // finish() re-searches every held/degraded verdict, so the published
  // decisions still match the batch evaluators exactly.
  engine.finish();
  expect_matches_batch(engine.decisions(), oracle);
}

TEST_F(StreamTest, LoopBackpressureSignalsWithoutChangingDecisions) {
  StreamConfig batch;
  batch.shards = 2;
  const auto reference = replay_with(batch);

  // Bounded rings (capacity 2*max_pending): the producer outruns the
  // deciding workers, so the slow signal must fire; it stays a signal —
  // nothing is dropped and decisions are untouched.
  StreamConfig bounded = loop_config(2);
  bounded.resilience.max_pending_per_shard = 8;
  StreamEngine engine(harness_->make_engine(), bounded);
  const auto result = run_replay(engine, *events_, {});

  EXPECT_GT(result.stats.backpressure_events, 0u);
  EXPECT_EQ(result.latency_histogram.count, result.events);
  ASSERT_EQ(result.decisions.size(), reference.decisions.size());
  for (std::size_t i = 0; i < reference.decisions.size(); ++i) {
    EXPECT_EQ(result.decisions[i].decision, reference.decisions[i].decision);
    EXPECT_EQ(result.decisions[i].winner, reference.decisions[i].winner);
  }
}

TEST_F(StreamTest, LoopPacingFloorsWallClockNotDecisionCoverage) {
  StreamConfig config = loop_config(2);
  ReplayOptions paced;
  paced.target_rate = 50000.0;  // fast, but a real open-loop floor
  StreamEngine engine(harness_->make_engine(), config);
  const auto result = run_replay(engine, *events_, paced);

  // The last event is scheduled at (n-1)/rate seconds: the wall clock
  // cannot beat the arrival process.
  EXPECT_GE(result.wall_seconds,
            static_cast<double>(result.session_events - 1) / 50000.0);
  EXPECT_EQ(result.latency_histogram.count, result.events);
  EXPECT_EQ(result.events, events_->size());
}

// ------------------------------------------ parallel canonical finish --

/// Every StreamStats counter, by name.
constexpr std::pair<const char*, std::uint64_t StreamStats::*>
    kStatFields[] = {
        {"events", &StreamStats::events},
        {"batches", &StreamStats::batches},
        {"decisions", &StreamStats::decisions},
        {"exposed_events", &StreamStats::exposed_events},
        {"protected_events", &StreamStats::protected_events},
        {"searches", &StreamStats::searches},
        {"rechecks", &StreamStats::rechecks},
        {"profile_refreshes", &StreamStats::profile_refreshes},
        {"stay_updates", &StreamStats::stay_updates},
        {"stay_rebuilds", &StreamStats::stay_rebuilds},
        {"heatmap_updates", &StreamStats::heatmap_updates},
        {"evicted_points", &StreamStats::evicted_points},
        {"evicted_users", &StreamStats::evicted_users},
        {"lppm_applications", &StreamStats::lppm_applications},
        {"attack_invocations", &StreamStats::attack_invocations},
        {"index_prunes", &StreamStats::index_prunes},
        {"exact_evals", &StreamStats::exact_evals},
        {"index_rebuilds", &StreamStats::index_rebuilds},
        {"checkpoints", &StreamStats::checkpoints},
        {"checkpoint_bytes", &StreamStats::checkpoint_bytes},
        {"checkpoint_failures", &StreamStats::checkpoint_failures},
        {"bad_records", &StreamStats::bad_records},
        {"dead_letters", &StreamStats::dead_letters},
        {"quarantined_users", &StreamStats::quarantined_users},
        {"shed_decisions", &StreamStats::shed_decisions},
        {"degraded_batches", &StreamStats::degraded_batches},
        {"backpressure_events", &StreamStats::backpressure_events},
        {"quarantined_snapshots", &StreamStats::quarantined_snapshots},
};

/// Final decisions and winners equal the kernel's batch pass.
void expect_matches_gateway(const std::vector<UserDecision>& decisions,
                            const core::GatewayResult& gateway) {
  ASSERT_EQ(decisions.size(), gateway.users.size());
  std::unordered_map<mobility::UserId, const core::GatewayOutcome*> oracle;
  for (const auto& outcome : gateway.users) oracle[outcome.user] = &outcome;
  for (const UserDecision& d : decisions) {
    ASSERT_TRUE(oracle.contains(d.user)) << d.user;
    EXPECT_EQ(d.decision, oracle.at(d.user)->decision) << d.user;
    EXPECT_EQ(d.winner, oracle.at(d.user)->winner) << d.user;
  }
}

void expect_same_verdicts(const UserDecision& a, const UserDecision& b) {
  EXPECT_EQ(a.user, b.user);
  EXPECT_EQ(a.decision, b.decision) << a.user;
  EXPECT_EQ(a.winner, b.winner) << a.user;
  EXPECT_EQ(a.events, b.events) << a.user;
  EXPECT_EQ(a.searches, b.searches) << a.user;
}

void expect_no_backlog(const StreamEngine& engine) {
  for (std::size_t s = 0; s < engine.config().shards; ++s) {
    EXPECT_EQ(engine.pending_events(s), 0u) << "shard " << s;
  }
}

/// Ingests the whole stream and decides it — drain() in batch mode,
/// quiesce() in loop mode — stopping right before finish().
void serve(StreamEngine& engine, const std::vector<StreamEvent>& events) {
  for (const StreamEvent& event : events) engine.ingest(event);
  if (engine.config().engine == EngineMode::kLoop) {
    engine.quiesce();
  } else {
    engine.drain();
  }
}

/// One run's final decisions plus the counters it added. The population
/// index counters live on the harness's shared attacks, so stats() is
/// taken as a difference against the freshly constructed engine.
struct FinishedRun {
  std::vector<UserDecision> decisions;
  StreamStats work;
};

FinishedRun finish_run(StreamEngine& engine,
                       const std::vector<StreamEvent>& events) {
  const StreamStats before = engine.stats();
  serve(engine, events);
  engine.finish();
  expect_no_backlog(engine);
  FinishedRun run{engine.decisions(), engine.stats()};
  for (const auto& [name, field] : kStatFields) {
    run.work.*field -= before.*field;
  }
  return run;
}

/// The parallel canonical pass is a pure function of the stream: both
/// engines, any shard count, repeated, reach the kernel's batch verdicts
/// with identical counters.
TEST_F(StreamTest, ParallelFinishIsDeterministicAcrossEnginesAndShards) {
  const core::GatewayResult gateway = harness_->evaluate_gateway();
  for (const EngineMode mode : {EngineMode::kBatch, EngineMode::kLoop}) {
    for (const std::size_t shards : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::string(to_string(mode)) + " x" +
                   std::to_string(shards));
      StreamConfig config;
      config.engine = mode;
      config.shards = shards;
      StreamEngine first_engine(harness_->make_engine(), config);
      const FinishedRun first = finish_run(first_engine, *events_);
      StreamEngine second_engine(harness_->make_engine(), config);
      const FinishedRun second = finish_run(second_engine, *events_);

      expect_matches_gateway(first.decisions, gateway);
      ASSERT_EQ(first.decisions.size(), second.decisions.size());
      for (std::size_t i = 0; i < first.decisions.size(); ++i) {
        expect_same_verdicts(first.decisions[i], second.decisions[i]);
      }
      for (const auto& [name, field] : kStatFields) {
        EXPECT_EQ(first.work.*field, second.work.*field) << name;
      }
      EXPECT_EQ(first.work.events, events_->size());
    }
  }
}

/// finish() on events that were ingested but never drained folds them in
/// the parallel pass and leaves every shard's backlog at zero.
TEST_F(StreamTest, ParallelFinishFoldsUndrainedEventsAndClearsBacklog) {
  StreamConfig config;
  config.shards = 3;
  StreamEngine engine(harness_->make_engine(), config);
  for (const StreamEvent& event : *events_) engine.ingest(event);
  std::size_t backlog = 0;
  for (std::size_t s = 0; s < config.shards; ++s) {
    backlog += engine.pending_events(s);
  }
  EXPECT_EQ(backlog, events_->size());
  engine.finish();
  expect_no_backlog(engine);
  expect_matches_gateway(engine.decisions(), harness_->evaluate_gateway());
}

/// finish() from inside a shared-pool task must not wait on its own pool:
/// it runs serially on that worker and reaches the same verdicts.
TEST_F(StreamTest, FinishInsideAPoolTaskRunsSeriallyWithoutDeadlock) {
  const core::GatewayResult gateway = harness_->evaluate_gateway();
  for (const EngineMode mode : {EngineMode::kBatch, EngineMode::kLoop}) {
    SCOPED_TRACE(to_string(mode));
    StreamConfig config;
    config.engine = mode;
    config.shards = 2;
    StreamEngine direct(harness_->make_engine(), config);
    const FinishedRun reference = finish_run(direct, *events_);

    StreamEngine nested(harness_->make_engine(), config);
    serve(nested, *events_);
    std::future<void> done =
        support::ThreadPool::shared().submit([&] { nested.finish(); });
    if (done.wait_for(std::chrono::minutes(5)) != std::future_status::ready) {
      ADD_FAILURE() << "finish() inside a pool task did not return";
      std::abort();  // the task still references this frame
    }
    done.get();
    expect_no_backlog(nested);
    const std::vector<UserDecision> decisions = nested.decisions();
    expect_matches_gateway(decisions, gateway);
    ASSERT_EQ(decisions.size(), reference.decisions.size());
    for (std::size_t i = 0; i < decisions.size(); ++i) {
      expect_same_verdicts(decisions[i], reference.decisions[i]);
    }
  }
}

/// A decision fault inside the parallel pass: quarantine isolates exactly
/// the one user it hit, strict mode aborts finish() with the fault.
TEST_F(StreamTest, FaultInParallelFinishQuarantinesOneUserOrThrows) {
  for (const EngineMode mode : {EngineMode::kBatch, EngineMode::kLoop}) {
    SCOPED_TRACE(to_string(mode));
    StreamConfig config;
    config.engine = mode;
    config.shards = 3;
    config.resilience.on_bad_record = BadRecordPolicy::kQuarantine;
    StreamEngine clean_engine(harness_->make_engine(), config);
    const FinishedRun clean = finish_run(clean_engine, *events_);

    StreamEngine engine(harness_->make_engine(), config);
    serve(engine, *events_);
    testing::FailPoint::arm("stream.decide.user",
                            testing::FailAction::kThrow);
    engine.finish();
    expect_no_backlog(engine);
    EXPECT_EQ(engine.stats().quarantined_users, 1u);
    const std::vector<UserDecision> decisions = engine.decisions();
    ASSERT_EQ(decisions.size(), clean.decisions.size());
    std::size_t quarantined = 0;
    for (std::size_t i = 0; i < decisions.size(); ++i) {
      if (decisions[i].quarantined) {
        ++quarantined;
        EXPECT_NE(decisions[i].quarantine_reason.find("injected a fault"),
                  std::string::npos);
        continue;
      }
      expect_same_verdicts(decisions[i], clean.decisions[i]);
    }
    EXPECT_EQ(quarantined, 1u);

    StreamConfig strict_config = config;
    strict_config.resilience.on_bad_record = BadRecordPolicy::kFail;
    StreamEngine strict(harness_->make_engine(), strict_config);
    serve(strict, *events_);
    testing::FailPoint::arm("stream.decide.user",
                            testing::FailAction::kThrow);
    EXPECT_THROW(strict.finish(), testing::InjectedFault);
  }
}

}  // namespace
}  // namespace mood::stream
