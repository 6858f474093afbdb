// Tests for the online MooD gateway (src/stream): sharded user-state
// store semantics, the shared stay compile path against the legacy
// profiles, and the StreamEngine/Replay pipeline's headline invariant — final streamed
// decisions are bit-identical to the batch evaluators, independent of
// shard count, worker timing, quiesce cuts and decision cadences.

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

#include "attacks/pit_attack.h"
#include "attacks/poi_attack.h"
#include "clustering/poi_extraction.h"
#include "core/experiment.h"
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

/// The PIT and POI forms of `trace` through the legacy uncompiled
/// profiles — the oracle for the compiled path.
profiles::CompiledMarkovProfile legacy_markov(
    const mobility::Trace& trace, const clustering::PoiParams& params) {
  return profiles::CompiledMarkovProfile(
      profiles::MarkovProfile::from_trace(trace, params));
}
profiles::CompiledPoiProfile legacy_poi(const mobility::Trace& trace,
                                        const clustering::PoiParams& params) {
  return profiles::CompiledPoiProfile(
      profiles::PoiProfile::from_trace(trace, params));
}

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

/// Admits one event under `policy`; the processing function only counts
/// its calls.
AdmitResult admit(UserStateStore& store, const StreamEvent& event,
                  std::size_t* processed = nullptr,
                  BadRecordPolicy policy = BadRecordPolicy::kFail) {
  return store.admit_and_process(event, policy, /*poisoned=*/false, nullptr,
                                 [&](UserState&) {
                                   if (processed != nullptr) ++*processed;
                                 });
}

TEST(UserStateStore, ShardingIsStableAndAdmissionProcessesInline) {
  UserStateStore store(StoreConfig{4, 0});
  EXPECT_EQ(store.shard_count(), 4u);
  EXPECT_EQ(store.shard_of("alice"), store.shard_of("alice"));

  // Every admitted event reaches the processing function exactly once,
  // on its own user's state, with the admission watermark already moved.
  std::vector<std::string> seen;
  const auto record_user = [&](UserState& state) {
    seen.push_back(state.user);
    EXPECT_TRUE(state.has_last_time);
  };
  for (const StreamEvent& event :
       {StreamEvent{"alice", {{45.0, 5.0}, 100}, 0},
        StreamEvent{"alice", {{45.0, 5.0}, 200}, 1},
        StreamEvent{"bob", {{46.0, 6.0}, 150}, 2}}) {
    const AdmitResult result = store.admit_and_process(
        event, BadRecordPolicy::kFail, false, nullptr, record_user);
    EXPECT_EQ(result.status, AdmitResult::Status::kAdmitted);
    EXPECT_EQ(result.shard, store.shard_of(event.user));
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"alice", "alice", "bob"}));
  EXPECT_EQ(store.user_count(), 2u);

  // A timestamp regression is the store's half of admission: rejected
  // without processing under skip, quarantined (then dead-lettered) under
  // quarantine.
  std::size_t processed = 0;
  const StreamEvent regressed{"alice", {{45.0, 5.0}, 50}, 3};
  EXPECT_EQ(admit(store, regressed, &processed, BadRecordPolicy::kSkip).status,
            AdmitResult::Status::kRejected);
  EXPECT_EQ(
      admit(store, regressed, &processed, BadRecordPolicy::kQuarantine).status,
      AdmitResult::Status::kQuarantined);
  const AdmitResult dead = admit(store, StreamEvent{"alice", {{45.0, 5.0}, 300}, 4},
                                 &processed, BadRecordPolicy::kQuarantine);
  EXPECT_EQ(dead.status, AdmitResult::Status::kDeadLettered);
  EXPECT_EQ(dead.dead_letters, 1u);
  EXPECT_EQ(processed, 0u);
}

TEST(UserStateStore, LruEvictionPrefersLeastRecentlyTouchedCleanUser) {
  // One shard so every user competes for the same capacity.
  UserStateStore store(StoreConfig{1, 2});
  admit(store, StreamEvent{"a", {{45.0, 5.0}, 100}, 0});
  admit(store, StreamEvent{"b", {{45.0, 5.0}, 200}, 1});
  // Touch "a" again so "b" is the LRU candidate.
  admit(store, StreamEvent{"a", {{45.0, 5.0}, 300}, 2});

  admit(store, StreamEvent{"c", {{45.0, 5.0}, 400}, 3});
  EXPECT_EQ(store.user_count(), 2u);
  EXPECT_EQ(store.eviction_count(), 1u);

  // Re-admitting a resident at the exact capacity bound evicts nobody.
  admit(store, StreamEvent{"c", {{45.0, 5.0}, 450}, 4});
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

/// Admits `users` users with 1..5 events each into `store`.
void fill_store(UserStateStore& store, std::size_t users) {
  std::size_t events = 0;
  for (std::size_t u = 0; u < users; ++u) {
    for (std::size_t e = 0; e <= u % 5; ++e, ++events) {
      admit(store, StreamEvent{"u" + std::to_string(u),
                               {{45.0, 5.0}, mobility::Timestamp(100 + e)},
                               events});
    }
  }
}

/// The finish() traversal: every resident state exactly once, in parallel.
TEST(UserStateStore, ParallelForEachVisitsEveryUserOnce) {
  UserStateStore store(StoreConfig{3, 0});
  fill_store(store, 41);

  std::atomic<std::size_t> visits{0};
  store.for_each([&](UserState& state) {
    visits.fetch_add(1, std::memory_order_relaxed);
    state.dead_letters += 1;  // a per-state mark: no shared writes
  });
  EXPECT_EQ(visits.load(), 41u);
  std::as_const(store).for_each(
      [](const UserState& state) { EXPECT_EQ(state.dead_letters, 1u); });
}

/// A throwing visit reaches the caller, and the store (every shard lock
/// released) stays fully usable afterwards.
TEST(UserStateStore, ParallelForEachRethrowsTheFirstError) {
  UserStateStore store(StoreConfig{3, 0});
  fill_store(store, 41);
  EXPECT_THROW(store.for_each([](UserState& state) {
                 if (state.user == "u17") throw support::Error("boom");
               }),
               support::Error);
  std::atomic<std::size_t> visits{0};
  store.for_each([&](UserState&) { visits.fetch_add(1); });
  EXPECT_EQ(visits.load(), 41u);
  EXPECT_EQ(store.user_count(), 41u);
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
        store.for_each([&](UserState&) {
          seen.push_back(std::this_thread::get_id());
        });
      })
      .get();
  ASSERT_EQ(seen.size(), 41u);
  for (const std::thread::id& id : seen) EXPECT_EQ(id, worker);
}

// ------------------------------------------- compiled stay profiles --

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

/// from_states (the shared stay compile path every candidate takes) must
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
                       legacy_markov(pair.test, params));
    expect_same_poi(profiles::CompiledPoiProfile::from_states(seq.states),
                    legacy_poi(pair.test, params));
  }
}

// ----------------------------------------- gateway vs batch harness ----

/// Shared oracle: the batch evaluators' answers on the same harness.
struct BatchOracle {
  std::unordered_map<mobility::UserId, bool> exposed;
  std::unordered_map<mobility::UserId, std::string> winner;
};

BatchOracle batch_oracle(const core::ExperimentHarness& harness) {
  BatchOracle oracle;
  const auto no_lppm =
      std::get<core::StrategyResult>(harness.evaluate({"no-LPPM"}).rows[0]);
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
  config.shards = 3;
  const auto result = replay_with(config);
  expect_matches_batch(result.decisions, oracle);
  EXPECT_EQ(result.stats.exposed_events + result.stats.protected_events,
            result.events);
}

/// Ingests the shared stream with a quiesce() barrier after every `burst`
/// events (the cut a checkpoint takes), then finishes.
std::vector<UserDecision> serve_in_bursts(StreamEngine& engine,
                                          const std::vector<StreamEvent>& events,
                                          std::size_t burst) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    engine.ingest(events[i]);
    if ((i + 1) % burst == 0) engine.quiesce();
  }
  engine.finish();
  return engine.decisions();
}

TEST_F(StreamTest, DecisionsAreIndependentOfShardsBatchAndParallelism) {
  // Axes: shard count (= worker threads), the producer's burst size
  // between quiesce barriers, and whether the workers run while the
  // producer ingests. The decision tier keys on per-user event ordinals,
  // so even the per-user search counts must agree.
  StreamConfig base;
  base.shards = 4;
  StreamEngine reference_engine(harness_->make_engine(), base);
  const auto reference = serve_in_bursts(reference_engine, *events_, 256);

  StreamConfig one_shard = base;
  one_shard.shards = 1;
  StreamConfig seven = base;
  seven.shards = 7;
  StreamConfig prefilled = base;
  prefilled.loop_autostart = false;

  for (const auto& [config, burst] :
       {std::pair{one_shard, std::size_t{256}}, std::pair{seven, std::size_t{1}},
        std::pair{base, std::size_t{37}}, std::pair{prefilled, events_->size()}}) {
    StreamEngine engine(harness_->make_engine(), config);
    const auto decisions = serve_in_bursts(engine, *events_, burst);
    ASSERT_EQ(decisions.size(), reference.size());
    for (std::size_t i = 0; i < decisions.size(); ++i) {
      EXPECT_EQ(decisions[i].user, reference[i].user);
      EXPECT_EQ(decisions[i].decision, reference[i].decision);
      EXPECT_EQ(decisions[i].winner, reference[i].winner);
      EXPECT_EQ(decisions[i].searches, reference[i].searches);
    }
  }
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
  const auto result = replay_with(config);

  EXPECT_EQ(result.events, events_->size());
  EXPECT_EQ(result.session_events, events_->size());
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
}

TEST_F(StreamTest, ReplayLatencyHistogramCoversEveryEvent) {
  StreamConfig config;
  config.shards = 4;
  const auto result = replay_with(config);

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
  EXPECT_DOUBLE_EQ(gauge("mood_gateway_events"), double(result.stats.events));
  EXPECT_DOUBLE_EQ(gauge("mood_gateway_searches"),
                   double(result.stats.searches));
  // The rings are the backlog: empty once the replay finished.
  EXPECT_DOUBLE_EQ(gauge("mood_queue_depth"), 0.0);
  // The stage timers are always on: a clean stream admits every event,
  // and each leaves one ingest, ring-residence and decide sample.
  for (const std::string_view name :
       {"mood_stage_ingest_seconds", "mood_stage_dequeue_seconds",
        "mood_stage_decide_seconds"}) {
    const auto it = std::find_if(
        snapshot.histograms.begin(), snapshot.histograms.end(),
        [&](const auto& entry) { return entry.name == name; });
    ASSERT_NE(it, snapshot.histograms.end()) << name;
    EXPECT_EQ(it->merged.count, result.events) << name;
  }
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

  StreamEngine straight(harness_->make_engine(), config);
  const auto reference = run_replay(straight, *events_, {});

  const std::size_t cut = 512;
  StreamEngine first(harness_->make_engine(), config);
  for (std::size_t i = 0; i < cut; ++i) first.ingest((*events_)[i]);
  first.quiesce();
  const SnapshotData snap =
      decode_snapshot(encode_snapshot(first.capture_snapshot()));
  StreamEngine second(harness_->make_engine(), config);
  second.restore_snapshot(snap);
  ReplayOptions options;
  options.resume_events = cut;
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
  EXPECT_EQ(resumed.latency_histogram.count, events_->size() - cut);
}

TEST_F(StreamTest, ReplayOfEmptyStreamIsWellFormed) {
  StreamEngine engine(harness_->make_engine(), StreamConfig{});
  const auto result = run_replay(engine, {});
  EXPECT_EQ(result.events, 0u);
  EXPECT_TRUE(result.decisions.empty());
}

TEST_F(StreamTest, ReplayRejectsOverlongResume) {
  // A resume position must lie inside the stream.
  StreamEngine engine(harness_->make_engine(), StreamConfig{});
  ReplayOptions options;
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

  // Coordinate faults are flagged on the producer and dispositioned by the
  // shard worker; the strict policy's BadRecordError surfaces no later
  // than the quiesce barrier.
  StreamEngine nan_engine(harness_->make_engine(), config);
  StreamEvent bad = (*events_)[0];
  bad.record.position.lat = std::numeric_limits<double>::quiet_NaN();
  nan_engine.ingest(bad);
  EXPECT_THROW(nan_engine.quiesce(), BadRecordError);

  StreamEngine off_planet(harness_->make_engine(), config);
  bad = (*events_)[0];
  bad.record.position.lat = 95.0;  // finite but outside the legal band
  off_planet.ingest(bad);
  EXPECT_THROW(off_planet.quiesce(), BadRecordError);

  StreamEngine id_engine(harness_->make_engine(), config);
  StreamEvent huge = (*events_)[0];
  huge.user = std::string(kMaxUserIdBytes + 1, 'x');
  EXPECT_THROW(id_engine.ingest(huge), BadRecordError);

  // Per-user timestamp regression; an exact tie stays legal (real exports
  // carry same-second fixes routinely).
  StreamEngine time_engine(harness_->make_engine(), config);
  const StreamEvent first = (*events_)[0];
  EXPECT_EQ(time_engine.ingest(first), IngestStatus::kAdmitted);
  time_engine.quiesce();
  StreamEvent regressed = first;
  regressed.record.time -= 100;
  time_engine.ingest(regressed);
  EXPECT_THROW(time_engine.quiesce(), BadRecordError);
  EXPECT_EQ(time_engine.ingest(first), IngestStatus::kAdmitted);
  EXPECT_NO_THROW(time_engine.quiesce());
}

TEST_F(StreamTest, SkipPolicyDropsBadRecordsAndCounts) {
  StreamConfig config;
  config.shards = 1;
  config.resilience.on_bad_record = BadRecordPolicy::kSkip;
  StreamEngine engine(harness_->make_engine(), config);

  // The worker rejects the bad coordinate; the producer only pushed it.
  StreamEvent bad = (*events_)[0];
  bad.record.position.lon = std::numeric_limits<double>::infinity();
  EXPECT_EQ(engine.ingest(bad), IngestStatus::kAdmitted);
  EXPECT_EQ(engine.ingest((*events_)[0]), IngestStatus::kAdmitted);
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
  EXPECT_EQ(decisions[0].events, 1u);
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
  // Rings pre-filled before any worker runs make the dequeue-time depths
  // exact: with n events queued on one shard, the k-th dequeue sees
  // depth n - k.
  StreamConfig config;
  config.shards = 1;
  config.loop_autostart = false;
  config.resilience.shed_high_watermark = 64;
  config.resilience.shed_low_watermark = 16;

  // Below the high watermark: full decisions, latch off.
  StreamEngine calm(harness_->make_engine(), config);
  for (std::size_t i = 0; i < 32; ++i) calm.ingest((*events_)[i]);
  calm.quiesce();  // starts the workers of the pre-filled ring
  EXPECT_EQ(calm.stats().degraded_batches, 0u);
  EXPECT_EQ(calm.stats().shed_decisions, 0u);

  // 128 queued: the latch engages at depth 128, holds between the
  // watermarks (depths 63..17) and releases at depth 16 — so exactly
  // the first 112 events are shed. A user's first-ever verdict always
  // takes the full path, so those never count as shed decisions.
  StreamEngine engine(harness_->make_engine(), config);
  for (std::size_t i = 0; i < 128; ++i) engine.ingest((*events_)[i]);
  engine.quiesce();
  std::unordered_map<mobility::UserId, bool> seen;
  std::uint64_t first_verdicts = 0;
  for (std::size_t i = 0; i < 112; ++i) {
    if (!seen[(*events_)[i].user]) {
      seen[(*events_)[i].user] = true;
      ++first_verdicts;
    }
  }
  const StreamStats stats = engine.stats();
  EXPECT_EQ(stats.degraded_batches, 1u);
  EXPECT_EQ(stats.shed_decisions, 112u - first_verdicts);
  EXPECT_EQ(engine.capture_snapshot().shard_shedding,
            (std::vector<std::uint8_t>{0}));
}

TEST_F(StreamTest, ShedDecisionsAreRepairedByFinish) {
  const BatchOracle oracle = batch_oracle(*harness_);
  StreamConfig config;
  config.shards = 2;
  config.loop_autostart = false;
  config.resilience.shed_high_watermark = 48;
  config.resilience.shed_low_watermark = 12;
  StreamEngine engine(harness_->make_engine(), config);
  // The whole stream queued before any worker runs: both shards shed most
  // of it, and finish() (which starts the workers itself) repairs it.
  for (const StreamEvent& event : *events_) engine.ingest(event);
  engine.finish();
  EXPECT_EQ(engine.stats().degraded_batches, 2u);
  expect_matches_batch(engine.decisions(), oracle);
}

TEST_F(StreamTest, BackpressureSignalsWithoutChangingDecisions) {
  StreamConfig config;
  config.shards = 2;
  const auto reference = replay_with(config);

  // Workers not started: the ring depth only grows, so the slow signal
  // fires deterministically past 8 queued events, and a ring that fills
  // (capacity 16) starts the workers instead of blocking forever.
  StreamConfig bounded = config;
  bounded.loop_autostart = false;
  bounded.resilience.max_pending_per_shard = 8;
  StreamEngine engine(harness_->make_engine(), bounded);
  bool saw_slow = false;
  for (const StreamEvent& event : *events_) {
    saw_slow |= engine.ingest(event) == IngestStatus::kAdmittedSlow;
  }
  engine.finish();
  EXPECT_TRUE(saw_slow);
  EXPECT_GT(engine.stats().backpressure_events, 0u);
  // Backpressure is a *signal* to the producer, never a decision input.
  const auto decisions = engine.decisions();
  ASSERT_EQ(decisions.size(), reference.decisions.size());
  for (std::size_t i = 0; i < reference.decisions.size(); ++i) {
    EXPECT_EQ(decisions[i].decision, reference.decisions[i].decision);
    EXPECT_EQ(decisions[i].winner, reference.decisions[i].winner);
    EXPECT_EQ(decisions[i].events, reference.decisions[i].events);
  }
}

TEST_F(StreamTest, InjectedDecideFaultQuarantinesExactlyOneUser) {
  StreamConfig config;
  config.shards = 3;
  const auto clean = replay_with(config);

  // Under the strict default the worker's injected fault is rethrown on
  // the producer and propagates out of the replay.
  testing::FailPoint::arm("stream.decide.user", testing::FailAction::kThrow);
  StreamEngine strict(harness_->make_engine(), config);
  EXPECT_THROW(run_replay(strict, *events_, {}), testing::InjectedFault);

  // Under quarantine the faulting user is isolated and its worker
  // survives — whichever shard it lives on.
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
    EXPECT_GE(decision.dead_letters, 1u);
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

  StreamEngine straight(harness_->make_engine(), config);
  const auto reference = run_replay(straight, poisoned_events, {});
  ASSERT_EQ(reference.stats.quarantined_users, 2u);

  const std::size_t boundary = 512;
  StreamEngine first(harness_->make_engine(), config);
  for (std::size_t i = 0; i < boundary; ++i) first.ingest(poisoned_events[i]);
  first.quiesce();
  const SnapshotData snap =
      decode_snapshot(encode_snapshot(first.capture_snapshot()));
  bool any_quarantined = false;
  for (const UserSnapshot& u : snap.users) any_quarantined |= u.quarantined;
  EXPECT_TRUE(any_quarantined);

  StreamEngine second(harness_->make_engine(), config);
  second.restore_snapshot(snap);
  ReplayOptions options;
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

// ------------------------------------------------- shard workers ------

StreamConfig sharded(std::size_t shards = 4) {
  StreamConfig config;
  config.shards = shards;
  return config;
}

TEST_F(StreamTest, LoopFinalDecisionsMatchBatchEvaluators) {
  const BatchOracle oracle = batch_oracle(*harness_);
  const auto result = replay_with(sharded());
  expect_matches_batch(result.decisions, oracle);
  EXPECT_EQ(result.stats.exposed_events + result.stats.protected_events,
            result.events);
  // Every presented event leaves exactly one end-to-end sample in the
  // replay histogram.
  EXPECT_EQ(result.latency_histogram.count, result.events);
  // A clean strict run must leave the resilience counters untouched —
  // the held admission tier is a cheap path, not a degradation.
  EXPECT_EQ(result.stats.bad_records, 0u);
  EXPECT_EQ(result.stats.quarantined_users, 0u);
  EXPECT_EQ(result.stats.degraded_batches, 0u);
  EXPECT_EQ(result.stats.shed_decisions, 0u);
}

TEST_F(StreamTest, LoopDecisionsMatchBatchAcrossShardsSlackAndRecheck) {
  const BatchOracle oracle = batch_oracle(*harness_);
  std::vector<StreamConfig> variants;
  variants.push_back(sharded(1));
  variants.push_back(sharded(3));
  variants.push_back(sharded(8));
  StreamConfig eager = sharded();  // full decision on every event
  eager.loop_slack = 0;
  variants.push_back(eager);
  StreamConfig lazy = sharded();  // mostly held, odd cadence
  lazy.loop_slack = 7;
  variants.push_back(lazy);
  StreamConfig every_event = sharded();  // slack 1: decide every event
  every_event.loop_slack = 1;
  variants.push_back(every_event);

  for (const StreamConfig& config : variants) {
    const auto result = replay_with(config);
    expect_matches_batch(result.decisions, oracle);
    std::uint64_t events = 0;
    for (const auto& decision : result.decisions) events += decision.events;
    EXPECT_EQ(events, events_->size());
  }
}

TEST_F(StreamTest, LoopCheckpointRestoreRoundTripsMidStream) {
  StreamConfig config = sharded(2);
  StreamEngine straight(harness_->make_engine(), config);
  const auto reference = run_replay(straight, *events_, {});

  // Any quiesced position is a valid cut, however odd.
  const std::size_t cut = 333;
  StreamEngine first(harness_->make_engine(), config);
  for (std::size_t i = 0; i < cut; ++i) first.ingest((*events_)[i]);
  first.quiesce();
  const SnapshotData snap =
      decode_snapshot(encode_snapshot(first.capture_snapshot()));
  EXPECT_EQ(snap.stream_position, cut);

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
  StreamConfig config = sharded(2);
  StreamEngine first(harness_->make_engine(), config);
  for (std::size_t i = 0; i < 100; ++i) first.ingest((*events_)[i]);
  first.quiesce();
  const SnapshotData snap = first.capture_snapshot();

  // The slack cadence shapes the mid-stream decision sequence, so a
  // checkpoint must not restore under a different one.
  StreamConfig other_slack = config;
  other_slack.loop_slack = 5;
  StreamEngine slack_engine(harness_->make_engine(), other_slack);
  EXPECT_THROW(slack_engine.restore_snapshot(snap), SnapshotError);
}

TEST_F(StreamTest, LoopStrictFaultSurfacesOnTheProducer) {
  // Unattributable events never reach a worker: the producer classifies
  // and throws synchronously.
  StreamEngine id_engine(harness_->make_engine(), sharded(1));
  StreamEvent huge = (*events_)[0];
  huge.user = std::string(kMaxUserIdBytes + 1, 'x');
  EXPECT_THROW(id_engine.ingest(huge), BadRecordError);

  // A bad coordinate is flagged at ingest but dispositioned by the shard
  // worker; under the strict default its BadRecordError is rethrown on
  // the producer no later than the quiesce barrier.
  StreamEngine nan_engine(harness_->make_engine(), sharded(1));
  StreamEvent bad = (*events_)[0];
  bad.record.position.lat = std::numeric_limits<double>::quiet_NaN();
  nan_engine.ingest(bad);
  EXPECT_THROW(nan_engine.quiesce(), BadRecordError);

  // Same for the stateful per-user monotonicity check, which only the
  // worker (owner of the user state) can evaluate.
  StreamEngine time_engine(harness_->make_engine(), sharded(1));
  const StreamEvent first = (*events_)[0];
  time_engine.ingest(first);
  StreamEvent regressed = first;
  regressed.record.time -= 100;
  time_engine.ingest(regressed);
  EXPECT_THROW(time_engine.quiesce(), BadRecordError);
}

TEST_F(StreamTest, LoopQuarantineIsolatesPoisonedUserFromHealthyDecisions) {
  // An odd cadence on two shards: isolation must not depend on the tiers.
  StreamConfig config = sharded(2);
  config.loop_slack = 7;
  const auto clean = replay_with(config);

  std::vector<StreamEvent> poisoned_events = *events_;
  PoisonSpec spec;
  spec.users = 1;
  spec.stride = 3;
  ASSERT_GT(inject_poison(poisoned_events, spec), 0u);
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
    // A poisoned neighbour never perturbs a healthy user's published
    // outcome, nor their mid-stream work.
    EXPECT_FALSE(a.quarantined) << a.user;
    EXPECT_EQ(a.decision, e.decision) << a.user;
    EXPECT_EQ(a.winner, e.winner) << a.user;
    EXPECT_EQ(a.events, e.events) << a.user;
    EXPECT_EQ(a.searches, e.searches) << a.user;
    EXPECT_EQ(a.window_points, e.window_points) << a.user;
  }
}

TEST_F(StreamTest, LoopInjectedDecideFaultQuarantinesExactlyOneUser) {
  StreamConfig config = sharded(1);
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
  StreamConfig config = sharded(1);
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
  const auto reference = replay_with(sharded(2));

  // Bounded rings (capacity 2*max_pending) with running workers: an
  // unpaced producer outruns them, so the slow signal must fire; it stays
  // a signal — nothing is dropped and decisions are untouched.
  StreamConfig bounded = sharded(2);
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
  StreamConfig config = sharded(2);
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
        {"decisions", &StreamStats::decisions},
        {"exposed_events", &StreamStats::exposed_events},
        {"protected_events", &StreamStats::protected_events},
        {"searches", &StreamStats::searches},
        {"rechecks", &StreamStats::rechecks},
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

/// Ingests the whole stream and decides it, stopping right before
/// finish().
void serve(StreamEngine& engine, const std::vector<StreamEvent>& events) {
  for (const StreamEvent& event : events) engine.ingest(event);
  engine.quiesce();
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
  FinishedRun run{engine.decisions(), engine.stats()};
  for (const auto& [name, field] : kStatFields) {
    run.work.*field -= before.*field;
  }
  return run;
}

/// The parallel canonical pass is a pure function of the stream: both
/// worker start modes (lazy on the first ingest, or rings pre-filled
/// before any worker runs), any shard count, repeated, reach the kernel's
/// batch verdicts with identical counters.
TEST_F(StreamTest, ParallelFinishIsDeterministicAcrossEnginesAndShards) {
  const core::GatewayResult gateway = harness_->evaluate_gateway();
  for (const bool autostart : {true, false}) {
    for (const std::size_t shards : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::string(autostart ? "autostart" : "prefilled") +
                   " x" + std::to_string(shards));
      StreamConfig config;
      config.loop_autostart = autostart;
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

/// finish() on events still sitting in rings no worker ever ran on (the
/// autostart-off pre-fill, start_loop() never called): it starts the
/// workers, decides every ringed event, and leaves the rings empty.
TEST_F(StreamTest, ParallelFinishFoldsUndrainedEventsAndClearsBacklog) {
  StreamConfig config;
  config.shards = 3;
  config.loop_autostart = false;
  StreamEngine engine(harness_->make_engine(), config);
  for (const StreamEvent& event : *events_) engine.ingest(event);
  engine.finish();
  const std::vector<UserDecision> decisions = engine.decisions();
  expect_matches_gateway(decisions, harness_->evaluate_gateway());
  std::uint64_t events = 0;
  for (const UserDecision& d : decisions) events += d.events;
  EXPECT_EQ(events, events_->size());
  for (const auto& [name, value] : engine.metrics_snapshot().gauges) {
    if (name.rfind("mood_queue_depth", 0) == 0) {
      EXPECT_EQ(value, 0.0) << name;
    }
  }
}

/// finish() from inside a shared-pool task must not wait on its own pool:
/// it runs serially on that worker and reaches the same verdicts.
TEST_F(StreamTest, FinishInsideAPoolTaskRunsSeriallyWithoutDeadlock) {
  const core::GatewayResult gateway = harness_->evaluate_gateway();
  StreamConfig config;
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
  const std::vector<UserDecision> decisions = nested.decisions();
  expect_matches_gateway(decisions, gateway);
  ASSERT_EQ(decisions.size(), reference.decisions.size());
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    expect_same_verdicts(decisions[i], reference.decisions[i]);
  }
}

/// A decision fault inside the parallel pass: quarantine isolates exactly
/// the one user it hit, strict mode aborts finish() with the fault.
TEST_F(StreamTest, FaultInParallelFinishQuarantinesOneUserOrThrows) {
  StreamConfig config;
  config.shards = 3;
  config.resilience.on_bad_record = BadRecordPolicy::kQuarantine;
  StreamEngine clean_engine(harness_->make_engine(), config);
  const FinishedRun clean = finish_run(clean_engine, *events_);

  StreamEngine engine(harness_->make_engine(), config);
  serve(engine, *events_);
  testing::FailPoint::arm("stream.decide.user", testing::FailAction::kThrow);
  engine.finish();
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
  testing::FailPoint::arm("stream.decide.user", testing::FailAction::kThrow);
  EXPECT_THROW(strict.finish(), testing::InjectedFault);
}

}  // namespace
}  // namespace mood::stream
