// Tests for the decision layer's DecisionKernel — the single MooD decision
// procedure shared by the batch harness and the online gateway. The
// headline structural property: one-shot decide_trace() and any chunked
// fold()/step() drive over the same records produce identical
// final verdicts, because the per-user state is a pure function of the
// records folded (chunk-independent), and finalize canonicalises whatever
// held-verdict short-cuts were taken mid-stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "attacks/attack.h"
#include "attacks/pit_attack.h"
#include "attacks/poi_attack.h"
#include "core/experiment.h"
#include "decision/kernel.h"
#include "metrics/distortion.h"
#include "simulation/generator.h"
#include "support/error.h"
#include "support/logging.h"
#include "support/thread_pool.h"

namespace mood::decision {
namespace {

/// Compact population with both expose and protect verdicts (the
/// stream-test mold, slightly smaller).
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

class DecisionKernelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    support::set_log_level(support::LogLevel::kWarn);
    dataset_ = new mobility::Dataset(
        simulation::generate(population_params()));
    core::ExperimentConfig config;
    config.min_records = 8;
    harness_ = new core::ExperimentHarness(*dataset_, config, /*seed=*/11);
  }
  static void TearDownTestSuite() {
    delete harness_;
    delete dataset_;
    harness_ = nullptr;
    dataset_ = nullptr;
  }

  /// Drives `trace` through the kernel in fixed-size chunks, mimicking the
  /// gateway's micro-batch folds, then finalises.
  static Verdict decide_chunked(const DecisionKernel& kernel,
                                const mobility::Trace& trace,
                                std::size_t chunk) {
    UserKernelState state;
    state.window.set_user(trace.user());
    const auto& records = trace.records();
    std::size_t folded_last = 0;
    for (std::size_t next = 0; next < records.size(); next += chunk) {
      const std::size_t end = std::min(next + chunk, records.size());
      std::vector<mobility::Record> pending(records.begin() + next,
                                            records.begin() + end);
      folded_last = kernel.fold(state, std::move(pending));
      kernel.step(state, folded_last, Tier::kFull);
    }
    kernel.step(state, 0, Tier::kFinal);
    return Verdict{state.decision, state.winner};
  }

  static mobility::Dataset* dataset_;
  static core::ExperimentHarness* harness_;
};

mobility::Dataset* DecisionKernelTest::dataset_ = nullptr;
core::ExperimentHarness* DecisionKernelTest::harness_ = nullptr;

TEST(DecisionNames, Stable) {
  EXPECT_EQ(to_string(Decision::kExpose), "expose");
  EXPECT_EQ(to_string(Decision::kProtect), "protect");
}

/// evaluate_gateway is the kernel in batch clothing: its expose set must
/// equal evaluate_no_lppm's protected set, and every protect verdict must
/// carry the whole-trace search winner.
TEST_F(DecisionKernelTest, GatewayMatchesNoLppmAndWholeTraceSearch) {
  const core::GatewayResult gateway = harness_->evaluate_gateway();
  const core::StrategyResult no_lppm = harness_->evaluate_no_lppm();
  const MoodEngine engine = harness_->make_engine();
  ASSERT_EQ(gateway.users.size(), no_lppm.users.size());
  ASSERT_EQ(gateway.users.size(), harness_->pairs().size());
  bool any_exposed = false;
  bool any_protected = false;
  for (std::size_t i = 0; i < gateway.users.size(); ++i) {
    const auto& pair = harness_->pairs()[i];
    const auto& verdict = gateway.users[i];
    ASSERT_EQ(verdict.user, pair.test.user());
    ASSERT_EQ(verdict.user, no_lppm.users[i].user);
    const bool exposed = verdict.decision == Decision::kExpose;
    EXPECT_EQ(exposed, no_lppm.users[i].is_protected) << verdict.user;
    if (exposed) {
      any_exposed = true;
      EXPECT_TRUE(verdict.winner.empty()) << verdict.user;
    } else {
      any_protected = true;
      const auto candidate = engine.search(pair.test);
      EXPECT_EQ(verdict.winner, candidate ? candidate->lppm : "")
          << verdict.user;
    }
  }
  // The population must exercise both verdicts or the test proves little.
  EXPECT_TRUE(any_exposed);
  EXPECT_TRUE(any_protected);
  EXPECT_EQ(gateway.exposed_users(),
            no_lppm.user_count() - no_lppm.non_protected_users());
}

/// at_risk_trace compiles the window profiles once for all attacks; it
/// must agree with walking the raw-trace targeted queries attack by
/// attack (the pre-kernel no-LPPM evaluator).
TEST_F(DecisionKernelTest, AtRiskTraceMatchesRawAttackWalk) {
  const DecisionKernel kernel = harness_->make_kernel();
  for (const auto& pair : harness_->pairs()) {
    bool caught = false;
    for (const auto& attack : harness_->attacks()) {
      if (attack->reidentifies_target(pair.test, pair.test.user())) {
        caught = true;
        break;
      }
    }
    EXPECT_EQ(kernel.at_risk_trace(pair.test), caught) << pair.test.user();
  }
}

/// One-shot vs chunked drives land on identical final verdicts, for
/// several chunk sizes — the batch/stream unification made structural.
TEST_F(DecisionKernelTest, DecideTraceIsChunkIndependent) {
  const DecisionKernel kernel = harness_->make_kernel();
  for (const auto& pair : harness_->pairs()) {
    const Verdict reference = kernel.decide_trace(pair.test);
    for (const std::size_t chunk : {7u, 64u, 1024u}) {
      const Verdict chunked = decide_chunked(kernel, pair.test, chunk);
      EXPECT_EQ(chunked.decision, reference.decision)
          << pair.test.user() << " chunk=" << chunk;
      EXPECT_EQ(chunked.winner, reference.winner)
          << pair.test.user() << " chunk=" << chunk;
    }
  }
}

/// Same property on a windowed kernel: chunked folds evict at different
/// points than the one-shot fold, but the final window and the stay origin
/// pinned at the first record — hence the canonical verdict — are the
/// same.
TEST_F(DecisionKernelTest, WindowedKernelIsChunkIndependent) {
  KernelConfig config;
  config.max_points = 120;
  const DecisionKernel kernel = harness_->make_kernel({}, config);
  for (const auto& pair : harness_->pairs()) {
    const Verdict reference = kernel.decide_trace(pair.test);
    const Verdict chunked = decide_chunked(kernel, pair.test, 33);
    EXPECT_EQ(chunked.decision, reference.decision) << pair.test.user();
    EXPECT_EQ(chunked.winner, reference.winner) << pair.test.user();
  }
  const KernelStats stats = kernel.stats();
  EXPECT_GT(stats.evicted_points, 0u);
}

/// Every full verdict reads exact profiles of the current window: driven
/// one record at a time under the gateway's tier rule (slack 16), each
/// full step's verdict is at_risk_trace on a copy of the window. Unwindowed,
/// so the pinned stay origin is the window's own first record.
TEST_F(DecisionKernelTest, FullVerdictsMatchAtRiskTraceOnTheWindow) {
  const DecisionKernel kernel = harness_->make_kernel();
  std::size_t full_steps = 0;
  for (const auto& pair : harness_->pairs()) {
    UserKernelState state;
    state.window.set_user(pair.test.user());
    for (const mobility::Record& record : pair.test.records()) {
      const Tier tier = tier_for(state, 16, /*shed=*/false);
      kernel.step(state, kernel.fold(state, {&record, 1}), tier);
      if (tier != Tier::kFull) continue;
      ++full_steps;
      const bool risk = kernel.at_risk_trace(state.window);
      ASSERT_EQ(state.decision == Decision::kProtect, risk)
          << pair.test.user() << " event " << state.events;
    }
  }
  EXPECT_GT(full_steps, harness_->pairs().size());
}

/// The stay origin is pinned at the first record ever folded and stays
/// there while a capped window slides past it, however the folds are
/// chunked.
TEST_F(DecisionKernelTest, StayOriginStaysAtTheFirstRecordEverFolded) {
  KernelConfig config;
  config.max_points = 50;
  const DecisionKernel kernel = harness_->make_kernel({}, config);
  const auto& records = harness_->pairs().front().test.records();
  ASSERT_GT(records.size(), 2 * config.max_points);
  for (const std::size_t chunk : {1u, 33u}) {
    UserKernelState state;
    for (std::size_t next = 0; next < records.size(); next += chunk) {
      const std::size_t end = std::min(next + chunk, records.size());
      kernel.fold(state, std::span(records).subspan(next, end - next));
      EXPECT_EQ(state.stay_origin, records.front().position);
    }
    EXPECT_EQ(state.window.size(), config.max_points);
    EXPECT_EQ(state.window.front().time,
              records[records.size() - config.max_points].time);
  }
}

/// The kernel caches no profile, so it has no staleness bound to honour:
/// a non-zero one is refused, not silently ignored.
TEST_F(DecisionKernelTest, NonZeroStalenessIsRefused) {
  KernelConfig config;
  config.staleness_points = 50;
  EXPECT_THROW((void)harness_->make_kernel({}, config),
               support::PreconditionError);
}

TEST_F(DecisionKernelTest, EmptyTraceIsExposedWithoutCounting) {
  const DecisionKernel kernel = harness_->make_kernel();
  const mobility::Trace empty("nobody", {});
  EXPECT_FALSE(kernel.at_risk_trace(empty));
  const Verdict verdict = kernel.decide_trace(empty);
  EXPECT_EQ(verdict.decision, Decision::kExpose);
  EXPECT_TRUE(verdict.winner.empty());
  EXPECT_EQ(kernel.stats().decisions, 0u);
}

TEST_F(DecisionKernelTest, DivergentPoiAndPitParamsAreRejected) {
  // One stay extraction serves POI and PIT, in the search's candidates as
  // in the kernel's windows, so MoodEngine rejects a suite whose PIT
  // clusters stays differently from its POI attack.
  std::vector<mobility::Trace> background;
  for (const auto& pair : harness_->pairs()) background.push_back(pair.train);
  attacks::PoiAttack poi;
  clustering::PoiParams wider;
  wider.max_diameter_m = 2.0 * poi.params().max_diameter_m;
  attacks::PitAttack pit(wider);
  poi.train(background);
  pit.train(background);
  const metrics::SpatialTemporalDistortion metric;
  const auto engine = [&](const attacks::PitAttack& pit_attack) {
    return MoodEngine(harness_->registry().singles(), {}, {&poi, &pit_attack},
                      &metric, MoodConfig{});
  };
  EXPECT_THROW((void)engine(pit), support::PreconditionError);
  attacks::PitAttack same(poi.params());
  same.train(background);
  EXPECT_NO_THROW(DecisionKernel{engine(same)});
}

TEST_F(DecisionKernelTest, StatsAccumulateAcrossDecisions) {
  const DecisionKernel kernel = harness_->make_kernel();
  for (const auto& pair : harness_->pairs()) {
    (void)kernel.decide_trace(pair.test);
  }
  const KernelStats stats = kernel.stats();
  EXPECT_EQ(stats.decisions, harness_->pairs().size());
  EXPECT_EQ(stats.exposed_events + stats.protected_events,
            [&] {
              std::size_t n = 0;
              for (const auto& pair : harness_->pairs()) n += pair.test.size();
              return n;
            }());
  EXPECT_GT(stats.attack_invocations, 0u);
  // Nothing is cached, so nothing is refreshed or rebuilt.
  EXPECT_EQ(stats.profile_refreshes, 0u);
  EXPECT_EQ(stats.stay_rebuilds, 0u);
}

// ------------------------------------------------ held-verdict tiers --

/// Every KernelStats counter by name, in declaration order.
std::vector<std::pair<const char*, std::uint64_t>> counters(
    const KernelStats& s) {
  return {{"decisions", s.decisions},
          {"exposed_events", s.exposed_events},
          {"protected_events", s.protected_events},
          {"searches", s.searches},
          {"rechecks", s.rechecks},
          {"shed_decisions", s.shed_decisions},
          {"profile_refreshes", s.profile_refreshes},
          {"stay_rebuilds", s.stay_rebuilds},
          {"evicted_points", s.evicted_points},
          {"lppm_applications", s.lppm_applications},
          {"attack_invocations", s.attack_invocations},
          {"index_prunes", s.index_prunes},
          {"exact_evals", s.exact_evals},
          {"index_rebuilds", s.index_rebuilds}};
}

/// Runs `call` and returns how much it moved each kernel counter.
template <typename Call>
std::vector<std::pair<const char*, std::uint64_t>> delta_of(
    const DecisionKernel& kernel, Call&& call) {
  auto before = counters(kernel.stats());
  call();
  auto after = counters(kernel.stats());
  for (std::size_t i = 0; i < after.size(); ++i) {
    after[i].second -= before[i].second;
  }
  return after;
}

std::uint64_t counter(
    const std::vector<std::pair<const char*, std::uint64_t>>& delta,
    const std::string& name) {
  for (const auto& [key, value] : delta) {
    if (name == key) return value;
  }
  ADD_FAILURE() << "no counter " << name;
  return 0;
}

/// Field-by-field equality of two kernel states: the window, the stay
/// origin, the verdict and the per-user counters.
void expect_same_state(const UserKernelState& a, const UserKernelState& b) {
  EXPECT_TRUE(a.window == b.window);
  EXPECT_EQ(a.stay_origin, b.stay_origin);
  EXPECT_EQ(a.has_decision, b.has_decision);
  EXPECT_EQ(a.decision, b.decision);
  EXPECT_EQ(a.winner, b.winner);
  EXPECT_EQ(a.searched_events, b.searched_events);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.risk_transitions, b.risk_transitions);
  EXPECT_EQ(a.searches, b.searches);
  EXPECT_EQ(a.rechecks, b.rechecks);
  EXPECT_EQ(a.degraded, b.degraded);
}

/// The tier rule over events 1..130: a user with no verdict always gets
/// kFull; with one, shedding gets kShed, else kFull exactly on the slack
/// multiples (every event for slack 0 and 1) and kHeld between. The full
/// events are listed, not recomputed, so the table is no copy of the rule.
TEST_F(DecisionKernelTest, TierForIsFullOnFirstVerdictAndSlackMultiples) {
  const std::vector<std::uint64_t> every_7th = {
      7, 14, 21, 28, 35, 42, 49, 56, 63, 70, 77, 84, 91, 98, 105, 112, 119,
      126};
  const std::vector<std::uint64_t> every_64th = {64, 128};
  const struct {
    std::size_t slack;
    const std::vector<std::uint64_t>* full;  ///< null = every event
  } table[] = {{0, nullptr}, {1, nullptr}, {7, &every_7th}, {64, &every_64th}};
  for (const auto& row : table) {
    for (const bool shed : {false, true}) {
      for (std::uint64_t events = 1; events <= 130; ++events) {
        UserKernelState state;
        state.events = events;
        EXPECT_EQ(tier_for(state, row.slack, shed), Tier::kFull)
            << "no verdict yet, slack " << row.slack << " event " << events;
        state.has_decision = true;
        const bool full =
            row.full == nullptr ||
            std::find(row.full->begin(), row.full->end(), events) !=
                row.full->end();
        const Tier expected =
            shed ? Tier::kShed : (full ? Tier::kFull : Tier::kHeld);
        EXPECT_EQ(tier_for(state, row.slack, shed), expected)
            << "slack " << row.slack << " shed " << shed << " event "
            << events;
      }
    }
  }
}

/// Fail-closed at kernel level: on a user with no verdict yet, kHeld and
/// kShed run kFull — the same state and the same counter deltas.
TEST_F(DecisionKernelTest, HeldAndShedOnAFreshStateRunTheFullTier) {
  const DecisionKernel kernel = harness_->make_kernel();
  std::size_t protected_users = 0;
  for (const auto& pair : harness_->pairs()) {
    const auto& records = pair.test.records();
    UserKernelState full;
    full.window.set_user(pair.test.user());
    kernel.fold(full, records);
    UserKernelState held = full;
    UserKernelState shed = full;
    const std::size_t n = records.size();
    const auto via_full =
        delta_of(kernel, [&] { kernel.step(full, n, Tier::kFull); });
    const auto via_held =
        delta_of(kernel, [&] { kernel.step(held, n, Tier::kHeld); });
    const auto via_shed =
        delta_of(kernel, [&] { kernel.step(shed, n, Tier::kShed); });
    EXPECT_EQ(via_held, via_full) << pair.test.user();
    EXPECT_EQ(via_shed, via_full) << pair.test.user();
    expect_same_state(held, full);
    expect_same_state(shed, full);
    EXPECT_TRUE(full.has_decision) << pair.test.user();
    if (full.decision == Decision::kProtect) ++protected_users;
  }
  // Both verdicts occur, so the full tier's risk query and search ran.
  EXPECT_GT(protected_users, 0u);
  EXPECT_LT(protected_users, harness_->pairs().size());
}

/// decide_recheck is exactly decide_held: two states driven through the
/// same events in lockstep under the gateway's tier rule (tier_for at slack
/// 64), one taking decide_recheck and one decide_held on every 16th held
/// event, stay field-for-field equal, and each pair of calls moves every
/// kernel counter by the same amount.
TEST_F(DecisionKernelTest, DecideRecheckIsExactlyDecideHeld) {
  const DecisionKernel kernel = harness_->make_kernel();
  std::uint64_t held_protected_calls = 0;
  for (const auto& pair : harness_->pairs()) {
    UserKernelState via_recheck;
    UserKernelState via_held;
    via_recheck.window.set_user(pair.test.user());
    via_held.window.set_user(pair.test.user());
    for (const mobility::Record& record : pair.test.records()) {
      const auto fold_a = delta_of(kernel, [&] {
        kernel.fold(via_recheck, {&record, 1});
      });
      const auto fold_b = delta_of(kernel, [&] {
        kernel.fold(via_held, {&record, 1});
      });
      EXPECT_EQ(fold_a, fold_b) << pair.test.user();
      const std::uint64_t k = via_recheck.events;
      if (tier_for(via_recheck, 64, /*shed=*/false) == Tier::kFull) {
        const auto a = delta_of(kernel, [&] { kernel.decide(via_recheck, 1); });
        const auto b = delta_of(kernel, [&] { kernel.decide(via_held, 1); });
        EXPECT_EQ(a, b) << pair.test.user() << " event " << k;
      } else if (k % 16 == 0) {
        if (via_held.decision == Decision::kProtect &&
            !via_held.winner.empty()) {
          ++held_protected_calls;
        }
        const auto a = delta_of(kernel, [&] {
          kernel.decide_recheck(via_recheck, 1);
        });
        const auto b = delta_of(kernel, [&] {
          kernel.decide_held(via_held, 1);
        });
        EXPECT_EQ(a, b) << pair.test.user() << " event " << k;
        // Event accounting only: one decision, no risk query, no LPPM.
        EXPECT_EQ(counter(a, "decisions"), 1u);
        EXPECT_EQ(counter(a, "exposed_events") + counter(a, "protected_events"),
                  1u);
        EXPECT_EQ(counter(a, "rechecks"), 0u);
        EXPECT_EQ(counter(a, "lppm_applications"), 0u);
        EXPECT_EQ(counter(a, "attack_invocations"), 0u);
        EXPECT_EQ(counter(a, "exact_evals"), 0u);
      } else {
        kernel.decide_held(via_recheck, 1);
        kernel.decide_held(via_held, 1);
      }
      expect_same_state(via_recheck, via_held);
    }
    const auto a = delta_of(kernel, [&] { kernel.finalize(via_recheck, 0); });
    const auto b = delta_of(kernel, [&] { kernel.finalize(via_held, 0); });
    EXPECT_EQ(a, b) << pair.test.user();
    expect_same_state(via_recheck, via_held);
  }
  // The comparison is not vacuous: protected users holding a winner hit
  // the old recheck cadence.
  EXPECT_GT(held_protected_calls, 0u);
}

/// The shed tier holds the verdict and keeps its counters, but runs no
/// LPPM and no attack, even for a protected user holding a winner.
TEST_F(DecisionKernelTest, StepShedRunsNoLppmAndNoAttack) {
  const DecisionKernel kernel = harness_->make_kernel();
  std::size_t protected_users = 0;
  for (const auto& pair : harness_->pairs()) {
    const auto& records = pair.test.records();
    ASSERT_GE(records.size(), 2u);
    UserKernelState state;
    state.window.set_user(pair.test.user());
    kernel.fold(state, std::vector<mobility::Record>(records.begin(),
                                                     records.end() - 1));
    kernel.step(state, records.size() - 1, Tier::kFull);
    if (state.decision != Decision::kProtect || state.winner.empty()) {
      continue;
    }
    ++protected_users;
    const std::string winner = state.winner;
    const std::uint64_t rechecks = state.rechecks;
    const std::uint64_t searched_events = state.searched_events;
    kernel.fold(state, {&records.back(), 1});
    const auto delta = delta_of(kernel, [&] {
      kernel.step(state, 1, Tier::kShed);
    });
    EXPECT_EQ(counter(delta, "rechecks"), 0u) << pair.test.user();
    EXPECT_EQ(counter(delta, "lppm_applications"), 0u) << pair.test.user();
    EXPECT_EQ(counter(delta, "attack_invocations"), 0u) << pair.test.user();
    EXPECT_EQ(counter(delta, "exact_evals"), 0u) << pair.test.user();
    EXPECT_EQ(counter(delta, "searches"), 0u) << pair.test.user();
    EXPECT_EQ(counter(delta, "decisions"), 1u) << pair.test.user();
    EXPECT_EQ(counter(delta, "protected_events"), 1u) << pair.test.user();
    EXPECT_EQ(counter(delta, "shed_decisions"), 1u) << pair.test.user();
    EXPECT_EQ(state.decision, Decision::kProtect) << pair.test.user();
    EXPECT_EQ(state.winner, winner) << pair.test.user();
    EXPECT_EQ(state.rechecks, rechecks) << pair.test.user();
    EXPECT_EQ(state.searched_events, searched_events) << pair.test.user();
    EXPECT_EQ(state.degraded, 1u) << pair.test.user();
  }
  EXPECT_GT(protected_users, 0u);
}

/// The batch evaluators fan MoodEngine::search out over the shared pool
/// against one trained suite, so pool threads reach the POI and PIT scan
/// counters, AP's posting buffers and the thread-local cell-count table
/// (profiles::cell_counts) at once. Every search must answer as a serial
/// one, and the attacks' counters must add up to the serial run's. The
/// tsan preset runs this suite.
class SearchConcurrency : public DecisionKernelTest {};

TEST_F(SearchConcurrency, ParallelSearchesMatchASerialRun) {
  const MoodEngine engine = harness_->make_engine();
  const auto& pairs = harness_->pairs();
  const auto work = [&] {
    std::vector<std::uint64_t> exact;
    for (const auto* attack : engine.attacks()) {
      exact.push_back(attack->index_stats().exact_evaluations);
    }
    return exact;
  };
  const auto run = [&](std::size_t i) {
    ProtectionResult cost;
    const auto candidate = engine.search(pairs[i].test, &cost);
    return std::make_tuple(candidate ? candidate->lppm : std::string{},
                           candidate ? candidate->distortion : 0.0,
                           cost.lppm_applications, cost.attack_invocations);
  };
  const std::vector<std::uint64_t> start = work();
  std::vector<decltype(run(0))> serial;
  for (std::size_t i = 0; i < pairs.size(); ++i) serial.push_back(run(i));
  const std::vector<std::uint64_t> after_serial = work();

  std::vector<decltype(run(0))> parallel(pairs.size());
  support::parallel_for(pairs.size(),
                        [&](std::size_t i) { parallel[i] = run(i); });
  const std::vector<std::uint64_t> after_parallel = work();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[i]) << pairs[i].test.user();
  }
  for (std::size_t a = 0; a < start.size(); ++a) {
    EXPECT_EQ(after_parallel[a] - after_serial[a], after_serial[a] - start[a])
        << engine.attacks()[a]->name();
    EXPECT_GT(after_serial[a], start[a]) << engine.attacks()[a]->name();
  }
}

}  // namespace
}  // namespace mood::decision
