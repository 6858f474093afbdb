// Mock-driven tests of Algorithm 1: the MooD engine's single pass,
// composition pass, best-utility selection, fine-grained recursion, the
// delta floor, id renewal and the crowdsensing pre-slicing mode.
//
// The mocks make the control flow directly observable: ShiftLppm displaces
// traces north by a fixed amount (displacements add up under composition,
// STD equals the total shift), and FakeAttack re-identifies the owner
// whenever a predicate on the observed trace holds.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <thread>

#include "decision/mood_engine.h"
#include "lppm/composition.h"
#include "metrics/distortion.h"
#include "support/error.h"
#include "test_helpers.h"

namespace mood::decision {
namespace {

using mobility::kHour;
using mobility::Timestamp;
using mobility::Trace;
using testing::FakeAttack;
using testing::rec;
using testing::ShiftLppm;

/// Original (unshifted) latitude of the test traces; the oracles below
/// measure displacement against it.
constexpr double kBaseLat = 45.0;

double shift_of(const Trace& trace) {
  if (trace.empty()) return 0.0;
  double mean_lat = 0.0;
  for (const auto& r : trace.records()) mean_lat += r.position.lat;
  mean_lat /= static_cast<double>(trace.size());
  return geo::deg_to_rad(mean_lat - kBaseLat) * geo::kEarthRadiusM;
}

/// Attack that re-identifies the owner unless the trace moved at least
/// `threshold_m` north of its true position.
FakeAttack::Oracle catches_below(double threshold_m) {
  return [threshold_m](const Trace& trace) -> std::optional<mobility::UserId> {
    if (shift_of(trace) < threshold_m) {
      // Mocks assume the single test user "victim".
      return mobility::UserId("victim");
    }
    return std::nullopt;
  };
}

/// A 24-hour trace for user "victim", one record per 30 min at kBaseLat.
Trace day_trace() {
  std::vector<mobility::Record> records;
  for (Timestamp t = 0; t < 24 * kHour; t += kHour / 2) {
    records.push_back(rec(kBaseLat, 5.0, t));
  }
  return Trace("victim", std::move(records));
}

class EngineTest : public ::testing::Test {
 protected:
  MoodEngine make_engine(std::vector<const lppm::Lppm*> singles,
                         std::vector<const attacks::Attack*> attack_views,
                         MoodConfig config = {}) {
    return MoodEngine(std::move(singles),
                      lppm::enumerate_compositions(singles_, 2,
                                                   singles_.size()),
                      std::move(attack_views), &metric_, config);
  }

  // Shifts: A = 60 m, B = 100 m, C = 150 m.
  ShiftLppm a_{"A", 60.0};
  ShiftLppm b_{"B", 100.0};
  ShiftLppm c_{"C", 150.0};
  std::vector<const lppm::Lppm*> singles_{&a_, &b_, &c_};
  metrics::SpatialTemporalDistortion metric_;
};

TEST_F(EngineTest, SinglePassPicksLowestDistortionProtectiveLppm) {
  // Threshold 80 m: B (100) and C (150) protect; A (60) does not.
  FakeAttack attack("fake", catches_below(80.0));
  const std::vector<const attacks::Attack*> attacks{&attack};
  const auto engine = make_engine(singles_, attacks);

  const auto candidate = engine.search(day_trace());
  ASSERT_TRUE(candidate.has_value());
  EXPECT_EQ(candidate->level, ProtectionLevel::kSingle);
  EXPECT_EQ(candidate->lppm, "B");  // argmin STD among protective singles
  EXPECT_NEAR(candidate->distortion, 100.0, 1.0);
}

TEST_F(EngineTest, CompositionPassRunsOnlyWhenSinglesFail) {
  // Threshold 200 m: no single protects (max 150). Compositions reach
  // 160..310; best utility = lowest total shift >= 200, i.e. A+C = 210.
  FakeAttack attack("fake", catches_below(200.0));
  const std::vector<const attacks::Attack*> attacks{&attack};
  const auto engine = make_engine(singles_, attacks);

  const auto candidate = engine.search(day_trace());
  ASSERT_TRUE(candidate.has_value());
  EXPECT_EQ(candidate->level, ProtectionLevel::kComposition);
  EXPECT_NEAR(candidate->distortion, 210.0, 1.0);
  // A+C and C+A tie to the bit (both shift 210 m). The serial scan keeps
  // the first of equal minima: A+C, at position 1 of C \ L (C+A is 4).
  const auto a_c = engine.recheck("A+C", day_trace());
  const auto c_a = engine.recheck("C+A", day_trace());
  ASSERT_TRUE(a_c && c_a);
  ASSERT_EQ(a_c->distortion, c_a->distortion);
  EXPECT_EQ(candidate->lppm, "A+C");
}

/// ShiftLppm that sleeps before it shifts, so the composition pass's task
/// applying it finishes after its peers. It waits on no other task, so a
/// one-worker pool cannot hang on it.
class SlowShiftLppm final : public lppm::Lppm {
 public:
  SlowShiftLppm(std::string name, double north_m)
      : shift_(std::move(name), north_m) {}
  [[nodiscard]] std::string name() const override { return shift_.name(); }
  [[nodiscard]] Trace apply(const Trace& trace,
                            support::RngStream rng) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return shift_.apply(trace, rng);
  }

 private:
  ShiftLppm shift_;
};

TEST_F(EngineTest, CompositionTieGoesToTheLowerPositionInAnyFinishOrder) {
  // S and F both shift 60 m, so C+S and C+F produce the same output and
  // tie to the bit; only S is slow. S is the last stage, so the pair
  // level's task that applies it finishes after its peers (its prefix C
  // is a single). Whether the lower position finishes last (C+S first)
  // or first (C+F first), it wins, as in a serial scan.
  FakeAttack attack("fake", catches_below(200.0));
  const std::vector<const attacks::Attack*> attacks{&attack};
  SlowShiftLppm slow("S", 60.0);
  ShiftLppm fast("F", 60.0);
  using Stages = std::vector<const lppm::Lppm*>;
  for (const bool slow_first : {true, false}) {
    const Stages low = slow_first ? Stages{&c_, &slow} : Stages{&c_, &fast};
    const Stages high = slow_first ? Stages{&c_, &fast} : Stages{&c_, &slow};
    // Two failing compositions first, so the tie sits mid-pass.
    const MoodEngine engine(
        singles_,
        {lppm::Composition({&a_, &b_}), lppm::Composition({&b_, &a_}),
         lppm::Composition(low), lppm::Composition(high)},
        attacks, &metric_, {});
    const auto expected = engine.recheck(lppm::Composition(low).name(),
                                         day_trace());
    const auto other = engine.recheck(lppm::Composition(high).name(),
                                      day_trace());
    ASSERT_TRUE(expected && other);
    ASSERT_EQ(expected->distortion, other->distortion);
    ProtectionResult cost;
    const auto candidate = engine.search(day_trace(), &cost);
    ASSERT_TRUE(candidate.has_value());
    EXPECT_EQ(candidate->lppm, expected->lppm) << "slow first: " << slow_first;
    EXPECT_EQ(candidate->output, expected->output);
    EXPECT_EQ(cost.lppm_applications, 3u + 4u);
    EXPECT_EQ(cost.attack_invocations, 3u + 4u);
  }
}

/// ShiftLppm that counts its applications, from any thread.
class CountingShiftLppm final : public lppm::Lppm {
 public:
  CountingShiftLppm(std::string name, double north_m)
      : shift_(std::move(name), north_m) {}
  [[nodiscard]] std::string name() const override { return shift_.name(); }
  [[nodiscard]] Trace apply(const Trace& trace,
                            support::RngStream rng) const override {
    applied_.fetch_add(1);
    return shift_.apply(trace, rng);
  }
  [[nodiscard]] std::size_t applied() const { return applied_.load(); }

 private:
  ShiftLppm shift_;
  mutable std::atomic<std::size_t> applied_{0};
};

TEST_F(EngineTest, FullSearchAppliesEachPrefixTreeNodeOnce) {
  // A composition is its prefix plus one stage (Eq. 3), so a full search
  // over three singles applies the 15 nodes of the prefix tree: 3 singles,
  // 6 pairs, 6 triples. Applying every stage of every candidate from the
  // trace would take 3 + 6x2 + 6x3 = 33.
  CountingShiftLppm a("A", 60.0);
  CountingShiftLppm b("B", 100.0);
  CountingShiftLppm c("C", 150.0);
  const std::vector<const lppm::Lppm*> singles{&a, &b, &c};
  FakeAttack attack("fake", catches_below(1e9));
  const MoodEngine engine(singles, lppm::enumerate_compositions(singles, 2, 3),
                          {&attack}, &metric_, {});
  ProtectionResult cost;
  EXPECT_FALSE(engine.search(day_trace(), &cost).has_value());
  // Each LPPM is one single, the last stage of 2 pairs and of 2 triples.
  EXPECT_EQ(a.applied(), 5u);
  EXPECT_EQ(b.applied(), 5u);
  EXPECT_EQ(c.applied(), 5u);
  // The counters still count candidates priced, one per mechanism.
  EXPECT_EQ(cost.lppm_applications, 15u);
  EXPECT_EQ(cost.attack_invocations, 15u);
}

TEST_F(EngineTest, MissingPrefixesAreAppliedOnDemandOnceAndNotPriced) {
  // The list is not prefix-closed: no candidate is A+B, B+C or S, and S
  // is not a single. Each missing prefix is applied once, in its level,
  // and priced by no attack.
  CountingShiftLppm a("A", 60.0);
  CountingShiftLppm b("B", 100.0);
  CountingShiftLppm c("C", 150.0);
  CountingShiftLppm s("S", 60.0);
  const std::vector<const lppm::Lppm*> singles{&a, &b, &c};
  FakeAttack attack("fake", catches_below(300.0));
  const MoodEngine engine(singles,
                          {lppm::Composition({&a, &b, &c}),
                           lppm::Composition({&b, &c, &a}),
                           lppm::Composition({&s, &c})},
                          {&attack}, &metric_, {});
  ProtectionResult cost;
  const auto candidate = engine.search(day_trace(), &cost);
  // Singles A, B, C; then S; A+B, B+C, S+C; then A+B+C, B+C+A.
  EXPECT_EQ(a.applied(), 1u + 1u);
  EXPECT_EQ(b.applied(), 1u + 1u);
  EXPECT_EQ(c.applied(), 1u + 2u + 1u);
  EXPECT_EQ(s.applied(), 1u);
  EXPECT_EQ(cost.lppm_applications, 3u + 3u);
  EXPECT_EQ(cost.attack_invocations, 3u + 3u);
  // Only the triples (310 m) protect; the winner is the one recheck()
  // rebuilds from the trace, bit for bit.
  ASSERT_TRUE(candidate.has_value());
  EXPECT_EQ(candidate->level, ProtectionLevel::kComposition);
  const auto expected = engine.recheck(candidate->lppm, day_trace());
  ASSERT_TRUE(expected.has_value());
  EXPECT_EQ(candidate->output, expected->output);
  EXPECT_EQ(candidate->distortion, expected->distortion);
  EXPECT_FALSE(engine.recheck("S+C", day_trace()).has_value());
}

TEST_F(EngineTest, CandidateListedAfterItsExtensionKeepsItsName) {
  // A+B is a node of the tree before it is a candidate: A+B+C, listed
  // first, put it there. Threshold 155 m: no single protects; A+B (160)
  // beats A+B+C (310).
  FakeAttack attack("fake", catches_below(155.0));
  const MoodEngine engine(
      singles_,
      {lppm::Composition({&a_, &b_, &c_}), lppm::Composition({&a_, &b_})},
      {&attack}, &metric_, {});
  ProtectionResult cost;
  const auto candidate = engine.search(day_trace(), &cost);
  ASSERT_TRUE(candidate.has_value());
  EXPECT_EQ(candidate->lppm, "A+B");
  const auto expected = engine.recheck("A+B", day_trace());
  ASSERT_TRUE(expected.has_value());
  EXPECT_EQ(candidate->output, expected->output);
  EXPECT_EQ(cost.lppm_applications, 3u + 2u);
}

TEST_F(EngineTest, MultipleAttacksMustAllFail) {
  // Attack 1 threshold 120 m, attack 2 threshold 260 m: only the triple
  // compositions (total 310) defeat both.
  FakeAttack attack1("fake1", catches_below(120.0));
  FakeAttack attack2("fake2", catches_below(260.0));
  const std::vector<const attacks::Attack*> attacks{&attack1, &attack2};
  const auto engine = make_engine(singles_, attacks);

  const auto candidate = engine.search(day_trace());
  ASSERT_TRUE(candidate.has_value());
  EXPECT_EQ(candidate->level, ProtectionLevel::kComposition);
  EXPECT_NEAR(candidate->distortion, 310.0, 1.0);
}

// ---- An empty C \ L: the engine is HybridLPPM, the per-user best
// protective single LPPM with no composition pass.

TEST_F(EngineTest, WithoutCompositionsPicksLowestDistortionProtectiveSingle) {
  FakeAttack attack("fake", catches_below(80.0));
  const MoodEngine engine(singles_, {}, {&attack}, &metric_, {});
  const auto candidate = engine.search(day_trace());
  ASSERT_TRUE(candidate.has_value());
  EXPECT_EQ(candidate->level, ProtectionLevel::kSingle);
  EXPECT_EQ(candidate->lppm, "B");  // 100 m beats 150 m, 60 m is caught
  EXPECT_NEAR(candidate->distortion, 100.0, 1.0);
}

TEST_F(EngineTest, WithoutCompositionsAnOrphanYieldsNullopt) {
  // No single reaches 200 m: the search gives up after the singles pass
  // (the full engine's compositions would protect).
  FakeAttack attack("fake", catches_below(200.0));
  const MoodEngine engine(singles_, {}, {&attack}, &metric_, {});
  ProtectionResult cost;
  EXPECT_FALSE(engine.search(day_trace(), &cost).has_value());
  EXPECT_EQ(cost.lppm_applications, 3u);
  EXPECT_EQ(cost.attack_invocations, 3u);
}

TEST_F(EngineTest, WithoutCompositionsEveryAttackMustFail) {
  FakeAttack weak("weak", catches_below(80.0));
  FakeAttack strong("strong", catches_below(120.0));
  const MoodEngine engine(singles_, {}, {&weak, &strong}, &metric_, {});
  const auto candidate = engine.search(day_trace());
  ASSERT_TRUE(candidate.has_value());
  EXPECT_EQ(candidate->lppm, "C");  // only 150 m clears both thresholds
}

TEST_F(EngineTest, WithoutCompositionsAnEmptyTraceIsNotProtectable) {
  FakeAttack attack("fake", catches_below(0.0));
  const MoodEngine engine(singles_, {}, {&attack}, &metric_, {});
  EXPECT_FALSE(engine.search(Trace("victim", {})).has_value());
}

TEST_F(EngineTest, WithoutCompositionsValidatesConstruction) {
  // The singles-only engine keeps the full engine's preconditions.
  FakeAttack attack("fake", catches_below(0.0));
  EXPECT_THROW(MoodEngine({}, {}, {&attack}, &metric_, {}),
               support::PreconditionError);
  EXPECT_THROW(MoodEngine(singles_, {}, {}, &metric_, {}),
               support::PreconditionError);
  EXPECT_THROW(MoodEngine(singles_, {}, {&attack}, nullptr, {}),
               support::PreconditionError);
}

TEST_F(EngineTest, StillProtectsIsRecheckWithoutTheDistortion) {
  // The gateway's recheck asks still_protects, which prices no
  // distortion. For every single and composition it must give recheck's
  // verdict and move the same counters. Two attacks, so a mechanism the
  // first one catches is asked fewer questions than one that defeats it.
  FakeAttack weak("weak", catches_below(120.0));
  FakeAttack strong("strong", catches_below(260.0));
  const auto engine = make_engine(singles_, {&weak, &strong});
  std::vector<std::string> names;
  for (const auto* single : singles_) names.push_back(single->name());
  for (const auto& composition :
       lppm::enumerate_compositions(singles_, 2, singles_.size())) {
    names.push_back(composition.name());
  }
  ASSERT_EQ(names.size(), engine.candidate_count());
  std::set<bool> verdicts;
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    ProtectionResult priced;
    ProtectionResult asked;
    const bool expected =
        engine.recheck(name, day_trace(), &priced).has_value();
    EXPECT_EQ(engine.still_protects(name, day_trace(), &asked), expected);
    EXPECT_EQ(asked.lppm_applications, priced.lppm_applications);
    EXPECT_EQ(asked.attack_invocations, priced.attack_invocations);
    EXPECT_EQ(asked.lppm_applications, 1u);
    verdicts.insert(expected);
  }
  EXPECT_EQ(verdicts, (std::set<bool>{false, true}));  // both outcomes seen
  EXPECT_FALSE(engine.still_protects("A", Trace("victim", {})));
  EXPECT_THROW((void)engine.still_protects("nope", day_trace()),
               support::PreconditionError);
}

TEST_F(EngineTest, SearchFailsWhenNothingProtects) {
  FakeAttack attack("fake", catches_below(1e9));
  const std::vector<const attacks::Attack*> attacks{&attack};
  const auto engine = make_engine(singles_, attacks);
  EXPECT_FALSE(engine.search(day_trace()).has_value());
}

TEST_F(EngineTest, SearchCountsCost) {
  FakeAttack attack("fake", catches_below(1e9));
  const std::vector<const attacks::Attack*> attacks{&attack};
  const auto engine = make_engine(singles_, attacks);
  ProtectionResult cost;
  EXPECT_FALSE(engine.search(day_trace(), &cost).has_value());
  // 3 singles + 12 compositions, all tried, one attack each.
  EXPECT_EQ(cost.lppm_applications, 15u);
  EXPECT_EQ(cost.attack_invocations, 15u);
}

TEST_F(EngineTest, ProtectWholeTraceKeepsUserId) {
  FakeAttack attack("fake", catches_below(80.0));
  const std::vector<const attacks::Attack*> attacks{&attack};
  const auto engine = make_engine(singles_, attacks);

  const auto result = engine.protect(day_trace());
  EXPECT_EQ(result.level, ProtectionLevel::kSingle);
  ASSERT_EQ(result.pieces.size(), 1u);
  EXPECT_EQ(result.pieces[0].trace.user(), "victim");
  EXPECT_TRUE(result.fully_protected());
  EXPECT_EQ(result.lost_records, 0u);
  EXPECT_EQ(result.original_records, day_trace().size());
}

TEST_F(EngineTest, FineGrainedSplitsUntilSubTracesProtectable) {
  // This attack catches any trace spanning > 7 h regardless of shift
  // (long traces are too discriminative), and shorter traces when the
  // shift is under 80 m. A 24 h trace fails whole and as 12 h halves;
  // 6 h quarters are protectable by B or C.
  FakeAttack attack("fake", [](const Trace& trace)
                                -> std::optional<mobility::UserId> {
    if (trace.duration() > 7 * kHour) return mobility::UserId("victim");
    if (shift_of(trace) < 80.0) return mobility::UserId("victim");
    return std::nullopt;
  });
  const std::vector<const attacks::Attack*> attacks{&attack};
  const auto engine = make_engine(singles_, attacks);

  const auto result = engine.protect(day_trace());
  EXPECT_EQ(result.level, ProtectionLevel::kFineGrained);
  EXPECT_EQ(result.pieces.size(), 4u);  // 24 h -> 2 x 12 h -> 4 x 6 h
  EXPECT_TRUE(result.fully_protected());
  // renew_Ids: every piece published under a fresh pseudonym.
  std::set<std::string> ids;
  for (const auto& piece : result.pieces) {
    EXPECT_NE(piece.trace.user(), "victim");
    EXPECT_TRUE(piece.trace.user().starts_with("victim#"));
    ids.insert(piece.trace.user());
    EXPECT_EQ(piece.level, ProtectionLevel::kFineGrained);
  }
  EXPECT_EQ(ids.size(), result.pieces.size());
  // No record lost: piece originals partition the day.
  std::size_t piece_records = 0;
  for (const auto& piece : result.pieces) {
    piece_records += piece.original_records;
  }
  EXPECT_EQ(piece_records, day_trace().size());
}

TEST_F(EngineTest, DeltaFloorStopsRecursionAndErasesData) {
  // Nothing ever protects; delta = 4 h. The 24 h trace recurses down to
  // pieces shorter than 4 h, all of which are erased.
  FakeAttack attack("fake", catches_below(1e9));
  const std::vector<const attacks::Attack*> attacks{&attack};
  MoodConfig config;
  config.delta = 4 * kHour;
  const auto engine = make_engine(singles_, attacks, config);

  const auto result = engine.protect(day_trace());
  EXPECT_EQ(result.level, ProtectionLevel::kNone);
  EXPECT_TRUE(result.pieces.empty());
  EXPECT_EQ(result.lost_records, day_trace().size());
  EXPECT_FALSE(result.fully_protected());
}

TEST_F(EngineTest, PartialProtectionCountsPartialLoss) {
  // Catches: traces spanning > 7 h always; short traces in the first half
  // of the day always (owner's morning is hopeless); afternoon short
  // traces protected when shifted >= 80 m.
  FakeAttack attack("fake", [](const Trace& trace)
                                -> std::optional<mobility::UserId> {
    if (trace.duration() > 7 * kHour) return mobility::UserId("victim");
    if (trace.empty() || trace.front().time < 12 * kHour) {
      return mobility::UserId("victim");
    }
    if (shift_of(trace) < 80.0) return mobility::UserId("victim");
    return std::nullopt;
  });
  const std::vector<const attacks::Attack*> attacks{&attack};
  const auto engine = make_engine(singles_, attacks);

  const auto result = engine.protect(day_trace());
  EXPECT_EQ(result.level, ProtectionLevel::kFineGrained);
  EXPECT_GT(result.lost_records, 0u);
  EXPECT_LT(result.lost_records, day_trace().size());
  EXPECT_FALSE(result.fully_protected());
  EXPECT_GT(result.protected_records(), 0u);
}

TEST_F(EngineTest, MeanDistortionIsRecordWeighted) {
  ProtectionResult result;
  result.pieces.push_back(
      ProtectedPiece{Trace("x", {}), "A", ProtectionLevel::kSingle, 100.0, 10});
  result.pieces.push_back(
      ProtectedPiece{Trace("y", {}), "B", ProtectionLevel::kSingle, 200.0, 30});
  EXPECT_NEAR(result.mean_distortion(), 175.0, 1e-9);
}

TEST_F(EngineTest, CrowdsensingModePreslicesByConfiguredPeriod) {
  // 24 h trace, 6 h preslice, threshold 80 m: each of the 4 slices is
  // protected by a single LPPM; ids are renewed per slice.
  FakeAttack attack("fake", catches_below(80.0));
  const std::vector<const attacks::Attack*> attacks{&attack};
  MoodConfig config;
  config.preslice = 6 * kHour;
  const auto engine = make_engine(singles_, attacks, config);

  const auto result = engine.protect_crowdsensing(day_trace());
  EXPECT_EQ(result.pieces.size(), 4u);
  EXPECT_TRUE(result.fully_protected());
  for (const auto& piece : result.pieces) {
    EXPECT_TRUE(piece.trace.user().starts_with("victim#"));
  }
}

TEST_F(EngineTest, EmptyTraceProtectsTrivially) {
  FakeAttack attack("fake", catches_below(80.0));
  const std::vector<const attacks::Attack*> attacks{&attack};
  const auto engine = make_engine(singles_, attacks);
  const auto result = engine.protect(Trace("victim", {}));
  EXPECT_EQ(result.level, ProtectionLevel::kNone);
  EXPECT_EQ(result.lost_records, 0u);
  EXPECT_EQ(result.original_records, 0u);
}

TEST_F(EngineTest, FirstHitModeStopsEarly) {
  // Threshold 200: compositions of total >= 200 protect. In first-hit mode
  // the engine returns the first protective composition in enumeration
  // order instead of the global best.
  FakeAttack attack("fake", catches_below(200.0));
  const std::vector<const attacks::Attack*> attacks{&attack};
  MoodConfig config;
  config.first_hit = true;
  const auto engine = make_engine(singles_, attacks, config);

  ProtectionResult cost;
  const auto candidate = engine.search(day_trace(), &cost);
  ASSERT_TRUE(candidate.has_value());
  // Exhaustive mode would try all 15; first-hit stops earlier.
  EXPECT_LT(cost.lppm_applications, 15u);
}

TEST_F(EngineTest, ValidatesConstruction) {
  FakeAttack attack("fake", catches_below(1.0));
  const std::vector<const attacks::Attack*> attacks{&attack};
  EXPECT_THROW(MoodEngine({}, {}, attacks, &metric_, {}),
               support::PreconditionError);
  EXPECT_THROW(MoodEngine(singles_, {}, {}, &metric_, {}),
               support::PreconditionError);
  EXPECT_THROW(MoodEngine(singles_, {}, attacks, nullptr, {}),
               support::PreconditionError);
  MoodConfig bad;
  bad.delta = 0;
  EXPECT_THROW(MoodEngine(singles_, {}, attacks, &metric_, bad),
               support::PreconditionError);
}

TEST_F(EngineTest, RejectsShortOrRepeatedCompositions) {
  // C \ L holds compositions of two or more stages, each listed once.
  FakeAttack attack("fake", catches_below(1.0));
  const std::vector<const attacks::Attack*> attacks{&attack};
  EXPECT_THROW(MoodEngine(singles_, {lppm::Composition({&a_})}, attacks,
                          &metric_, {}),
               support::PreconditionError);
  EXPECT_THROW(MoodEngine(singles_,
                          {lppm::Composition({&a_, &b_}),
                           lppm::Composition({&a_, &b_})},
                          attacks, &metric_, {}),
               support::PreconditionError);
}

TEST(RenewIds, AssignsSequentialPseudonyms) {
  std::vector<ProtectedPiece> pieces(3);
  for (auto& piece : pieces) piece.trace = Trace("alice", {});
  renew_ids(pieces, "alice");
  EXPECT_EQ(pieces[0].trace.user(), "alice#0");
  EXPECT_EQ(pieces[1].trace.user(), "alice#1");
  EXPECT_EQ(pieces[2].trace.user(), "alice#2");
}

TEST(ProtectionLevelNames, Stable) {
  EXPECT_EQ(to_string(ProtectionLevel::kNone), "none");
  EXPECT_EQ(to_string(ProtectionLevel::kSingle), "single-LPPM");
  EXPECT_EQ(to_string(ProtectionLevel::kComposition), "multi-LPPM");
  EXPECT_EQ(to_string(ProtectionLevel::kFineGrained), "fine-grained");
}

}  // namespace
}  // namespace mood::decision
