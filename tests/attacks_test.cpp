// Unit tests for the three re-identification attacks and the suite factory.
// Uses a deterministic population with well-separated per-user POIs, so raw
// test traces are re-identifiable by construction.

#include <gtest/gtest.h>

#include "attacks/ap_attack.h"
#include "attacks/candidate.h"
#include "attacks/pit_attack.h"
#include "attacks/poi_attack.h"
#include "attacks/suite.h"
#include "support/error.h"
#include "test_helpers.h"

namespace mood::attacks {
namespace {

using mobility::Trace;
using testing::distinct_population;

class AttackFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto dataset = distinct_population(6, 6);
    auto pairs = dataset.chronological_split(0.5, 4);
    ASSERT_EQ(pairs.size(), 6u);
    for (auto& pair : pairs) {
      background_.push_back(pair.train);
      tests_.push_back(pair.test);
    }
    reference_ = dataset.traces()[0].bounding_box().center();
  }

  std::vector<Trace> background_;
  std::vector<Trace> tests_;
  geo::GeoPoint reference_;
};

TEST_F(AttackFixture, PoiAttackReidentifiesRawTraces) {
  PoiAttack attack;
  attack.train(background_);
  EXPECT_EQ(attack.trained_users(), 6u);
  for (const auto& test : tests_) {
    const auto answer = attack.reidentify(test);
    ASSERT_TRUE(answer.has_value());
    EXPECT_EQ(*answer, test.user());
  }
}

TEST_F(AttackFixture, PitAttackReidentifiesRawTraces) {
  PitAttack attack;
  attack.train(background_);
  for (const auto& test : tests_) {
    const auto answer = attack.reidentify(test);
    ASSERT_TRUE(answer.has_value());
    EXPECT_EQ(*answer, test.user());
  }
}

TEST_F(AttackFixture, ApAttackReidentifiesRawTraces) {
  ApAttack attack(geo::CellGrid(geo::LocalProjection(reference_), 800.0));
  attack.train(background_);
  for (const auto& test : tests_) {
    const auto answer = attack.reidentify(test);
    ASSERT_TRUE(answer.has_value());
    EXPECT_EQ(*answer, test.user());
  }
}

TEST_F(AttackFixture, PoiAttackAbstainsWithoutPois) {
  PoiAttack attack;
  attack.train(background_);
  // A fast-moving trace has no stay points -> no profile -> abstain.
  std::vector<mobility::Record> moving;
  geo::GeoPoint p = reference_;
  for (int i = 0; i < 50; ++i) {
    moving.push_back(mobility::Record{p, i * 60});
    p = geo::destination(p, 0.3, 500.0);
  }
  EXPECT_FALSE(attack.reidentify(Trace("x", std::move(moving))).has_value());
}

TEST_F(AttackFixture, PitAttackAbstainsWithoutPois) {
  PitAttack attack;
  attack.train(background_);
  std::vector<mobility::Record> moving;
  geo::GeoPoint p = reference_;
  for (int i = 0; i < 50; ++i) {
    moving.push_back(mobility::Record{p, i * 60});
    p = geo::destination(p, 0.3, 500.0);
  }
  EXPECT_FALSE(attack.reidentify(Trace("x", std::move(moving))).has_value());
}

TEST_F(AttackFixture, ApAttackAbstainsOnEmptyTrace) {
  ApAttack attack(geo::CellGrid(geo::LocalProjection(reference_), 800.0));
  attack.train(background_);
  EXPECT_FALSE(attack.reidentify(Trace("x", {})).has_value());
}

TEST_F(AttackFixture, ShiftedTraceMisattributed) {
  // A trace living at user3's places must not re-identify as user0.
  PoiAttack attack;
  attack.train(background_);
  Trace moved = tests_[3];
  moved.set_user("user0");  // lie about ownership; geography wins
  const auto answer = attack.reidentify(moved);
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(*answer, "user3");
}

TEST_F(AttackFixture, RetrainReplacesProfiles) {
  PoiAttack attack;
  attack.train(background_);
  EXPECT_EQ(attack.trained_users(), 6u);
  attack.train({background_[0], background_[1]});
  EXPECT_EQ(attack.trained_users(), 2u);
}

TEST_F(AttackFixture, ReidentifiesHelperChecksOwner) {
  PoiAttack attack;
  attack.train(background_);
  EXPECT_TRUE(attack.reidentifies_target(tests_[2], tests_[2].user()));
  EXPECT_FALSE(attack.reidentifies_target(tests_[2], "someone_else"));
}

// ---------------------------------------------------------------- Suite --

TEST_F(AttackFixture, StandardSuiteHasPaperOrder) {
  const auto suite = make_standard_suite(reference_);
  ASSERT_EQ(suite.size(), 3u);
  EXPECT_EQ(suite[0]->name(), "POI-Attack");
  EXPECT_EQ(suite[1]->name(), "PIT-Attack");
  EXPECT_EQ(suite[2]->name(), "AP-Attack");
}

TEST_F(AttackFixture, TrainAllTrainsEverything) {
  const auto suite = make_standard_suite(reference_);
  train_all(suite, background_);
  for (const auto& attack : suite) {
    EXPECT_EQ(attack->trained_users(), background_.size());
  }
}

TEST_F(AttackFixture, SuiteAgreesOnRawTraces) {
  const auto suite = make_standard_suite(reference_);
  train_all(suite, background_);
  for (const auto& attack : suite) {
    EXPECT_TRUE(attack->reidentifies_target(tests_[1], tests_[1].user()))
        << attack->name();
  }
}

// ------------------------------------------------------------ Candidate --

TEST_F(AttackFixture, CandidateCompilesEachFormOnceForOneGridAndClustering) {
  const Candidate candidate(tests_[1]);
  const geo::CellGrid grid(geo::LocalProjection(reference_), 800.0);
  const clustering::PoiParams params;
  // Repeated asks return the same compiled form, not a recompile.
  EXPECT_EQ(&candidate.heatmap(grid), &candidate.heatmap(grid));
  EXPECT_EQ(&candidate.poi(params), &candidate.poi(params));
  EXPECT_EQ(&candidate.markov(params), &candidate.markov(params));
  EXPECT_FALSE(candidate.poi(params).empty());
  // One form per candidate: another grid or clustering cannot share it.
  const geo::CellGrid coarser(geo::LocalProjection(reference_), 1600.0);
  EXPECT_THROW((void)candidate.heatmap(coarser), support::PreconditionError);
  clustering::PoiParams wider = params;
  wider.max_diameter_m *= 2.0;
  EXPECT_THROW((void)candidate.markov(wider), support::PreconditionError);
  EXPECT_THROW((void)candidate.poi(wider), support::PreconditionError);
}

TEST(AttackFactory, MakesByNameAndRejectsUnknown) {
  const geo::GeoPoint reference{45.0, 5.0};
  EXPECT_EQ(make_attack("poi", reference)->name(), "POI-Attack");
  EXPECT_EQ(make_attack("pit", reference)->name(), "PIT-Attack");
  EXPECT_EQ(make_attack("ap", reference)->name(), "AP-Attack");
  EXPECT_THROW(make_attack("quantum", reference),
               support::PreconditionError);
}

}  // namespace
}  // namespace mood::attacks
