// End-to-end integration tests: real attacks + real LPPMs + the MooD engine
// over a synthetic city, exercising the same pipeline the benches run (at a
// small scale so the suite stays fast).

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "simulation/generator.h"
#include "simulation/presets.h"
#include "support/logging.h"

namespace mood::core {
namespace {

/// Small but structured population: 14 routine users over 8 days, mostly
/// private POIs so the no-LPPM baseline is clearly vulnerable.
simulation::GeneratorParams population_params() {
  simulation::GeneratorParams p;
  p.users = 14;
  p.days = 8;
  p.records_per_user_per_day = 180.0;
  p.p_private_poi = 0.75;
  p.p_private_leisure = 0.8;
  // Keep private places within a few km: with only 14 users the donor
  // pool is sparse, and HMC (correctly) refuses plans whose relocation
  // cost exceeds its utility budget.
  p.private_poi_spread_m = 4000.0;
  p.relocation_prob = 0.1;
  p.seed = 1234;
  return p;
}

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    support::set_log_level(support::LogLevel::kWarn);
    dataset_ = new mobility::Dataset(
        simulation::generate(population_params()));
    ExperimentConfig config;
    config.min_records = 8;
    harness_ = new ExperimentHarness(*dataset_, config, /*seed=*/21);
  }
  static void TearDownTestSuite() {
    delete harness_;
    delete dataset_;
    harness_ = nullptr;
    dataset_ = nullptr;
  }

  static mobility::Dataset* dataset_;
  static ExperimentHarness* harness_;
};

mobility::Dataset* IntegrationTest::dataset_ = nullptr;
ExperimentHarness* IntegrationTest::harness_ = nullptr;

TEST_F(IntegrationTest, HarnessKeepsActiveUsers) {
  EXPECT_EQ(harness_->pairs().size(), 14u);
  EXPECT_EQ(harness_->attacks().size(), 3u);
  EXPECT_EQ(harness_->registry().size(), 3u);
  EXPECT_GT(harness_->total_test_records(), 0u);
}

TEST_F(IntegrationTest, RegistryHoldsPaperLppms) {
  EXPECT_NE(harness_->registry().find("GeoI"), nullptr);
  EXPECT_NE(harness_->registry().find("TRL"), nullptr);
  EXPECT_NE(harness_->registry().find("HMC"), nullptr);
}

TEST_F(IntegrationTest, RawTracesAreVulnerable) {
  const auto result = harness_->evaluate_no_lppm();
  // Distinct private POIs + no protection => most users re-identified.
  EXPECT_GT(result.non_protected_users(), result.user_count() / 2);
  EXPECT_GT(result.data_loss(), 0.0);
}

TEST_F(IntegrationTest, SingleLppmsProtectSomeUsers) {
  const auto raw = harness_->evaluate_no_lppm();
  const auto hmc = harness_->evaluate_single("HMC");
  // HMC is built to defeat re-identification: strictly better than raw.
  EXPECT_LT(hmc.non_protected_users(), raw.non_protected_users());
}

TEST_F(IntegrationTest, HybridAtLeastAsGoodAsBestSingle) {
  const auto geoi = harness_->evaluate_single("GeoI");
  const auto trl = harness_->evaluate_single("TRL");
  const auto hmc = harness_->evaluate_single("HMC");
  const auto hybrid = harness_->evaluate_hybrid();
  const std::size_t best_single =
      std::min({geoi.non_protected_users(), trl.non_protected_users(),
                hmc.non_protected_users()});
  EXPECT_LE(hybrid.non_protected_users(), best_single);
}

TEST_F(IntegrationTest, MoodSearchAtLeastAsGoodAsHybrid) {
  const auto hybrid = harness_->evaluate_hybrid();
  const auto mood = harness_->evaluate_mood_search();
  EXPECT_LE(mood.non_protected_users(), hybrid.non_protected_users());
}

TEST_F(IntegrationTest, FullMoodMinimisesDataLoss) {
  const auto hybrid = harness_->evaluate_hybrid();
  const auto mood = harness_->evaluate_mood_full();
  EXPECT_LE(mood.data_loss(), hybrid.data_loss());
  // Fig. 10 shape: MooD's loss is (near) zero.
  EXPECT_LT(mood.data_loss(), 0.10);
}

TEST_F(IntegrationTest, MoodOutcomesAreInternallyConsistent) {
  const auto mood = harness_->evaluate_mood_full();
  for (const auto& user : mood.users) {
    EXPECT_LE(user.lost_records, user.records);
    EXPECT_LE(user.protected_subtraces, user.subtraces);
    if (user.level == ProtectionLevel::kSingle ||
        user.level == ProtectionLevel::kComposition) {
      EXPECT_EQ(user.subtraces, 0u);
      EXPECT_EQ(user.lost_records, 0u);
      EXPECT_FALSE(user.winner.empty());
    }
    EXPECT_GT(user.lppm_applications, 0u);
  }
}

TEST_F(IntegrationTest, SingleAttackSubsetIsWeaker) {
  // Fig. 6 vs Fig. 7: one attack re-identifies at most as many users as
  // three attacks do.
  const auto ap_only =
      harness_->evaluate_no_lppm({harness_->ap_attack_index()});
  const auto all = harness_->evaluate_no_lppm();
  EXPECT_LE(ap_only.non_protected_users(), all.non_protected_users());
}

TEST_F(IntegrationTest, DeterministicAcrossHarnesses) {
  ExperimentConfig config;
  config.min_records = 8;
  const ExperimentHarness again(*dataset_, config, /*seed=*/21);
  EXPECT_EQ(again.evaluate_no_lppm().non_protected_users(),
            harness_->evaluate_no_lppm().non_protected_users());
  EXPECT_EQ(again.evaluate_mood_search().non_protected_users(),
            harness_->evaluate_mood_search().non_protected_users());
}

TEST_F(IntegrationTest, StrategiesNestPerUser) {
  // Every strategy is a MoodEngine call drawing the same noise, so the
  // paper's "MooD ⊇ HybridLPPM ⊇ each single" holds user by user, with
  // bit-equal outputs, not only in aggregate.
  const auto engine = harness_->make_engine();
  const auto hybrid = harness_->evaluate_hybrid();
  const auto search = harness_->evaluate_mood_search();
  const auto full = harness_->evaluate_mood_full();
  std::vector<StrategyResult> singles;
  for (const auto* single : harness_->registry().singles()) {
    singles.push_back(harness_->evaluate_single(single->name()));
  }
  std::size_t hybrid_protected = 0;
  for (std::size_t i = 0; i < harness_->pairs().size(); ++i) {
    const mobility::Trace& test = harness_->pairs()[i].test;
    const UserOutcome& by_hybrid = hybrid.users[i];
    const UserOutcome& by_search = search.users[i];
    ASSERT_EQ(by_hybrid.user, test.user());
    ASSERT_EQ(by_search.user, test.user());
    const bool search_single =
        by_search.is_protected &&
        harness_->registry().find(by_search.winner) != nullptr;
    EXPECT_EQ(by_hybrid.is_protected, search_single) << test.user();
    if (by_hybrid.is_protected) {
      ++hybrid_protected;
      EXPECT_EQ(by_hybrid.winner, by_search.winner) << test.user();
      EXPECT_EQ(by_hybrid.distortion, by_search.distortion) << test.user();
      EXPECT_EQ(full.users[i].lost_records, 0u) << test.user();
    }
    for (const StrategyResult& single : singles) {
      const UserOutcome& row = single.users[i];
      const auto expected = engine.recheck(single.strategy, test);
      EXPECT_EQ(row.winner, single.strategy) << test.user();
      EXPECT_EQ(row.is_protected, expected.has_value())
          << single.strategy << " on " << test.user();
      if (!expected) continue;
      EXPECT_EQ(row.distortion, expected->distortion)
          << single.strategy << " on " << test.user();
      EXPECT_TRUE(by_hybrid.is_protected) << test.user();
      EXPECT_LE(by_hybrid.distortion, row.distortion)
          << single.strategy << " on " << test.user();
    }
  }
  // Not vacuous: HybridLPPM protects some users and leaves some to MooD.
  EXPECT_GT(hybrid_protected, 0u);
  EXPECT_GT(hybrid.non_protected_users(), search.non_protected_users());
}

TEST_F(IntegrationTest, StrategyResultAccountingIsConsistent) {
  const auto result = harness_->evaluate_hybrid();
  std::size_t protected_count = 0;
  for (const auto& user : result.users) {
    if (user.is_protected) {
      ++protected_count;
      EXPECT_FALSE(user.winner.empty());
      EXPECT_GE(user.distortion, 0.0);
    }
  }
  EXPECT_EQ(protected_count + result.non_protected_users(),
            result.user_count());
  const auto bands = result.distortion_bands();
  EXPECT_EQ(bands[0] + bands[1] + bands[2] + bands[3], protected_count);
}

TEST_F(IntegrationTest, EngineExposedForDirectUse) {
  const auto engine = harness_->make_engine();
  EXPECT_EQ(engine.candidate_count(), 15u);  // 3 singles + 12 compositions
  const auto& pair = harness_->pairs()[0];
  const auto result = engine.protect(pair.test);
  EXPECT_GT(result.original_records, 0u);
}

}  // namespace
}  // namespace mood::core
