// End-to-end integration tests: real attacks + real LPPMs + the MooD engine
// over a synthetic city, exercising the same pipeline the benches run (at a
// small scale so the suite stays fast).

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "simulation/generator.h"
#include "simulation/presets.h"
#include "support/error.h"
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

/// Every strategy the harness evaluates, in the paper's order.
const std::vector<std::string> kAllStrategies{
    "no-LPPM", "GeoI", "TRL", "HMC", "HybridLPPM", "MooD", "MooD-full"};

/// Row `r` of `grid`, a StrategyResult (every strategy but MooD-full).
const StrategyResult& row(const EvaluationGrid& grid, std::size_t r) {
  return std::get<StrategyResult>(grid.rows.at(r));
}

/// Row `r` of `grid`, full MooD's MoodResult.
const MoodResult& full_row(const EvaluationGrid& grid, std::size_t r) {
  return std::get<MoodResult>(grid.rows.at(r));
}

TEST_F(IntegrationTest, RawTracesAreVulnerable) {
  const auto result = row(harness_->evaluate({"no-LPPM"}), 0);
  // Distinct private POIs + no protection => most users re-identified.
  EXPECT_GT(result.non_protected_users(), result.user_count() / 2);
  EXPECT_GT(result.data_loss(), 0.0);
}

TEST_F(IntegrationTest, SingleLppmsProtectSomeUsers) {
  const auto grid = harness_->evaluate({"no-LPPM", "HMC"});
  const auto& raw = row(grid, 0);
  const auto& hmc = row(grid, 1);
  // HMC is built to defeat re-identification: strictly better than raw.
  EXPECT_LT(hmc.non_protected_users(), raw.non_protected_users());
}

TEST_F(IntegrationTest, FullMoodMinimisesDataLoss) {
  const auto grid = harness_->evaluate({"HybridLPPM", "MooD-full"});
  const auto& hybrid = row(grid, 0);
  const auto& mood = full_row(grid, 1);
  EXPECT_LE(mood.data_loss(), hybrid.data_loss());
  // Fig. 10 shape: MooD's loss is (near) zero.
  EXPECT_LT(mood.data_loss(), 0.10);
}

TEST_F(IntegrationTest, MoodOutcomesAreInternallyConsistent) {
  const auto mood = full_row(harness_->evaluate({"MooD-full"}), 0);
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
      row(harness_->evaluate({"no-LPPM"}, {harness_->ap_attack_index()}), 0);
  const auto all = row(harness_->evaluate({"no-LPPM"}), 0);
  EXPECT_LE(ap_only.non_protected_users(), all.non_protected_users());
}

TEST_F(IntegrationTest, DeterministicAcrossHarnesses) {
  ExperimentConfig config;
  config.min_records = 8;
  const ExperimentHarness again(*dataset_, config, /*seed=*/21);
  const auto one = again.evaluate({"no-LPPM", "MooD"});
  const auto other = harness_->evaluate({"no-LPPM", "MooD"});
  EXPECT_EQ(row(one, 0).non_protected_users(),
            row(other, 0).non_protected_users());
  EXPECT_EQ(row(one, 1).non_protected_users(),
            row(other, 1).non_protected_users());
}

TEST_F(IntegrationTest, StrategiesNestPerUser) {
  // Every row is read off one MoodEngine search per user, so the paper's
  // "MooD ⊇ HybridLPPM ⊇ each single" holds user by user, with bit-equal
  // outputs, not only in aggregate. engine.recheck() prices each single
  // row independently of that search.
  const auto engine = harness_->make_engine();
  const EvaluationGrid grid = harness_->evaluate(kAllStrategies);
  ASSERT_EQ(grid.rows.size(), 7u);
  const StrategyResult& hybrid = row(grid, 4);
  const StrategyResult& search = row(grid, 5);
  const MoodResult& full = full_row(grid, 6);
  const std::vector<StrategyResult> singles{row(grid, 1), row(grid, 2),
                                            row(grid, 3)};
  ASSERT_EQ(hybrid.strategy, "HybridLPPM");
  ASSERT_EQ(search.strategy, "MooD");
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
      const UserOutcome& by_single = single.users[i];
      const auto expected = engine.recheck(single.strategy, test);
      EXPECT_EQ(by_single.winner, single.strategy) << test.user();
      EXPECT_EQ(by_single.is_protected, expected.has_value())
          << single.strategy << " on " << test.user();
      if (!expected) continue;
      EXPECT_EQ(by_single.distortion, expected->distortion)
          << single.strategy << " on " << test.user();
      EXPECT_TRUE(by_hybrid.is_protected) << test.user();
      EXPECT_LE(by_hybrid.distortion, by_single.distortion)
          << single.strategy << " on " << test.user();
    }
  }
  // Not vacuous: HybridLPPM protects some users and leaves some to MooD.
  EXPECT_GT(hybrid_protected, 0u);
  EXPECT_GT(hybrid.non_protected_users(), search.non_protected_users());
}

void expect_same_rows(const StrategyResult& alone, const StrategyResult& in,
                      const std::string& context) {
  EXPECT_EQ(alone.strategy, in.strategy) << context;
  ASSERT_EQ(alone.users.size(), in.users.size()) << context;
  for (std::size_t i = 0; i < alone.users.size(); ++i) {
    const UserOutcome& a = alone.users[i];
    const UserOutcome& b = in.users[i];
    EXPECT_EQ(a.user, b.user) << context;
    EXPECT_EQ(a.is_protected, b.is_protected) << context << " " << a.user;
    EXPECT_EQ(a.distortion, b.distortion) << context << " " << a.user;
    EXPECT_EQ(a.records, b.records) << context << " " << a.user;
    EXPECT_EQ(a.winner, b.winner) << context << " " << a.user;
  }
}

TEST_F(IntegrationTest, RowsDoNotDependOnTheRequest) {
  // A row requested alone equals the same row of the whole grid, user by
  // user — although alone, GeoI and HybridLPPM search an engine without
  // compositions, and GeoI and TRL one whose L holds only them — for the
  // full attack set and for AP alone.
  for (const std::vector<std::size_t>& subset :
       {std::vector<std::size_t>{},
        std::vector<std::size_t>{harness_->ap_attack_index()}}) {
    const std::string context =
        subset.empty() ? "all attacks" : "AP attack only";
    const EvaluationGrid grid = harness_->evaluate(kAllStrategies, subset);
    ASSERT_EQ(grid.rows.size(), 7u);
    expect_same_rows(row(harness_->evaluate({"GeoI"}, subset), 0),
                     row(grid, 1), context);
    const EvaluationGrid two = harness_->evaluate({"GeoI", "TRL"}, subset);
    expect_same_rows(row(two, 0), row(grid, 1), context);
    expect_same_rows(row(two, 1), row(grid, 2), context);
    expect_same_rows(row(harness_->evaluate({"HybridLPPM"}, subset), 0),
                     row(grid, 4), context);

    const EvaluationGrid alone = harness_->evaluate({"MooD-full"}, subset);
    ASSERT_EQ(alone.rows.size(), 1u);
    const MoodResult& a = full_row(alone, 0);
    const MoodResult& b = full_row(grid, 6);
    ASSERT_EQ(a.users.size(), b.users.size());
    for (std::size_t i = 0; i < a.users.size(); ++i) {
      const MoodUserOutcome& x = a.users[i];
      const MoodUserOutcome& y = b.users[i];
      EXPECT_EQ(x.user, y.user) << context;
      EXPECT_EQ(x.level, y.level) << context << " " << x.user;
      EXPECT_EQ(x.records, y.records) << context << " " << x.user;
      EXPECT_EQ(x.lost_records, y.lost_records) << context << " " << x.user;
      EXPECT_EQ(x.subtraces, y.subtraces) << context << " " << x.user;
      EXPECT_EQ(x.protected_subtraces, y.protected_subtraces)
          << context << " " << x.user;
      EXPECT_EQ(x.distortion, y.distortion) << context << " " << x.user;
      EXPECT_EQ(x.winner, y.winner) << context << " " << x.user;
      EXPECT_EQ(x.lppm_applications, y.lppm_applications)
          << context << " " << x.user;
      EXPECT_EQ(x.attack_invocations, y.attack_invocations)
          << context << " " << x.user;
    }
  }
}

TEST_F(IntegrationTest, RowsComeInRequestOrder) {
  const EvaluationGrid grid =
      harness_->evaluate({"MooD", "MooD-full", "no-LPPM", "HMC"});
  ASSERT_EQ(grid.rows.size(), 4u);
  EXPECT_EQ(row(grid, 0).strategy, "MooD");
  EXPECT_TRUE(std::holds_alternative<MoodResult>(grid.rows[1]));
  EXPECT_EQ(row(grid, 2).strategy, "no-LPPM");
  EXPECT_EQ(row(grid, 3).strategy, "HMC");
}

TEST_F(IntegrationTest, UnknownStrategyThrows) {
  EXPECT_THROW((void)harness_->evaluate({"GeoI", "Promesse"}),
               support::PreconditionError);
  EXPECT_THROW((void)harness_->evaluate({"hybrid"}),
               support::PreconditionError);
}

TEST_F(IntegrationTest, StrategyResultAccountingIsConsistent) {
  const auto result = row(harness_->evaluate({"HybridLPPM"}), 0);
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
