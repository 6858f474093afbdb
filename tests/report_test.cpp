// Unit tests for the report subsystem: the JSON document model (build,
// serialize, parse — round-trips, escaping, NaN handling), the domain
// serializers (result documents, edge cases like empty results and
// infinite distortions), CSV rows and the text-table renderer.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include "core/experiment.h"
#include "report/json.h"
#include "report/report.h"
#include "report/table.h"
#include "support/csv.h"
#include "support/error.h"
#include "support/rng.h"
#include "fuzz_helpers.h"

namespace mood::report {
namespace {

// --------------------------------------------------------------- Json --

TEST(Json, ScalarsSerialize) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(std::int64_t{-7}).dump(), "-7");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
  EXPECT_EQ(Json(1.5).dump(), "1.5");
}

TEST(Json, DoublesStayRecognisablyFloating) {
  // An integral double must not round-trip into an integer.
  EXPECT_EQ(Json(2.0).dump(), "2.0");
  const Json back = Json::parse(Json(2.0).dump());
  EXPECT_EQ(back.type(), Json::Type::kDouble);
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json("a\"b").dump(), "\"a\\\"b\"");
  EXPECT_EQ(Json("back\\slash").dump(), "\"back\\\\slash\"");
  EXPECT_EQ(Json("tab\there").dump(), "\"tab\\there\"");
  EXPECT_EQ(Json("new\nline").dump(), "\"new\\nline\"");
  EXPECT_EQ(Json(std::string(1, '\x01')).dump(), "\"\\u0001\"");
  // UTF-8 passes through verbatim.
  EXPECT_EQ(Json("héllo").dump(), "\"héllo\"");
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json object = Json::object();
  object["zulu"] = 1;
  object["alpha"] = 2;
  EXPECT_EQ(object.dump(), "{\"zulu\":1,\"alpha\":2}");
}

TEST(Json, OperatorBracketAutoCreates) {
  Json doc;  // null
  doc["a"]["b"] = 3;
  EXPECT_EQ(doc.dump(), "{\"a\":{\"b\":3}}");
  Json list;  // null
  list.push_back(1);
  list.push_back("two");
  EXPECT_EQ(list.dump(), "[1,\"two\"]");
}

TEST(Json, RoundTripNestedDocument) {
  Json doc = Json::object();
  doc["name"] = "run \"1\"";
  doc["ok"] = true;
  doc["count"] = 17;
  doc["ratio"] = 0.125;
  doc["missing"] = Json();
  Json inner = Json::array();
  inner.push_back(Json::object());
  inner.push_back(3.5);
  doc["items"] = std::move(inner);

  for (const int indent : {-1, 0, 2}) {
    const Json parsed = Json::parse(doc.dump(indent));
    EXPECT_EQ(parsed, doc) << "indent=" << indent;
  }
}

TEST(Json, ParseUnicodeEscapes) {
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "é");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(Json::parse("\"\\ud83d\\ude00\"").as_string(), "\xF0\x9F\x98\x80");
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse(""), support::IoError);
  EXPECT_THROW(Json::parse("{"), support::IoError);
  EXPECT_THROW(Json::parse("[1,]"), support::IoError);
  EXPECT_THROW(Json::parse("\"unterminated"), support::IoError);
  EXPECT_THROW(Json::parse("nul"), support::IoError);
  EXPECT_THROW(Json::parse("1 trailing"), support::IoError);
  EXPECT_THROW(Json::parse("\"\\x\""), support::IoError);
  EXPECT_THROW(Json::parse("\"\\ud83d\""), support::IoError);  // lone surrogate
  EXPECT_THROW(Json::parse("{\"a\" 1}"), support::IoError);
  // Numbers outside RFC 8259's grammar, though std::from_chars takes most:
  // leading zeros, no integer part, no fraction or exponent digits.
  for (const char* number :
       {"01", "-01", "00", ".5", "-.5", "1.", "1.e5", "1e", "1e+", "--1"}) {
    try {
      (void)Json::parse(number);
      ADD_FAILURE() << number << " was accepted";
    } catch (const support::IoError& e) {
      EXPECT_NE(std::string(e.what()).find("invalid number at byte 0"),
                std::string::npos)
          << number << ": " << e.what();
    }
  }
}

TEST(Json, ParseRejectsNestingPastTheDepthCap) {
  const auto repeat = [](std::string_view piece, std::size_t n) {
    std::string text;
    for (std::size_t i = 0; i < n; ++i) text += piece;
    return text;
  };
  // Hostile documents nest far past the cap: each must be a clean IoError
  // naming the offset where the cap tripped, not a stack overflow.
  for (const std::string_view open : {"[", "{\"a\":"}) {
    try {
      (void)Json::parse(repeat(open, 100000));
      ADD_FAILURE() << open << " nested 100000 deep was accepted";
    } catch (const support::IoError& e) {
      EXPECT_NE(std::string(e.what()).find("nesting too deep at byte"),
                std::string::npos)
          << e.what();
    }
  }

  // At the cap both shapes still parse; one level more is rejected.
  const auto arrays = [&](std::size_t depth) {
    return repeat("[", depth) + repeat("]", depth);
  };
  const auto objects = [&](std::size_t depth) {
    return repeat("{\"a\":", depth) + "1" + repeat("}", depth);
  };
  const std::size_t cap = Json::kMaxParseDepth;
  EXPECT_TRUE(Json::parse(arrays(cap)).is_array());
  EXPECT_EQ(Json::parse(objects(cap)).size(), 1u);
  EXPECT_THROW(Json::parse(arrays(cap + 1)), support::IoError);
  EXPECT_THROW(Json::parse(objects(cap + 1)), support::IoError);
}

TEST(Json, ParseNumbers) {
  EXPECT_EQ(Json::parse("42").as_int(), 42);
  EXPECT_EQ(Json::parse("-13").as_int(), -13);
  EXPECT_DOUBLE_EQ(Json::parse("2.5e3").as_double(), 2500.0);
  EXPECT_EQ(Json::parse("0").as_int(), 0);
  EXPECT_EQ(Json::parse("-0").as_int(), 0);
  EXPECT_DOUBLE_EQ(Json::parse("0.5").as_double(), 0.5);
  EXPECT_DOUBLE_EQ(Json::parse("1E+2").as_double(), 100.0);
  EXPECT_DOUBLE_EQ(Json::parse("1.5e-3").as_double(), 0.0015);
  // Integer overflow degrades to double instead of failing.
  const Json big = Json::parse("123456789012345678901234567890");
  EXPECT_TRUE(big.is_number());
  EXPECT_GT(big.as_double(), 1e29);
}

TEST(Json, TypedAccessorsThrowOnMismatch) {
  EXPECT_THROW(static_cast<void>(Json("text").as_int()),
               support::PreconditionError);
  EXPECT_THROW(static_cast<void>(Json(1).as_string()),
               support::PreconditionError);
  EXPECT_THROW(static_cast<void>(Json(1.5).as_int()),
               support::PreconditionError);
  EXPECT_EQ(Json(3.0).as_int(), 3);  // integral double is fine
}

TEST(Json, FindAndFallbacks) {
  Json doc = Json::object();
  doc["x"] = 1.5;
  doc["s"] = "str";
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_DOUBLE_EQ(doc.number_or("x", 0.0), 1.5);
  EXPECT_DOUBLE_EQ(doc.number_or("missing", 9.0), 9.0);
  EXPECT_EQ(doc.string_or("s", ""), "str");
  EXPECT_EQ(doc.string_or("x", "fallback"), "fallback");  // wrong type
  EXPECT_EQ(doc.int_or("missing", 4), 4);
}

TEST(Json, IntOrIsTolerantOfBadNumbers) {
  // int_or is the tolerant reader: anything not exactly representable as
  // int64 falls back instead of throwing (or invoking UB on the cast).
  Json doc = Json::object();
  doc["fractional"] = 2.5;
  doc["huge"] = 1e300;
  doc["negative_huge"] = -1e300;
  doc["fits"] = 3.0;
  EXPECT_EQ(doc.int_or("fractional", -1), -1);
  EXPECT_EQ(doc.int_or("huge", -1), -1);
  EXPECT_EQ(doc.int_or("negative_huge", -1), -1);
  EXPECT_EQ(doc.int_or("fits", -1), 3);
}

TEST(Json, AsIntRejectsOutOfRangeDoubles) {
  EXPECT_THROW(static_cast<void>(Json(1e300).as_int()),
               support::PreconditionError);
  EXPECT_THROW(static_cast<void>(Json(-1e300).as_int()),
               support::PreconditionError);
}

TEST(JsonFuzz, MutatedDocumentsParseOrThrowIoError) {
  // A fixed budget of seeded mutations of a corpus covering every token
  // kind: each input must parse or throw the typed IoError — never
  // another exception, a crash or a hang — and every accepted document
  // must re-parse from its own dump() to an equal value. A failing input
  // is printed escaped, to be pinned as a regression case.
  const auto corpus = testing::seed_corpus(
      std::string(MOOD_TEST_DATA_DIR) + "/json",
      {"nested.json", "strings.json", "numbers.json"});
  ASSERT_EQ(corpus.size(), 3u);
  for (const auto& seed : corpus) {
    EXPECT_NO_THROW((void)Json::parse(seed)) << testing::escaped(seed);
  }
  support::RngStream rng(2026);
  std::size_t accepted = 0;
  for (int iteration = 0; iteration < 4000; ++iteration) {
    const std::string input = testing::mutate(corpus, rng);
    try {
      const Json document = Json::parse(input);
      ++accepted;
      EXPECT_EQ(Json::parse(document.dump()), document)
          << "\"" << testing::escaped(input) << "\" (iteration " << iteration
          << ")";
    } catch (const support::IoError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "Json::parse threw " << e.what() << " on \""
                    << testing::escaped(input) << "\" (iteration "
                    << iteration << ")";
    }
  }
  // Not vacuous: mutations also leave documents the parser accepts.
  EXPECT_GT(accepted, 100u);
}

// -------------------------------------------------------- serializers --

core::StrategyResult sample_strategy() {
  core::StrategyResult result;
  result.strategy = "GeoI";
  result.users.push_back({"alice", true, 120.0, 100, "GeoI"});
  result.users.push_back({"bob", false, 0.0, 300, ""});
  result.users.push_back({"carol", true, 700.0, 100, "GeoI"});
  return result;
}

TEST(Serializers, StrategyResultFields) {
  const Json doc = to_json(sample_strategy());
  EXPECT_EQ(doc.string_or("strategy", ""), "GeoI");
  EXPECT_EQ(doc.int_or("users", 0), 3);
  EXPECT_EQ(doc.int_or("non_protected_users", 0), 1);
  EXPECT_DOUBLE_EQ(doc.number_or("data_loss", -1.0), 0.6);  // 300 / 500
  // One pass produces every row, so no row carries its own timing.
  EXPECT_EQ(doc.find("wall_seconds"), nullptr);
  const Json* bands = doc.find("distortion_bands");
  ASSERT_NE(bands, nullptr);
  EXPECT_EQ(bands->int_or("low", -1), 1);     // 120 m
  EXPECT_EQ(bands->int_or("medium", -1), 1);  // 700 m
  const Json* users = doc.find("per_user");
  ASSERT_NE(users, nullptr);
  EXPECT_EQ(users->size(), 3u);
  EXPECT_EQ(users->items()[1].string_or("user", ""), "bob");
  EXPECT_FALSE(users->items()[1].find("protected")->as_bool());
}

TEST(Serializers, StrategyResultWithoutUsers) {
  const Json doc = to_json(sample_strategy(), /*include_users=*/false);
  EXPECT_EQ(doc.find("per_user"), nullptr);
}

TEST(Serializers, EmptyStrategyResultIsWellFormed) {
  core::StrategyResult empty;
  empty.strategy = "no-LPPM";
  const Json doc = to_json(empty);
  EXPECT_EQ(doc.int_or("users", -1), 0);
  EXPECT_DOUBLE_EQ(doc.number_or("data_loss", -1.0), 0.0);
  EXPECT_DOUBLE_EQ(doc.number_or("non_protected_ratio", -1.0), 0.0);
  // And the document parses back.
  EXPECT_NO_THROW(Json::parse(doc.dump(2)));
}

TEST(Serializers, InfiniteDistortionSerializesAsNull) {
  core::StrategyResult result;
  result.strategy = "TRL";
  result.users.push_back(
      {"u", true, std::numeric_limits<double>::infinity(), 10, "TRL"});
  const std::string text = to_json(result).dump();
  EXPECT_EQ(text.find("inf"), std::string::npos);
  EXPECT_NO_THROW(Json::parse(text));
}

core::MoodResult sample_mood() {
  core::MoodResult result;
  core::MoodUserOutcome a;
  a.user = "alice";
  a.level = core::ProtectionLevel::kSingle;
  a.records = 200;
  a.lppm_applications = 3;
  a.attack_invocations = 9;
  a.distortion = 50.0;
  a.winner = "HMC";
  core::MoodUserOutcome b;
  b.user = "bob";
  b.level = core::ProtectionLevel::kFineGrained;
  b.records = 100;
  b.lost_records = 20;
  b.subtraces = 4;
  b.protected_subtraces = 3;
  b.lppm_applications = 40;
  b.attack_invocations = 120;
  b.distortion = 900.0;
  result.users = {a, b};
  return result;
}

TEST(Serializers, MoodResultFields) {
  const core::MoodResult result = sample_mood();
  EXPECT_EQ(result.total_lppm_applications(), 43u);
  EXPECT_EQ(result.total_attack_invocations(), 129u);

  const Json doc = to_json(result);
  EXPECT_EQ(doc.string_or("strategy", ""), "MooD-full");
  EXPECT_EQ(doc.int_or("non_protected_users", -1), 1);  // bob lost records
  EXPECT_NEAR(doc.number_or("data_loss", -1.0), 20.0 / 300.0, 1e-12);
  EXPECT_EQ(doc.find("wall_seconds"), nullptr);
  const Json* cost = doc.find("search_cost");
  ASSERT_NE(cost, nullptr);
  EXPECT_EQ(cost->int_or("lppm_applications", -1), 43);
  EXPECT_EQ(cost->int_or("attack_invocations", -1), 129);
  const Json* users = doc.find("per_user");
  ASSERT_NE(users, nullptr);
  EXPECT_EQ(users->items()[1].string_or("level", ""), "fine-grained");
  EXPECT_EQ(users->items()[1].int_or("subtraces", -1), 4);
}

TEST(Serializers, MakeReportDocumentShape) {
  report::RunMetadata meta;
  meta.tool = "test";
  meta.dataset = "tiny";
  meta.seed = 99;
  meta.wall_seconds = 2.0;
  meta.timings.emplace_back("harness", 0.5);
  const core::ExperimentConfig config;

  Json dataset = Json::object();
  dataset["name"] = "tiny";
  const Json doc = make_report(meta, config, std::move(dataset),
                               {to_json(sample_strategy())});

  EXPECT_EQ(doc.string_or("schema", ""), kResultSchema);
  const Json* m = doc.find("meta");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->int_or("seed", -1), 99);
  const Json* cfg = m->find("config");
  ASSERT_NE(cfg, nullptr);
  EXPECT_DOUBLE_EQ(cfg->number_or("geoi_epsilon", -1.0), config.geoi_epsilon);
  EXPECT_DOUBLE_EQ(cfg->number_or("trl_radius_m", -1.0), config.trl_radius_m);
  const Json* strategies = doc.find("strategies");
  ASSERT_NE(strategies, nullptr);
  EXPECT_EQ(strategies->size(), 1u);
  // Round-trip the whole document.
  EXPECT_EQ(Json::parse(doc.dump(2)), doc);
}

TEST(Serializers, DatasetSummary) {
  mobility::Dataset dataset("city");
  dataset.add(mobility::Trace("u1", {{geo::GeoPoint{45, 5}, 1000},
                                     {geo::GeoPoint{45, 5}, 90000}}));
  dataset.add(mobility::Trace("u2", {{geo::GeoPoint{45, 5}, 5000}}));
  const Json doc = dataset_summary(dataset);
  EXPECT_EQ(doc.string_or("name", ""), "city");
  EXPECT_EQ(doc.int_or("users", -1), 2);
  EXPECT_EQ(doc.int_or("records", -1), 3);
  EXPECT_EQ(doc.int_or("first_time", -1), 1000);
  EXPECT_EQ(doc.int_or("last_time", -1), 90000);
  EXPECT_DOUBLE_EQ(doc.number_or("mean_records_per_user", -1.0), 1.5);
}

TEST(Serializers, StrategySummaryRowsFromDocument) {
  report::RunMetadata meta;
  meta.dataset = "tiny";
  const Json doc = make_report(meta, core::ExperimentConfig{}, Json::object(),
                               {to_json(sample_strategy())});
  const auto rows = strategy_summary_rows(doc);
  ASSERT_EQ(rows.size(), 2u);  // header + one strategy
  EXPECT_EQ(rows[1][0], "tiny");
  EXPECT_EQ(rows[1][1], "GeoI");
  EXPECT_EQ(rows[1][2], "3");
  EXPECT_EQ(rows[1][4], "60.0%");
  EXPECT_EQ(rows[1][5], "1/1/0/0");
}

TEST(Serializers, StrategySummaryRowsRenderOlderDocuments) {
  // Documents written before strategies shared one pass carry a
  // per-strategy wall_seconds; they render the same rows, untimed.
  report::RunMetadata meta;
  meta.dataset = "tiny";
  Json strategy = to_json(sample_strategy());
  const Json current = make_report(meta, core::ExperimentConfig{},
                                   Json::object(), {strategy});
  strategy["wall_seconds"] = 0.25;
  const Json older = make_report(meta, core::ExperimentConfig{},
                                 Json::object(), {strategy});
  const auto rows = strategy_summary_rows(older);
  EXPECT_EQ(rows, strategy_summary_rows(current));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].size(), 6u);
  EXPECT_EQ(rows[0].back(), "bands(l/m/h/x)");
  EXPECT_EQ(rows[1].back(), "1/1/0/0");
}

// ---------------------------------------------------------------- CSV --

TEST(Csv, UserOutcomeRowsRoundTripThroughCsv) {
  core::StrategyResult result = sample_strategy();
  result.users[0].user = "has,comma";  // must be quoted on write
  const auto rows = outcome_rows(result);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0][0], "user");

  std::ostringstream out;
  support::write_csv(out, rows);
  std::istringstream in(out.str());
  const auto back = support::read_csv(in);
  ASSERT_EQ(back.size(), rows.size());
  EXPECT_EQ(back[1][0], "has,comma");
  EXPECT_EQ(back[2][1], "0");  // bob not protected
}

TEST(Csv, MoodOutcomeRows) {
  const auto rows = outcome_rows(sample_mood());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].size(), 10u);
  EXPECT_EQ(rows[2][1], "fine-grained");
  EXPECT_EQ(rows[2][3], "20");  // bob's lost records
}

// -------------------------------------------------------------- Table --

TEST(Table, AlignsColumns) {
  Table table({"name", "value"});
  table.add_row({"a", "1"});
  table.add_row({"long-name", "12345"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("long-name  12345"), std::string::npos) << text;
  // Narrow values right-align under the wide ones.
  EXPECT_NE(text.find("    1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), support::PreconditionError);
}

TEST(Table, Formatting) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_percent(0.423), "42.3%");
  EXPECT_EQ(format_bands({1, 2, 3, 4}), "1/2/3/4");
}

}  // namespace
}  // namespace mood::report
