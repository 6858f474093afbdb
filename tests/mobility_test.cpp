// Unit tests for the mobility subsystem: traces, datasets, splits and CSV
// import/export.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "mobility/dataset.h"
#include "mobility/io.h"
#include "mobility/trace.h"
#include "support/csv.h"
#include "support/error.h"
#include "support/rng.h"
#include "fuzz_helpers.h"
#include "test_helpers.h"

namespace mood::mobility {
namespace {

using testing::dwell;
using testing::escaped;
using testing::mutate;
using testing::rec;
using testing::trace_of;

TEST(Trace, SortsUnorderedRecordsOnConstruction) {
  const Trace trace("u", {rec(45, 5, 300), rec(45, 5, 100), rec(45, 5, 200)});
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.at(0).time, 100);
  EXPECT_EQ(trace.at(1).time, 200);
  EXPECT_EQ(trace.at(2).time, 300);
}

TEST(Trace, SortIsStableForEqualTimestamps) {
  const Trace trace("u", {rec(1, 1, 100), rec(2, 2, 50), rec(3, 3, 100)});
  EXPECT_EQ(trace.at(1).position.lat, 1.0);  // first 100-stamp keeps order
  EXPECT_EQ(trace.at(2).position.lat, 3.0);
}

TEST(Trace, AppendEnforcesOrdering) {
  Trace trace("u", {rec(45, 5, 100)});
  EXPECT_NO_THROW(trace.append(rec(45, 5, 100)));  // equal is fine
  EXPECT_NO_THROW(trace.append(rec(45, 5, 150)));
  EXPECT_THROW(trace.append(rec(45, 5, 50)), support::PreconditionError);
}

TEST(Trace, FrontBackAtGuards) {
  const Trace empty("u", {});
  EXPECT_THROW(static_cast<void>(empty.front()), support::PreconditionError);
  EXPECT_THROW(static_cast<void>(empty.back()), support::PreconditionError);
  const Trace one("u", {rec(45, 5, 10)});
  EXPECT_THROW(static_cast<void>(one.at(1)), support::PreconditionError);
  EXPECT_EQ(one.front(), one.back());
}

TEST(Trace, DurationSpansFirstToLast) {
  EXPECT_EQ(Trace("u", {}).duration(), 0);
  EXPECT_EQ(Trace("u", {rec(45, 5, 10)}).duration(), 0);
  const Trace trace("u", {rec(45, 5, 10), rec(45, 5, 250)});
  EXPECT_EQ(trace.duration(), 240);
}

TEST(Trace, BetweenIsHalfOpen) {
  const Trace trace("u", {rec(1, 1, 10), rec(2, 2, 20), rec(3, 3, 30)});
  const Trace mid = trace.between(10, 30);
  ASSERT_EQ(mid.size(), 2u);
  EXPECT_EQ(mid.at(0).time, 10);
  EXPECT_EQ(mid.at(1).time, 20);
  EXPECT_TRUE(trace.between(31, 100).empty());
  EXPECT_EQ(mid.user(), "u");
}

TEST(Trace, SplitInHalfByTime) {
  // Records at 0..9 hours; midpoint at 4.5 h.
  std::vector<Record> records;
  for (int h = 0; h < 10; ++h) records.push_back(rec(45, 5, h * 3600));
  const Trace trace("u", std::move(records));
  const auto [left, right] = trace.split_in_half();
  EXPECT_EQ(left.size(), 5u);
  EXPECT_EQ(right.size(), 5u);
  EXPECT_LT(left.back().time, right.front().time);
  EXPECT_EQ(left.size() + right.size(), trace.size());
}

TEST(Trace, SplitInHalfDegenerateTimestamps) {
  // All records share a timestamp: fall back to count splitting so the
  // fine-grained recursion always makes progress.
  const Trace trace("u", {rec(1, 1, 5), rec(2, 2, 5), rec(3, 3, 5),
                          rec(4, 4, 5)});
  const auto [left, right] = trace.split_in_half();
  EXPECT_EQ(left.size(), 2u);
  EXPECT_EQ(right.size(), 2u);
}

TEST(Trace, SplitOfEmptyIsEmptyPair) {
  const Trace trace("u", {});
  const auto [left, right] = trace.split_in_half();
  EXPECT_TRUE(left.empty());
  EXPECT_TRUE(right.empty());
}

TEST(Trace, SlicesPartitionRecords) {
  std::vector<Record> records;
  for (int m = 0; m < 600; m += 10) records.push_back(rec(45, 5, m * 60));
  const Trace trace("u", std::move(records));  // 10 hours, 60 records
  const auto slices = trace.slices(2 * kHour);
  ASSERT_EQ(slices.size(), 5u);
  std::size_t total = 0;
  Timestamp last_end = -1;
  for (const auto& slice : slices) {
    EXPECT_FALSE(slice.empty());
    EXPECT_LE(slice.duration(), 2 * kHour);
    EXPECT_GT(slice.front().time, last_end);
    last_end = slice.back().time;
    total += slice.size();
    EXPECT_EQ(slice.user(), "u");
  }
  EXPECT_EQ(total, trace.size());
}

TEST(Trace, SlicesSkipEmptyGaps) {
  // Records in hour 0 and hour 5 only: 1-hour slicing must not emit empty
  // slices for hours 1-4.
  const Trace trace("u", {rec(1, 1, 0), rec(1, 1, 60),
                          rec(2, 2, 5 * kHour), rec(2, 2, 5 * kHour + 60)});
  const auto slices = trace.slices(kHour);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0].size(), 2u);
  EXPECT_EQ(slices[1].size(), 2u);
}

TEST(Trace, SplitInHalfSingleTimestampUnevenCount) {
  // Fallback splits by record count; an odd count must still hand every
  // record to exactly one side.
  const Trace trace("u", {rec(1, 1, 7), rec(2, 2, 7), rec(3, 3, 7)});
  const auto [left, right] = trace.split_in_half();
  EXPECT_EQ(left.size(), 1u);
  EXPECT_EQ(right.size(), 2u);
  EXPECT_EQ(left.size() + right.size(), trace.size());
}

TEST(Trace, SplitInHalfSingleRecord) {
  const Trace trace("u", {rec(45, 5, 10)});
  const auto [left, right] = trace.split_in_half();
  EXPECT_EQ(left.size() + right.size(), 1u);
}

TEST(Trace, SlicesJumpMultiWeekGapsDirectly) {
  // A >30-day gap with a 1-hour slice: the window must jump straight to
  // the record after the gap (the old one-slice-at-a-time walk was
  // O(gap/slice)), and boundaries must stay anchored at the trace start.
  // The two post-gap records straddle a t0-anchored window boundary, so a
  // regression to record-anchored windows would merge them into one slice.
  const Timestamp t0 = 500;
  const Timestamp after_gap = t0 + 40 * kDay + 3599;
  const Trace trace("u", {rec(1, 1, t0), rec(1, 1, t0 + 60),
                          rec(2, 2, after_gap), rec(2, 2, after_gap + 2)});
  const auto slices = trace.slices(kHour);
  ASSERT_EQ(slices.size(), 3u);
  EXPECT_EQ(slices[0].size(), 2u);
  EXPECT_EQ(slices[1].size(), 1u);
  EXPECT_EQ(slices[2].size(), 1u);
  EXPECT_EQ(slices[1].front().time, after_gap);
  EXPECT_EQ(slices[2].front().time, after_gap + 2);
}

TEST(Trace, SlicesBoundaryRecordOpensNewSlice) {
  // A record exactly on a window boundary belongs to the next slice.
  const Trace trace("u", {rec(1, 1, 0), rec(2, 2, kHour)});
  const auto slices = trace.slices(kHour);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[1].front().time, kHour);
}

TEST(Trace, SlicesRejectNonPositiveDuration) {
  const Trace trace("u", {rec(45, 5, 0)});
  EXPECT_THROW(trace.slices(0), support::PreconditionError);
}

TEST(Trace, SliceCountMatchesSlicesAcrossAppendsDropsAndGaps) {
  // slice_count is the counting form of slices(): they must agree after
  // every append and every front eviction. Gap sizes exercise
  // within-slice, boundary, multi-slice-jump and same-timestamp appends;
  // evictions re-anchor the slice grid on the new first record.
  const std::vector<Timestamp> gaps = {0,         5 * kMinute, kHour,
                                       3 * kHour, 0,           26 * kHour,
                                       kMinute,   2 * kHour,   40 * kDay,
                                       3599,      1,           kHour - 1};
  const auto expect_counts_match = [](const Trace& trace) {
    for (const Timestamp slice : {kHour, 2 * kHour, kDay}) {
      ASSERT_EQ(trace.slice_count(slice), trace.slices(slice).size())
          << "slice " << slice << ", size " << trace.size();
    }
  };
  Trace trace("u", {});
  expect_counts_match(trace);
  Timestamp t = 500;
  int i = 0;
  for (const Timestamp gap : gaps) {
    t += gap;
    trace.append(rec(45 + 0.001 * i++, 5, t));
    expect_counts_match(trace);
    if (i % 3 == 0) {
      trace.drop_front(2);
      expect_counts_match(trace);
    }
  }
  trace.drop_front(100);  // clamps to size
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(trace.slice_count(kHour), 0u);
  EXPECT_THROW(static_cast<void>(trace.slice_count(0)),
               support::PreconditionError);
}

TEST(Trace, DropFrontEvictsAndReanchorsSlices) {
  Trace trace("u", {});
  for (int i = 0; i < 10; ++i) {
    trace.append(rec(45, 5, i * 30 * kMinute));
  }
  trace.drop_front(4);
  ASSERT_EQ(trace.size(), 6u);
  EXPECT_EQ(trace.front().time, 4 * 30 * kMinute);
  // The slice grid re-anchors on the new first record.
  const Trace rebuilt("u", {trace.records().begin(), trace.records().end()});
  EXPECT_EQ(trace.slices(kHour), rebuilt.slices(kHour));
  EXPECT_EQ(trace.slice_count(kHour), 3u);
}

TEST(Trace, BoundingBoxCoversAllRecords) {
  const Trace trace("u", {rec(45, 5, 0), rec(46, 4, 10)});
  const auto box = trace.bounding_box();
  EXPECT_TRUE(box.contains(geo::GeoPoint{45.5, 4.5}));
}

// -------------------------------------------------------------- Dataset --

TEST(Dataset, AddFindAndCounts) {
  Dataset dataset("d");
  dataset.add(Trace("a", {rec(45, 5, 0), rec(45, 5, 10)}));
  dataset.add(Trace("b", {rec(45, 5, 0)}));
  EXPECT_EQ(dataset.user_count(), 2u);
  EXPECT_EQ(dataset.record_count(), 3u);
  ASSERT_NE(dataset.find("a"), nullptr);
  EXPECT_EQ(dataset.find("a")->size(), 2u);
  EXPECT_EQ(dataset.find("zzz"), nullptr);
}

TEST(Dataset, RejectsDuplicateUser) {
  Dataset dataset("d");
  dataset.add(Trace("a", {}));
  EXPECT_THROW(dataset.add(Trace("a", {})), support::PreconditionError);
}

TEST(Dataset, ChronologicalSplitHalvesTimeSpan) {
  Dataset dataset("d");
  std::vector<Record> records;
  for (int d = 0; d < 30; ++d) {
    records.push_back(rec(45, 5, d * kDay));
    records.push_back(rec(45, 5, d * kDay + kHour));
  }
  dataset.add(Trace("u", std::move(records)));
  const auto pairs = dataset.chronological_split(0.5, 2);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_GT(pairs[0].train.size(), 0u);
  EXPECT_GT(pairs[0].test.size(), 0u);
  EXPECT_LT(pairs[0].train.back().time, pairs[0].test.front().time);
  EXPECT_EQ(pairs[0].train.size() + pairs[0].test.size(), 60u);
  // The cut is at half the time span.
  EXPECT_NEAR(static_cast<double>(pairs[0].train.size()), 30.0, 2.0);
}

TEST(Dataset, ChronologicalSplitDropsInactiveUsers) {
  Dataset dataset("d");
  dataset.add(Trace("active", testing::dwell(geo::GeoPoint{45, 5}, 0, 100)));
  dataset.add(Trace("sparse", {rec(45, 5, 0), rec(45, 5, 10)}));
  const auto pairs = dataset.chronological_split(0.5, 10);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].train.user(), "active");
}

TEST(Dataset, ChronologicalSplitValidatesFraction) {
  const Dataset dataset("d");
  EXPECT_THROW(dataset.chronological_split(0.0), support::PreconditionError);
  EXPECT_THROW(dataset.chronological_split(1.0), support::PreconditionError);
}

TEST(Dataset, MostActiveWindowPicksDensestSpan) {
  Dataset dataset("d");
  std::vector<Record> records;
  // 2 records/day in days 0-9, then 20 records/day in days 20-24.
  for (int d = 0; d < 10; ++d) {
    records.push_back(rec(45, 5, d * kDay));
    records.push_back(rec(45, 5, d * kDay + kHour));
  }
  for (int d = 20; d < 25; ++d) {
    for (int i = 0; i < 20; ++i) {
      records.push_back(rec(45, 5, d * kDay + i * kHour / 2));
    }
  }
  dataset.add(Trace("u", std::move(records)));
  const Dataset densest = most_active_window(dataset, 5);
  ASSERT_EQ(densest.user_count(), 1u);
  EXPECT_EQ(densest.traces()[0].size(), 100u);
  EXPECT_GE(densest.traces()[0].front().time, 20 * kDay);
}

// ------------------------------------------------------------------ IO --

TEST(Io, RoundTripsDatasetThroughCsv) {
  Dataset dataset("roundtrip");
  dataset.add(Trace("alice", {rec(45.123456, 5.654321, 100),
                              rec(45.2, 5.7, 200)}));
  dataset.add(Trace("bob", {rec(46.0, 6.0, 50)}));
  std::stringstream buffer;
  write_dataset_csv(buffer, dataset);
  const Dataset loaded = read_dataset_csv(buffer, "roundtrip");
  EXPECT_EQ(loaded.user_count(), 2u);
  EXPECT_EQ(loaded.record_count(), 3u);
  ASSERT_NE(loaded.find("alice"), nullptr);
  EXPECT_NEAR(loaded.find("alice")->at(0).position.lat, 45.123456, 1e-6);
  EXPECT_EQ(loaded.find("alice")->at(1).time, 200);
}

TEST(Io, PreservesUserOrder) {
  std::stringstream buffer("user,lat,lon,timestamp\nzed,45,5,1\nann,45,5,2\n");
  const Dataset loaded = read_dataset_csv(buffer, "d");
  EXPECT_EQ(loaded.traces()[0].user(), "zed");
  EXPECT_EQ(loaded.traces()[1].user(), "ann");
}

TEST(Io, SortsRecordsWithinUser) {
  std::stringstream buffer("u,45,5,300\nu,45,5,100\n");
  const Dataset loaded = read_dataset_csv(buffer, "d");
  EXPECT_EQ(loaded.traces()[0].at(0).time, 100);
}

TEST(Io, RejectsMalformedRows) {
  std::stringstream missing_field("u,45,5\n");
  EXPECT_THROW(read_dataset_csv(missing_field, "d"), support::IoError);
  std::stringstream bad_lat("u,notanumber,5,1\n");
  EXPECT_THROW(read_dataset_csv(bad_lat, "d"), support::IoError);
  std::stringstream bad_time("u,45,5,onehundred\n");
  EXPECT_THROW(read_dataset_csv(bad_time, "d"), support::IoError);
  std::stringstream out_of_range("u,95,5,1\n");
  EXPECT_THROW(read_dataset_csv(out_of_range, "d"), support::IoError);
  // Pole-adjacent fixes are rejected so geo::destination / LocalProjection
  // preconditions can't abort a batch mid-run on loaded data.
  std::stringstream pole("u,90,5,1\n");
  EXPECT_THROW(read_dataset_csv(pole, "d"), support::IoError);
}

TEST(Io, RejectsFuzzedNumericRows) {
  // Table of rows a fuzzer (or a corrupt upstream export) can produce that
  // std::from_chars would happily parse into garbage: non-finite doubles,
  // exponent overflow, embedded NULs, and a field bloated past the CSV cap.
  struct Case {
    const char* label;
    std::string row;
  };
  const std::string oversized_id(support::kMaxCsvFieldBytes + 16, 'u');
  const std::vector<Case> cases = {
      {"nan latitude", "u,nan,5,1\n"},
      {"inf longitude", "u,45,inf,1\n"},
      {"negative inf latitude", "u,-inf,5,1\n"},
      {"exponent overflow", "u,45,1e999,1\n"},
      {"negative exponent overflow", "u,-1e999,5,1\n"},
      {"hex-ish junk", "u,0x1p3,5,1\n"},
      {"timestamp overflow", "u,45,5,99999999999999999999999999\n"},
      {"embedded NUL", std::string("u,4\0 5,5,1\n", 11)},
      {"oversized field", oversized_id + ",45,5,1\n"},
  };
  for (const Case& c : cases) {
    std::stringstream in(c.row);
    EXPECT_THROW(read_dataset_csv(in, "d"), support::IoError) << c.label;
  }
  // Sanity: the same shape with finite numbers is accepted.
  std::stringstream good("u,45.0,5.0,1\n");
  EXPECT_EQ(read_dataset_csv(good, "d").user_count(), 1u);
}

TEST(Io, MissingFileThrows) {
  EXPECT_THROW(read_dataset_csv_file("/no/such/file.csv", "d"),
               support::IoError);
}

// ------------------------------------------------ CSV mutation fuzzing --

TEST(CsvFuzz, MutatedInputsParseOrThrowIoError) {
  // A fixed budget of seeded mutations: every input, and every line of it,
  // must either parse or throw the typed IoError — never another
  // exception, a crash or a hang. A failing input is printed escaped, to
  // be pinned as a regression case.
  const auto corpus = testing::seed_corpus(
      std::string(MOOD_TEST_DATA_DIR) + "/csv",
      {"dataset.csv", "dataset_crlf_quoted.csv", "fields.csv"});
  ASSERT_EQ(corpus.size(), 3u);
  support::RngStream rng(2026);
  std::size_t parsed_lines = 0;
  std::size_t parsed_datasets = 0;
  for (int iteration = 0; iteration < 4000; ++iteration) {
    const std::string input = mutate(corpus, rng);
    std::istringstream lines(input);
    for (std::string line; std::getline(lines, line);) {
      try {
        (void)support::parse_csv_line(line);
        ++parsed_lines;
      } catch (const support::IoError&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << "parse_csv_line threw " << e.what() << " on \""
                      << escaped(line) << "\" (iteration " << iteration
                      << ")";
      }
    }
    std::istringstream in(input);
    try {
      (void)read_dataset_csv(in, "fuzz");
      ++parsed_datasets;
    } catch (const support::IoError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "read_dataset_csv threw " << e.what() << " on \""
                    << escaped(input) << "\" (iteration " << iteration << ")";
    }
  }
  // Not vacuous: mutations also leave inputs the parsers accept.
  EXPECT_GT(parsed_lines, 1000u);
  EXPECT_GT(parsed_datasets, 100u);
}

}  // namespace
}  // namespace mood::mobility
