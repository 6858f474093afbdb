// Tests for checkpoint/restore (src/stream/snapshot): the mood-snapshot/5
// byte format (round trip, golden files, rejection of malformed input),
// the crash-consistent file protocol under injected faults at every named
// fail point — including SIGKILL-equivalent deaths — and the headline
// restore property: a replay captured at any quiesced cut and resumed in a
// fresh engine produces the bit-identical decision set and cost counters
// of an uninterrupted run, across shard counts, window caps and LRU
// evictions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "simulation/generator.h"
#include "stream/engine.h"
#include "stream/event.h"
#include "stream/replay.h"
#include "stream/snapshot.h"
#include "support/error.h"
#include "support/failpoint.h"
#include "support/logging.h"

namespace mood::stream {
namespace {

namespace fs = std::filesystem;
using mood::testing::FailAction;
using mood::testing::FailPoint;

/// Compact population in the stream_test mold, sized so a full replay is
/// cheap enough to repeat once per checkpoint cut.
simulation::GeneratorParams population_params() {
  simulation::GeneratorParams p;
  p.users = 8;
  p.days = 5;
  p.records_per_user_per_day = 100.0;
  p.p_private_poi = 0.75;
  p.p_private_leisure = 0.8;
  p.private_poi_spread_m = 4000.0;
  p.relocation_prob = 0.1;
  p.seed = 977;
  return p;
}

class SnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    support::set_log_level(support::LogLevel::kError);
    dataset_ = new mobility::Dataset(
        simulation::generate(population_params()));
    core::ExperimentConfig config;
    config.min_records = 8;
    harness_ = new core::ExperimentHarness(*dataset_, config, /*seed=*/13);
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

  void TearDown() override { FailPoint::disarm_all(); }

  /// Fresh scratch directory under the gtest temp root.
  static std::string scratch_dir(const std::string& name) {
    const std::string dir =
        std::string(::testing::TempDir()) + "mood_snapshot_" + name;
    fs::remove_all(dir);
    return dir;
  }

  static ReplayResult replay_with(StreamConfig config,
                                  ReplayOptions options = {}) {
    StreamEngine engine(harness_->make_engine(), config);
    return run_replay(engine, *events_, options);
  }

  /// Drives a fresh gateway through the first `cut` events, quiesces it
  /// — the cut a checkpoint takes — and captures its state there.
  static SnapshotData capture_at(StreamConfig config, std::size_t cut) {
    StreamEngine engine(harness_->make_engine(), config);
    for (std::size_t i = 0; i < cut; ++i) engine.ingest((*events_)[i]);
    engine.quiesce();
    return engine.capture_snapshot();
  }

  /// Restores `snap` into a fresh gateway and replays the remainder.
  static ReplayResult resume_from(const SnapshotData& snap,
                                  StreamConfig config,
                                  ReplayOptions options) {
    StreamEngine engine(harness_->make_engine(), config);
    engine.restore_snapshot(snap);
    options.resume_events = static_cast<std::size_t>(snap.stream_position);
    return run_replay(engine, *events_, options);
  }

  static mobility::Dataset* dataset_;
  static core::ExperimentHarness* harness_;
  static std::vector<StreamEvent>* events_;
};

mobility::Dataset* SnapshotTest::dataset_ = nullptr;
core::ExperimentHarness* SnapshotTest::harness_ = nullptr;
std::vector<StreamEvent>* SnapshotTest::events_ = nullptr;

/// Bit-identity oracle for "restored run == uninterrupted run". The
/// index_* counters are excluded by default: they are read from the
/// harness-owned attacks, which every engine in this process shares, so
/// they are only comparable across engines with dedicated harnesses (see
/// RestoreContinuesIndexCountersAcrossDedicatedHarnesses).
void expect_identical_outcome(const ReplayResult& actual,
                              const ReplayResult& expected,
                              bool include_index = false) {
  ASSERT_EQ(actual.decisions.size(), expected.decisions.size());
  for (std::size_t i = 0; i < expected.decisions.size(); ++i) {
    const UserDecision& a = actual.decisions[i];
    const UserDecision& e = expected.decisions[i];
    ASSERT_EQ(a.user, e.user);
    EXPECT_EQ(a.decision, e.decision) << a.user;
    EXPECT_EQ(a.winner, e.winner) << a.user;
    EXPECT_EQ(a.events, e.events) << a.user;
    EXPECT_EQ(a.risk_transitions, e.risk_transitions) << a.user;
    EXPECT_EQ(a.searches, e.searches) << a.user;
    EXPECT_EQ(a.window_points, e.window_points) << a.user;
    EXPECT_EQ(a.window_slices, e.window_slices) << a.user;
  }
  EXPECT_EQ(actual.events, expected.events);
  const StreamStats& a = actual.stats;
  const StreamStats& e = expected.stats;
  EXPECT_EQ(a.events, e.events);
  EXPECT_EQ(a.decisions, e.decisions);
  EXPECT_EQ(a.exposed_events, e.exposed_events);
  EXPECT_EQ(a.protected_events, e.protected_events);
  EXPECT_EQ(a.searches, e.searches);
  EXPECT_EQ(a.rechecks, e.rechecks);
  EXPECT_EQ(a.evicted_points, e.evicted_points);
  EXPECT_EQ(a.evicted_users, e.evicted_users);
  EXPECT_EQ(a.lppm_applications, e.lppm_applications);
  EXPECT_EQ(a.attack_invocations, e.attack_invocations);
  if (include_index) {
    EXPECT_EQ(a.index_prunes, e.index_prunes);
    EXPECT_EQ(a.exact_evals, e.exact_evals);
    EXPECT_EQ(a.index_rebuilds, e.index_rebuilds);
  }
}

/// Minimal self-consistent document for file-protocol tests; the position
/// doubles as an identity marker.
SnapshotData tiny_snapshot(std::uint64_t position) {
  SnapshotData d;
  d.context.seed = 7;
  d.context.dataset = "tiny";
  d.context.total_events = 64;
  d.config.shards = 1;
  d.stream_position = position;
  d.stats.events = position;
  d.shard_clocks = {position};
  d.shard_shedding = {0};
  UserSnapshot u;
  u.user = "u1";
  u.window = {{{45.5, 4.25}, 1000}, {{45.5, 4.5}, 2000}};
  u.events = 2;
  u.last_touch = 1;
  d.users.push_back(std::move(u));
  return d;
}

// ------------------------------------------------------------ format --

TEST(SnapshotFormat, Crc32MatchesTheIeeeCheckValue) {
  // The canonical CRC-32 check vector.
  EXPECT_EQ(snapshot_crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(snapshot_crc32(""), 0x00000000u);
}

TEST(SnapshotFormat, EncodeDecodeRoundTripsEveryField) {
  SnapshotData d;
  d.context.seed = 42;
  d.context.dataset = "roundtrip";
  d.context.total_events = 1000;
  d.config.shards = 3;
  d.config.window_seconds = 86400;
  d.config.max_points = 64;
  d.config.max_users_per_shard = 5;
  d.config.loop_slack = 5;
  d.stream_position = 512;
  d.stats.events = 512;
  d.stats.decisions = 17;
  d.stats.searches = 3;
  d.stats.checkpoints = 2;  // travels verbatim even though reported raw
  d.stats.bad_records = 6;
  d.stats.dead_letters = 9;
  d.stats.quarantined_users = 1;
  d.stats.shed_decisions = 5;
  d.stats.degraded_batches = 2;
  d.stats.backpressure_events = 7;
  d.stats.quarantined_snapshots = 1;
  d.shard_clocks = {9, 0, 4};
  d.shard_shedding = {1, 0, 1};

  UserSnapshot rich;
  rich.user = "ada";
  rich.window = {{{45.5, 4.25}, 100}, {{45.75, 4.25}, 200}};
  rich.stay_origin = {45.5, 4.25};
  rich.has_decision = true;
  rich.decision = 1;
  rich.winner = "GeoI";
  rich.searched_events = 77;
  rich.events = 3;
  rich.risk_transitions = 1;
  rich.searches = 2;
  rich.rechecks = 4;
  rich.degraded = 2;
  rich.last_touch = 11;
  rich.quarantined = true;
  rich.quarantine_reason = "bad coordinate";
  rich.dead_letters = 5;
  rich.has_last_time = true;
  rich.last_time = 1234;

  UserSnapshot bare;  // everything optional absent
  bare.user = "bob";

  d.users = {std::move(rich), std::move(bare)};

  const SnapshotData back = decode_snapshot(encode_snapshot(d));
  EXPECT_EQ(back.context.seed, 42u);
  EXPECT_EQ(back.context.dataset, "roundtrip");
  EXPECT_EQ(back.context.total_events, 1000u);
  EXPECT_EQ(back.config.shards, 3u);
  EXPECT_EQ(back.config.window_seconds, 86400);
  EXPECT_EQ(back.config.max_points, 64u);
  EXPECT_EQ(back.config.max_users_per_shard, 5u);
  EXPECT_EQ(back.config.loop_slack, 5u);
  EXPECT_EQ(back.stream_position, 512u);
  EXPECT_EQ(back.stats.decisions, 17u);
  EXPECT_EQ(back.stats.checkpoints, 2u);
  EXPECT_EQ(back.stats.bad_records, 6u);
  EXPECT_EQ(back.stats.dead_letters, 9u);
  EXPECT_EQ(back.stats.quarantined_users, 1u);
  EXPECT_EQ(back.stats.shed_decisions, 5u);
  EXPECT_EQ(back.stats.degraded_batches, 2u);
  EXPECT_EQ(back.stats.backpressure_events, 7u);
  EXPECT_EQ(back.stats.quarantined_snapshots, 1u);
  EXPECT_EQ(back.shard_clocks, (std::vector<std::uint64_t>{9, 0, 4}));
  EXPECT_EQ(back.shard_shedding, (std::vector<std::uint8_t>{1, 0, 1}));

  ASSERT_EQ(back.users.size(), 2u);
  const UserSnapshot& a = back.users[0];
  EXPECT_EQ(a.user, "ada");
  ASSERT_EQ(a.window.size(), 2u);
  EXPECT_EQ(a.window[0].position.lat, 45.5);
  EXPECT_EQ(a.window[1].time, 200);
  EXPECT_EQ(a.stay_origin.lat, 45.5);
  EXPECT_EQ(a.stay_origin.lon, 4.25);
  EXPECT_TRUE(a.has_decision);
  EXPECT_EQ(a.decision, 1);
  EXPECT_EQ(a.winner, "GeoI");
  EXPECT_EQ(a.searched_events, 77u);
  EXPECT_EQ(a.rechecks, 4u);
  EXPECT_EQ(a.degraded, 2u);
  EXPECT_EQ(a.last_touch, 11u);
  EXPECT_TRUE(a.quarantined);
  EXPECT_EQ(a.quarantine_reason, "bad coordinate");
  EXPECT_EQ(a.dead_letters, 5u);
  EXPECT_TRUE(a.has_last_time);
  EXPECT_EQ(a.last_time, 1234);

  const UserSnapshot& b = back.users[1];
  EXPECT_EQ(b.user, "bob");
  EXPECT_EQ(b.stay_origin.lat, 0.0);
  EXPECT_FALSE(b.has_decision);
  EXPECT_EQ(b.searched_events, static_cast<std::uint64_t>(-1));
  EXPECT_FALSE(b.quarantined);
  EXPECT_EQ(b.dead_letters, 0u);
  EXPECT_FALSE(b.has_last_time);
}

TEST(SnapshotFormat, RejectsBadMagicVersionAndSectionDamage) {
  const std::string good = encode_snapshot(tiny_snapshot(8));
  ASSERT_NO_THROW(decode_snapshot(good));

  std::string bad = good;
  bad[0] = 'X';  // magic
  EXPECT_THROW(decode_snapshot(bad), SnapshotError);

  bad = good;
  bad[8] = static_cast<char>(kSnapshotVersion + 1);  // version
  try {
    (void)decode_snapshot(bad);
    FAIL() << "unknown version accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported snapshot version"),
              std::string::npos);
  }

  bad = good;
  bad[12] = 5;  // section count
  EXPECT_THROW(decode_snapshot(bad), SnapshotError);

  bad = good;
  bad[40] ^= 0x01;  // one flipped payload bit -> some section's CRC fails
  EXPECT_THROW(decode_snapshot(bad), SnapshotError);

  bad = good + "garbage";  // trailing bytes after the last section
  EXPECT_THROW(decode_snapshot(bad), SnapshotError);

  SnapshotData inconsistent = tiny_snapshot(8);
  inconsistent.shard_clocks = {1, 2};  // two clocks, one shard
  EXPECT_THROW(decode_snapshot(encode_snapshot(inconsistent)), SnapshotError);
}

TEST(SnapshotFormat, EveryTruncationIsRejectedNotCrashed) {
  // The short-read property, exhaustively: every proper prefix of a valid
  // snapshot must throw SnapshotError — never crash, never half-decode.
  const std::string good = encode_snapshot(tiny_snapshot(8));
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_THROW(decode_snapshot(std::string_view(good).substr(0, len)),
                 SnapshotError)
        << "prefix length " << len;
  }
}

TEST(SnapshotFormat, RejectsSemanticCorruption) {
  // Structurally valid bytes (magic, CRCs all fine) whose *values* are
  // out of range must still be rejected: decode validates, not just
  // checksums.
  SnapshotData d = tiny_snapshot(8);
  d.users[0].decision = 7;  // not a valid Decision enum value
  EXPECT_THROW(decode_snapshot(encode_snapshot(d)), SnapshotError);

  d = tiny_snapshot(8);
  d.users.push_back(d.users[0]);  // duplicate id -> not strictly sorted
  EXPECT_THROW(decode_snapshot(encode_snapshot(d)), SnapshotError);

  d = tiny_snapshot(8);
  d.users[0].quarantine_reason = "x";  // reason without the quarantine flag
  EXPECT_THROW(decode_snapshot(encode_snapshot(d)), SnapshotError);

  d = tiny_snapshot(8);
  d.shard_shedding = {2};  // latch must be 0 or 1
  EXPECT_THROW(decode_snapshot(encode_snapshot(d)), SnapshotError);

  d = tiny_snapshot(8);
  d.shard_shedding = {0, 0};  // two latches, one shard
  EXPECT_THROW(decode_snapshot(encode_snapshot(d)), SnapshotError);
}

// ------------------------------------------------------- golden file --

/// Fixed document behind tests/data/golden.moodsnap. Every double is
/// exactly representable so the byte image is stable across platforms.
SnapshotData golden_data() {
  SnapshotData d;
  d.context.seed = 7;
  d.context.dataset = "golden";
  d.context.total_events = 6;
  d.config.shards = 2;
  d.config.window_seconds = 3600;
  d.config.max_points = 4;
  d.config.max_users_per_shard = 3;
  d.stream_position = 4;
  d.stats.events = 4;
  d.stats.decisions = 3;
  d.stats.exposed_events = 1;
  d.stats.protected_events = 3;
  d.stats.searches = 1;
  d.stats.bad_records = 1;
  d.stats.dead_letters = 2;
  d.stats.quarantined_users = 1;
  d.stats.shed_decisions = 1;
  d.stats.degraded_batches = 1;
  d.stats.backpressure_events = 2;
  d.config.resilience.on_bad_record = BadRecordPolicy::kQuarantine;
  d.config.resilience.max_pending_per_shard = 32;
  d.config.resilience.shed_high_watermark = 16;
  d.config.resilience.shed_low_watermark = 8;
  d.shard_clocks = {3, 1};
  d.shard_shedding = {1, 0};

  UserSnapshot ada;
  ada.user = "ada";
  ada.window = {{{45.5, 4.25}, 1000}, {{45.75, 4.5}, 2000}};
  ada.stay_origin = {45.5, 4.25};
  ada.has_decision = true;
  ada.decision = 1;
  ada.winner = "GeoI";
  ada.searched_events = 2;
  ada.events = 2;
  ada.risk_transitions = 1;
  ada.searches = 1;
  ada.degraded = 1;
  ada.last_touch = 3;
  ada.has_last_time = true;
  ada.last_time = 2000;

  UserSnapshot bob;
  bob.user = "bob";
  bob.window = {{{46.0, 5.0}, 1500}};
  bob.stay_origin = {46.0, 5.0};
  bob.events = 1;
  bob.last_touch = 1;
  bob.quarantined = true;
  bob.quarantine_reason = "bad coordinate";
  bob.dead_letters = 2;
  bob.has_last_time = true;
  bob.last_time = 1500;

  d.users = {std::move(ada), std::move(bob)};
  return d;
}

std::string golden_path() {
  return std::string(MOOD_TEST_DATA_DIR) + "/golden.moodsnap";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(SnapshotGolden, WriterMatchesCheckedInGoldenFile) {
  const std::string bytes = encode_snapshot(golden_data());
  if (std::getenv("MOOD_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "regenerated " << golden_path();
  }
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing fixture " << golden_path()
                         << " (regenerate with MOOD_UPDATE_GOLDEN=1)";
  std::string stored((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  // Byte-for-byte: any writer change that moves the layout fails here and
  // must come with a version bump (or a deliberate fixture regeneration).
  ASSERT_EQ(stored.size(), bytes.size());
  EXPECT_TRUE(stored == bytes) << "writer output diverged from the "
                                  "documented mood-snapshot/5 layout";
}

TEST(SnapshotGolden, CheckedInGoldenFileDecodes) {
  std::ifstream in(golden_path(), std::ios::binary);
  if (!in.good()) GTEST_SKIP() << "fixture not generated yet";
  const std::string stored((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  const SnapshotData d = decode_snapshot(stored);
  EXPECT_EQ(d.context.dataset, "golden");
  EXPECT_EQ(d.stream_position, 4u);
  ASSERT_EQ(d.users.size(), 2u);
  EXPECT_EQ(d.users[0].user, "ada");
  EXPECT_EQ(d.users[0].winner, "GeoI");
  EXPECT_EQ(d.users[1].stay_origin.lat, 46.0);
  EXPECT_EQ(d.users[1].stay_origin.lon, 5.0);
  EXPECT_EQ(d.config.resilience.on_bad_record, BadRecordPolicy::kQuarantine);
  EXPECT_EQ(d.config.resilience.shed_high_watermark, 16u);
  EXPECT_EQ(d.shard_shedding, (std::vector<std::uint8_t>{1, 0}));
  EXPECT_TRUE(d.users[1].quarantined);
  EXPECT_EQ(d.users[1].quarantine_reason, "bad coordinate");
  EXPECT_EQ(d.users[1].dead_letters, 2u);
  // Decode is the exact inverse of encode on the checked-in bytes.
  EXPECT_TRUE(encode_snapshot(d) == stored);
}

/// (payload offset, payload length) of every section of a well-formed
/// snapshot, read from the section headers after the 16-byte file header.
std::vector<std::pair<std::size_t, std::size_t>> section_table(
    const std::string& bytes) {
  std::vector<std::pair<std::size_t, std::size_t>> sections;
  for (std::size_t pos = 16; pos < bytes.size();) {
    std::uint64_t len = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      len |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(bytes[pos + 4 + i]))
             << (8 * i);
    }
    sections.emplace_back(pos + 12, static_cast<std::size_t>(len));
    pos += 12 + len + 4;
  }
  return sections;
}

/// Rewrites each section's trailing CRC over its (mutated) payload, so a
/// mutation gets past the integrity check and reaches the value decoder.
void recompute_crcs(
    std::string& bytes,
    const std::vector<std::pair<std::size_t, std::size_t>>& sections) {
  for (const auto& [offset, len] : sections) {
    const std::uint32_t crc =
        snapshot_crc32(std::string_view(bytes).substr(offset, len));
    for (std::size_t i = 0; i < 4; ++i) {
      bytes[offset + len + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
    }
  }
}

/// Decodes CRC-valid mutated bytes: either SnapshotError (counted as
/// rejected) or a document that re-encodes to exactly those bytes (counted
/// as accepted). Any other exception escapes and fails the test.
void decode_or_reject(const std::string& bytes, const std::string& what,
                      std::size_t& accepted, std::size_t& rejected) {
  try {
    const SnapshotData decoded = decode_snapshot(bytes);
    ++accepted;
    EXPECT_TRUE(encode_snapshot(decoded) == bytes)
        << what << " decoded to a document that re-encodes differently";
  } catch (const SnapshotError&) {
    ++rejected;
  }
}

TEST(SnapshotFormat, CrcFixedMutationsDecodeOrRejectCleanly) {
  // Flip bits in every byte after the 16-byte header, then recompute every
  // section CRC so the mutation reaches the value decoder. Decode must
  // either reject the bytes or return a document that re-encodes to them
  // exactly: no value may decode to something encode writes differently.
  const std::string golden = read_file(golden_path());
  ASSERT_GT(golden.size(), 16u) << "missing fixture " << golden_path();
  const auto sections = section_table(golden);
  ASSERT_EQ(sections.size(), 3u);

  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (std::size_t at = 16; at < golden.size(); ++at) {
    for (const std::uint8_t mask :
         {std::uint8_t{0x01}, std::uint8_t{0x80}, std::uint8_t{0xFF}}) {
      std::string bytes = golden;
      bytes[at] = static_cast<char>(static_cast<std::uint8_t>(bytes[at]) ^
                                    mask);
      recompute_crcs(bytes, sections);
      decode_or_reject(bytes,
                       "byte " + std::to_string(at) + " mask " +
                           std::to_string(mask),
                       accepted, rejected);
    }
  }
  RecordProperty("accepted", static_cast<int>(accepted));
  RecordProperty("rejected", static_cast<int>(rejected));
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(SnapshotFormat, EveryGoldenPrefixIsRejected) {
  // The short-read property on the checked-in file, whose sections carry
  // every record type: each strict prefix throws SnapshotError and
  // nothing else (EXPECT_THROW fails on any other exception type).
  const std::string golden = read_file(golden_path());
  ASSERT_GT(golden.size(), 16u) << "missing fixture " << golden_path();
  for (std::size_t len = 0; len < golden.size(); ++len) {
    EXPECT_THROW(decode_snapshot(std::string_view(golden).substr(0, len)),
                 SnapshotError)
        << "prefix length " << len;
  }
}

TEST(SnapshotFormat, CrcFixedSplicesDecodeOrRejectCleanly) {
  // Seeded splices: overwrite a random run of one section's payload with
  // a same-length run copied from a random offset of another (or the
  // same) section, recompute the CRCs, decode. Multi-byte splices move
  // whole length fields, strings and counts where single-byte flips only
  // nudge them.
  const std::string golden = read_file(golden_path());
  ASSERT_GT(golden.size(), 16u) << "missing fixture " << golden_path();
  const auto sections = section_table(golden);
  ASSERT_EQ(sections.size(), 3u);

  std::mt19937_64 rng(20261017);
  const auto uniform = [&rng](std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
  };
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int splice = 0; splice < 4000; ++splice) {
    const auto& [from, from_len] = sections[uniform(0, sections.size() - 1)];
    const auto& [to, to_len] = sections[uniform(0, sections.size() - 1)];
    const std::size_t len = uniform(1, std::min({from_len, to_len,
                                                 std::size_t{32}}));
    const std::size_t src = from + uniform(0, from_len - len);
    const std::size_t dst = to + uniform(0, to_len - len);
    std::string bytes = golden;
    bytes.replace(dst, len, golden, src, len);
    recompute_crcs(bytes, sections);
    decode_or_reject(bytes,
                     "splice " + std::to_string(splice) + " (" +
                         std::to_string(len) + " bytes " +
                         std::to_string(src) + " -> " + std::to_string(dst) +
                         ")",
                     accepted, rejected);
  }
  RecordProperty("accepted", static_cast<int>(accepted));
  RecordProperty("rejected", static_cast<int>(rejected));
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

/// Decode refuses a retired version by its version field, never
/// misparses it.
void expect_refused_by_version(const std::string& fixture, int version) {
  const std::string stored =
      read_file(std::string(MOOD_TEST_DATA_DIR) + "/" + fixture);
  ASSERT_FALSE(stored.empty()) << "missing fixture " << fixture;
  try {
    (void)decode_snapshot(stored);
    FAIL() << "a version-" << version << " snapshot decoded";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported snapshot version " +
                                         std::to_string(version)),
              std::string::npos)
        << e.what();
  }
}

/// The last version-1 file ever written (the golden fixture as of the
/// micro-batch engine).
TEST(SnapshotGolden, VersionOneFileIsRefusedByVersion) {
  expect_refused_by_version("golden-v1.moodsnap", 1);
}

/// The last version-2 file ever written (the golden fixture as of the
/// held-mechanism recheck cadence, whose field its CONFIG section carries).
TEST(SnapshotGolden, VersionTwoFileIsRefusedByVersion) {
  expect_refused_by_version("golden-v2.moodsnap", 2);
}

/// The last version-3 file ever written (the golden fixture as of the
/// compiled heatmap counts and PIT/POI forms in USERS).
TEST(SnapshotGolden, VersionThreeFileIsRefusedByVersion) {
  expect_refused_by_version("golden-v3.moodsnap", 3);
}

/// The last version-4 file ever written (the golden fixture as of the
/// stay tracker, staleness deltas and CONFIG's staleness bound).
TEST(SnapshotGolden, VersionFourFileIsRefusedByVersion) {
  expect_refused_by_version("golden-v4.moodsnap", 4);
}

// ----------------------------------------------- restore bit-identity --

TEST_F(SnapshotTest, RestoreAtEveryCheckpointBoundaryIsBitIdentical) {
  // A --checkpoint-every=256 run cuts at every multiple of 256: the cadence
  // pump runs after each ingest and quiesces on the exact event.
  const std::string dir = scratch_dir("every_cut");
  StreamConfig config;
  config.shards = 4;
  StreamEngine checkpointed(harness_->make_engine(), config);
  checkpointed.configure_checkpoints(
      {dir, 256}, {13, "snapshot-test", events_->size()});
  const ReplayResult reference = run_replay(checkpointed, *events_, {});
  EXPECT_EQ(read_latest_snapshot(dir).stream_position,
            events_->size() / 256 * 256);

  for (std::size_t cut = 256; cut < events_->size(); cut += 256) {
    // Capture at the cut, push the document through the real byte
    // format, restore into a fresh gateway, and finish the stream.
    const SnapshotData snap =
        decode_snapshot(encode_snapshot(capture_at(config, cut)));
    ASSERT_EQ(snap.stream_position, cut);
    const ReplayResult resumed = resume_from(snap, config, {});
    expect_identical_outcome(resumed, reference);
    EXPECT_EQ(resumed.session_events, events_->size() - cut);
  }
}

TEST_F(SnapshotTest, RestoreIsBitIdenticalAcrossGatewayConfigs) {
  // The same round trip under every interesting knob: single shard, many
  // shards, bounded windows, and an LRU cap small enough to evict users
  // between checkpoints.
  StreamConfig shards1;
  shards1.shards = 1;
  StreamConfig many;
  many.shards = 7;
  StreamConfig capped;
  capped.shards = 2;
  capped.max_points = 50;
  StreamConfig windowed;
  windowed.shards = 3;
  windowed.window_seconds = 86400;
  StreamConfig lru;
  lru.shards = 1;
  lru.max_users_per_shard = 2;

  for (const StreamConfig& config :
       {shards1, many, capped, windowed, lru}) {
    const ReplayResult reference = replay_with(config);
    for (const std::size_t cut :
         {events_->size() / 3, 2 * events_->size() / 3}) {
      const SnapshotData snap =
          decode_snapshot(encode_snapshot(capture_at(config, cut)));
      const ReplayResult resumed = resume_from(snap, config, {});
      expect_identical_outcome(resumed, reference);
    }
  }
  // The LRU configuration really evicted users, so the restore path was
  // exercised against a store that dropped state between checkpoints.
  EXPECT_GT(replay_with(lru).stats.evicted_users, 0u);
}

TEST_F(SnapshotTest, RestoreContinuesIndexCountersAcrossDedicatedHarnesses) {
  // The index_* counters live on the harness-owned attacks, so the
  // bit-identity claim for them needs one harness per process "life":
  // reference (uninterrupted), first life (prefix + capture), second life
  // (restore + continue). stats_floor_ must subtract the second life's
  // own training rebuilds, which the baseline already counts once.
  core::ExperimentConfig config;
  config.min_records = 8;
  StreamConfig stream_config;
  stream_config.shards = 2;
  const std::size_t boundary = 512;

  core::ExperimentHarness straight(*dataset_, config, 13);
  StreamEngine uninterrupted(straight.make_engine(), stream_config);
  const ReplayResult reference = run_replay(uninterrupted, *events_, {});

  core::ExperimentHarness first_life(*dataset_, config, 13);
  StreamEngine before_crash(first_life.make_engine(), stream_config);
  for (std::size_t i = 0; i < boundary; ++i) {
    before_crash.ingest((*events_)[i]);
  }
  before_crash.quiesce();
  const SnapshotData snap = decode_snapshot(
      encode_snapshot(before_crash.capture_snapshot()));

  core::ExperimentHarness second_life(*dataset_, config, 13);
  StreamEngine restored(second_life.make_engine(), stream_config);
  restored.restore_snapshot(snap);
  ReplayOptions options;
  options.resume_events = boundary;
  const ReplayResult resumed = run_replay(restored, *events_, options);
  expect_identical_outcome(resumed, reference, /*include_index=*/true);
}

TEST_F(SnapshotTest, RestoreAtAnArbitraryQuiescedPositionIsBitIdentical) {
  // A cut off every checkpoint cadence: the quiesce barrier alone makes
  // it consistent — every event before it is folded and decided, nothing
  // is in flight.
  StreamConfig config;
  config.shards = 2;
  const std::size_t cut = 301;
  const ReplayResult reference = replay_with(config);

  const SnapshotData snap =
      decode_snapshot(encode_snapshot(capture_at(config, cut)));
  std::uint64_t folded = 0;
  for (const UserSnapshot& u : snap.users) folded += u.events;
  EXPECT_EQ(folded, cut);

  StreamEngine restored(harness_->make_engine(), config);
  restored.restore_snapshot(snap);
  EXPECT_EQ(restored.stream_position(), cut);
  ReplayOptions options;
  options.resume_events = cut;
  expect_identical_outcome(run_replay(restored, *events_, options), reference);
}

TEST_F(SnapshotTest, RestoreBetweenCadencesWhileEvictingIsBitIdentical) {
  // A cut between two slack-cadence decides: users whose latest events
  // took the held tier carry windows that no verdict has read yet, and
  // a 36 h sliding window keeps evicting after the restore. The
  // resumed run must publish the uninterrupted run's verdicts, winners and
  // window slices.
  StreamConfig config;
  config.shards = 2;
  config.window_seconds = 36 * 3600;
  const ReplayResult reference = replay_with(config);
  std::size_t multi_slice = 0;
  for (const UserDecision& d : reference.decisions) {
    if (d.window_slices > 1) ++multi_slice;
  }
  EXPECT_GT(multi_slice, 0u);

  const std::size_t cut = 2 * events_->size() / 3 + 1;
  const SnapshotData snap =
      decode_snapshot(encode_snapshot(capture_at(config, cut)));
  EXPECT_GT(snap.stats.evicted_points, 0u);
  std::size_t between_cadences = 0;
  for (const UserSnapshot& u : snap.users) {
    if (u.has_decision && u.events % config.loop_slack != 0) {
      ++between_cadences;
    }
  }
  EXPECT_GT(between_cadences, 0u);
  const ReplayResult resumed = resume_from(snap, config, {});
  EXPECT_GT(resumed.stats.evicted_points, snap.stats.evicted_points);
  expect_identical_outcome(resumed, reference);
}

TEST_F(SnapshotTest, RestoreRefusesMismatchedGatewayConfig) {
  StreamConfig config;
  config.shards = 2;
  const SnapshotData snap = capture_at(config, 256);

  StreamConfig other = config;
  other.max_points = 99;
  StreamEngine engine(harness_->make_engine(), other);
  EXPECT_THROW(engine.restore_snapshot(snap), SnapshotError);

  // The resilience knobs are part of the fingerprint too: resuming under
  // a different shed policy would change the decisions mid-stream.
  StreamConfig resilient = config;
  resilient.resilience.shed_high_watermark = 512;
  resilient.resilience.shed_low_watermark = 128;
  StreamEngine mismatched(harness_->make_engine(), resilient);
  EXPECT_THROW(mismatched.restore_snapshot(snap), SnapshotError);

  // And never into a gateway that already ingested anything.
  StreamEngine used(harness_->make_engine(), config);
  used.ingest((*events_)[0]);
  EXPECT_THROW(used.restore_snapshot(snap), support::Error);
}

// -------------------------------------------------- periodic cadence --

TEST_F(SnapshotTest, PeriodicCheckpointsFollowEventCadenceAndPrune) {
  const std::string dir = scratch_dir("cadence");
  StreamConfig config;
  config.shards = 2;

  StreamEngine engine(harness_->make_engine(), config);
  engine.configure_checkpoints({dir, 256},
                               {13, "snapshot-test", events_->size()});
  const ReplayResult result = run_replay(engine, *events_, {});

  // Cadence 256: a checkpoint at every multiple of 256 events.
  const StreamStats stats = engine.stats();
  EXPECT_GE(stats.checkpoints, 2u);
  EXPECT_EQ(stats.checkpoints, events_->size() / 256);
  EXPECT_GT(stats.checkpoint_bytes, 0u);
  EXPECT_EQ(stats.checkpoint_failures, 0u);

  // Pruned to the newest two, newest first, and the newest decodes to the
  // highest checkpointed position.
  const auto files = list_snapshot_files(dir);
  ASSERT_EQ(files.size(), 2u);
  const SnapshotData latest = read_latest_snapshot(dir);
  EXPECT_GT(latest.stream_position,
            decode_snapshot(
                [&] {
                  std::ifstream in(files[1], std::ios::binary);
                  return std::string(
                      (std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
                }())
                .stream_position);
  EXPECT_EQ(latest.context.dataset, "snapshot-test");

  // Checkpointing must not have perturbed the decisions themselves.
  expect_identical_outcome(result, replay_with(config));
}

TEST_F(SnapshotTest, RestoreFromDiskContinuesBitIdentically) {
  // The full loop the CLI runs: periodic checkpoints to disk, "crash",
  // read the newest snapshot back, restore, continue — bit-identical.
  const std::string dir = scratch_dir("disk");
  StreamConfig config;
  config.shards = 3;
  const ReplayResult reference = replay_with(config);

  StreamEngine writer(harness_->make_engine(), config);
  writer.configure_checkpoints({dir, 384},
                               {13, "snapshot-test", events_->size()});
  // Drive only a prefix — the "crash" point — past a few checkpoints,
  // pumping the cadence exactly as run_replay does.
  const std::size_t crash_at = events_->size() / 2;
  for (std::size_t i = 0; i < crash_at; ++i) {
    writer.ingest((*events_)[i]);
    writer.pump_cadences();
  }
  ASSERT_GE(writer.stats().checkpoints, 1u);

  const SnapshotData snap = read_latest_snapshot(dir);
  EXPECT_EQ(snap.stream_position, crash_at / 384 * 384);
  const ReplayResult resumed = resume_from(snap, config, {});
  expect_identical_outcome(resumed, reference);
}

// ------------------------------------------------- fault injection ----

class SnapshotFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoint::disarm_all(); }
};

TEST_F(SnapshotFaultTest, EveryWriteFailPointLeavesPreviousSnapshotUsable) {
  for (const char* point :
       {"snapshot.write.open", "snapshot.write.payload",
        "snapshot.write.fsync", "snapshot.write.rename",
        "snapshot.write.commit"}) {
    const std::string dir = std::string(::testing::TempDir()) +
                            "mood_snapshot_fault_" + point;
    fs::remove_all(dir);
    write_snapshot_file(dir, encode_snapshot(tiny_snapshot(8)));

    FailPoint::arm(point, FailAction::kError);
    EXPECT_THROW(
        write_snapshot_file(dir, encode_snapshot(tiny_snapshot(16))),
        support::IoError)
        << point;
    // Whatever step failed, the previous good snapshot must still win —
    // except past the rename, where the new snapshot is already fully
    // committed and is itself the valid newest.
    const SnapshotData survivor = read_latest_snapshot(dir);
    const bool committed = std::string(point) == "snapshot.write.commit";
    EXPECT_EQ(survivor.stream_position, committed ? 16u : 8u) << point;

    // One-shot: the very next attempt must succeed end to end.
    write_snapshot_file(dir, encode_snapshot(tiny_snapshot(24)));
    EXPECT_EQ(read_latest_snapshot(dir).stream_position, 24u) << point;
  }
}

TEST_F(SnapshotFaultTest, TornPayloadWriteLeavesPartialTmpAndOldSnapshotWins) {
  const std::string dir = std::string(::testing::TempDir()) +
                          "mood_snapshot_torn";
  fs::remove_all(dir);
  write_snapshot_file(dir, encode_snapshot(tiny_snapshot(8)));

  const std::string bytes = encode_snapshot(tiny_snapshot(16));
  FailPoint::arm("snapshot.write.payload", FailAction::kTorn);
  EXPECT_THROW(write_snapshot_file(dir, bytes), support::IoError);

  // The torn prefix is on disk under the tmp name — exactly the state a
  // mid-write kill leaves — and is invisible to the reader.
  const std::string tmp = dir + "/.snapshot.tmp";
  ASSERT_TRUE(fs::exists(tmp));
  EXPECT_EQ(fs::file_size(tmp), bytes.size() / 2);
  EXPECT_EQ(list_snapshot_files(dir).size(), 1u);
  EXPECT_EQ(read_latest_snapshot(dir).stream_position, 8u);

  // Recovery: the next write truncates the leftover tmp and commits.
  write_snapshot_file(dir, bytes);
  EXPECT_EQ(read_latest_snapshot(dir).stream_position, 16u);
}

TEST_F(SnapshotFaultTest, ReadQuarantinesCorruptCandidatesAndSkipsUnreadable) {
  const std::string dir = std::string(::testing::TempDir()) +
                          "mood_snapshot_read";
  fs::remove_all(dir);
  write_snapshot_file(dir, encode_snapshot(tiny_snapshot(8)));
  const std::string newest =
      write_snapshot_file(dir, encode_snapshot(tiny_snapshot(16)));

  // Bit-flip the newest on disk: CRC rejects it, the file is renamed aside
  // to `.quarantined` (and counted), and the previous good snapshot wins.
  {
    std::fstream f(newest, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(40);
    char byte = 0;
    f.seekg(40);
    f.get(byte);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(40);
    f.put(byte);
  }
  std::size_t quarantined = 0;
  EXPECT_EQ(read_latest_snapshot(dir, &quarantined).stream_position, 8u);
  EXPECT_EQ(quarantined, 1u);
  EXPECT_FALSE(fs::exists(newest));
  EXPECT_TRUE(fs::exists(newest + ".quarantined"));
  // Out of the rotation: the next read neither sees nor re-counts it.
  EXPECT_EQ(list_snapshot_files(dir).size(), 1u);
  quarantined = 0;
  EXPECT_EQ(read_latest_snapshot(dir, &quarantined).stream_position, 8u);
  EXPECT_EQ(quarantined, 0u);

  // A truncated newest takes the same rename-aside fallback.
  const std::string truncated =
      write_snapshot_file(dir, encode_snapshot(tiny_snapshot(16)));
  fs::resize_file(truncated, fs::file_size(truncated) / 2);
  EXPECT_EQ(read_latest_snapshot(dir).stream_position, 8u);
  EXPECT_TRUE(fs::exists(truncated + ".quarantined"));

  // An injected short read is indistinguishable from on-disk truncation,
  // so it quarantines too (one-shot: only the first candidate is torn).
  const std::string torn =
      write_snapshot_file(dir, encode_snapshot(tiny_snapshot(16)));
  FailPoint::arm("snapshot.read.file", FailAction::kTorn);
  EXPECT_EQ(read_latest_snapshot(dir).stream_position, 8u);
  EXPECT_TRUE(fs::exists(torn + ".quarantined"));

  // An injected open failure (IoError, not SnapshotError) is transient:
  // skipped WITHOUT the rename, and readable again on the next attempt.
  const std::string unreadable =
      write_snapshot_file(dir, encode_snapshot(tiny_snapshot(16)));
  FailPoint::arm("snapshot.read.open", FailAction::kError);
  quarantined = 0;
  EXPECT_EQ(read_latest_snapshot(dir, &quarantined).stream_position, 8u);
  EXPECT_EQ(quarantined, 0u);
  EXPECT_TRUE(fs::exists(unreadable));
  EXPECT_EQ(read_latest_snapshot(dir).stream_position, 16u);

  // Every candidate corrupt: a typed SnapshotError, never a partial
  // restore — and the whole rotation renamed aside for forensics.
  for (const std::string& path : list_snapshot_files(dir)) {
    fs::resize_file(path, 3);
  }
  EXPECT_THROW(read_latest_snapshot(dir), SnapshotError);
  EXPECT_TRUE(list_snapshot_files(dir).empty());

  // Missing directory: a typed IoError from the listing.
  fs::remove_all(dir);
  EXPECT_THROW(read_latest_snapshot(dir), support::IoError);
  EXPECT_THROW(list_snapshot_files(dir), support::IoError);
}

TEST_F(SnapshotFaultTest, PeriodicPathAbsorbsWriteFailuresAndRetries) {
  // An injected checkpoint failure mid-replay must not surface: the
  // cadence pump counts a checkpoint_failure and the next cadence retries.
  simulation::GeneratorParams params = population_params();
  params.users = 4;
  params.days = 3;
  const mobility::Dataset dataset = simulation::generate(params);
  core::ExperimentConfig config;
  config.min_records = 8;
  core::ExperimentHarness harness(dataset, config, 13);
  const auto events = make_event_stream(harness.pairs());

  const std::string dir = std::string(::testing::TempDir()) +
                          "mood_snapshot_periodic_fault";
  fs::remove_all(dir);
  StreamConfig stream_config;
  stream_config.shards = 2;
  StreamEngine engine(harness.make_engine(), stream_config);
  engine.configure_checkpoints({dir, 128}, {13, "fault", events.size()});
  FailPoint::arm("snapshot.write.fsync", FailAction::kError);
  ASSERT_NO_THROW(run_replay(engine, events, {}));
  const StreamStats stats = engine.stats();
  EXPECT_EQ(stats.checkpoint_failures, 1u);
  EXPECT_GE(stats.checkpoints, 1u);  // later cadences succeeded
  EXPECT_NO_THROW(read_latest_snapshot(dir));
}

// Death tests: kKill is a real std::_Exit(137) — the SIGKILL-equivalent —
// so the on-disk state afterwards is exactly what a kill -9 leaves.
// Threadsafe style re-executes the binary, so the statement and the setup
// must be deterministic (fixed paths, no mkdtemp).
TEST_F(SnapshotFaultTest, KillBeforeRenameLeavesDirectoryRestorable) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const std::string dir = std::string(::testing::TempDir()) +
                          "mood_snapshot_kill_rename";
  fs::remove_all(dir);
  write_snapshot_file(dir, encode_snapshot(tiny_snapshot(8)));

  EXPECT_EXIT(
      {
        FailPoint::arm("snapshot.write.rename", FailAction::kKill);
        write_snapshot_file(dir, encode_snapshot(tiny_snapshot(16)));
      },
      ::testing::ExitedWithCode(137), "");

  // The kill struck after the payload fsync but before the rename: the
  // fully written tmp file is stranded, invisible, and the previous
  // snapshot restores.
  EXPECT_TRUE(fs::exists(dir + "/.snapshot.tmp"));
  EXPECT_EQ(list_snapshot_files(dir).size(), 1u);
  EXPECT_EQ(read_latest_snapshot(dir).stream_position, 8u);
}

TEST_F(SnapshotFaultTest, KillMidPayloadLeavesDirectoryRestorable) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const std::string dir = std::string(::testing::TempDir()) +
                          "mood_snapshot_kill_payload";
  fs::remove_all(dir);
  write_snapshot_file(dir, encode_snapshot(tiny_snapshot(8)));

  EXPECT_EXIT(
      {
        FailPoint::arm("snapshot.write.payload", FailAction::kKill);
        write_snapshot_file(dir, encode_snapshot(tiny_snapshot(16)));
      },
      ::testing::ExitedWithCode(137), "");

  EXPECT_EQ(read_latest_snapshot(dir).stream_position, 8u);
}

// ------------------------------------------------------- fail points --

TEST_F(SnapshotFaultTest, FailPointSpecParsingAndHitCounting) {
  EXPECT_FALSE(FailPoint::any_armed());
  FailPoint::arm_spec("snapshot.write.fsync=error@2");
  EXPECT_TRUE(FailPoint::any_armed());

  // First hit: below the firing threshold, nothing happens.
  EXPECT_EQ(MOOD_FAIL_POINT("snapshot.write.fsync"), FailAction::kNone);
  // Second hit fires (kError throws from inside hit()).
  EXPECT_THROW(MOOD_FAIL_POINT("snapshot.write.fsync"), support::IoError);
  // One-shot: disarmed after firing.
  EXPECT_FALSE(FailPoint::any_armed());
  EXPECT_EQ(MOOD_FAIL_POINT("snapshot.write.fsync"), FailAction::kNone);

  // kCorrupt is returned to the site (which mangles its own data) and
  // disarms like every other action.
  FailPoint::arm_spec("stream.drain.corrupt=corrupt");
  EXPECT_EQ(MOOD_FAIL_POINT("stream.drain.corrupt"), FailAction::kCorrupt);
  EXPECT_FALSE(FailPoint::any_armed());
  EXPECT_EQ(MOOD_FAIL_POINT("stream.drain.corrupt"), FailAction::kNone);

  // kThrow raises the typed InjectedFault from inside hit().
  FailPoint::arm_spec("stream.decide.user=throw");
  EXPECT_THROW(MOOD_FAIL_POINT("stream.decide.user"),
               mood::testing::InjectedFault);
  EXPECT_FALSE(FailPoint::any_armed());

  EXPECT_THROW(FailPoint::arm_spec("no-action-here"), support::UsageError);
  EXPECT_THROW(FailPoint::arm_spec("x=explode"), support::UsageError);
  EXPECT_THROW(FailPoint::arm_spec("x=kill@zero"), support::UsageError);
}

}  // namespace
}  // namespace mood::stream
