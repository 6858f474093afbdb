#pragma once

/// \file snapshot.h
/// mood-snapshot/6 — the gateway's versioned checkpoint format, and the
/// crash-consistent file protocol around it.
///
/// A deployed gateway (the paper's pitch) must survive restarts without
/// silently changing its published decisions, so restore *correctness* is
/// the bar: a run killed at any checkpoint cut and restored must produce
/// the byte-identical mood-stream/1 decision set as an uninterrupted run.
/// The snapshot therefore serializes the per-user kernel state, which is
/// state only: the window, the stay-projection origin pinned at the
/// user's first-ever record (the window front may since have moved), the
/// verdict and the counters. The kernel caches no compiled profile, so
/// restore compiles nothing; the next verdict compiles the window.
///
/// ## File layout (little-endian throughout)
///
///   offset 0   magic   "MOODSNAP"            (8 bytes)
///          8   u32     version (= 6; version 1 carried the retired
///                      micro-batch engine's fields, version 2 the
///                      retired recheck cadence, version 3 the compiled
///                      heatmap counts and PIT/POI forms, version 4 the
///                      stay tracker and the staleness bound, version 5
///                      this layout with winners chosen under the
///                      retired whole-name composition noise; all are
///                      refused)
///         12   u32     section count (= 3)
///         16   sections, each:
///                u32   section id            (1 CONFIG, 2 STATS, 3 USERS)
///                u64   payload length
///                      payload bytes
///                u32   CRC-32 (IEEE 802.3) of the payload
///
/// Integers are fixed-width little-endian; doubles are their IEEE-754
/// bit pattern as u64; strings are u64 length + raw bytes; bools one
/// byte. Each record's layout is written once, as a `walk_*` function in
/// snapshot.cpp that both encode_snapshot and decode_snapshot drive, so
/// the two directions cannot disagree on a field. Section payloads:
///
///   CONFIG  identity fingerprint: SnapshotContext (seed, dataset name,
///           total_events) + the StreamConfig window knobs (shards,
///           window_seconds, max_points, max_users_per_shard) + the
///           resilience knobs (on_bad_record as
///           u8, max_pending_per_shard, shed watermarks) + the decision
///           slack cadence (loop_slack). Restore refuses a mismatch.
///   STATS   stream_position, the full cumulative StreamStats in
///           kStreamStatFields order (including the resilience counters),
///           the per-shard LRU clocks, and the per-shard shed latches
///           (hysteresis state).
///   USERS   user count, then one UserSnapshot per resident user, sorted
///           by user id: window records, the stay origin, verdict,
///           per-user counters, LRU stamp, quarantine state (flag, reason,
///           dead letters) and the admission timestamp watermark.
///
/// ## Crash-consistency protocol
///
/// write_snapshot_file(): encode to `dir/.snapshot.tmp`, fsync the file,
/// rename(2) it to `snapshot-<seq>.moodsnap` (seq = highest existing +
/// 1), fsync the directory, then prune to the newest two snapshots. A
/// crash at any point leaves either the previous snapshots untouched
/// (tmp never becomes visible without a complete fsync'd payload) or the
/// new snapshot fully committed. Failure paths never unlink the partial
/// tmp file — an injected write error leaves the directory byte-identical
/// to a process killed at the same point, which is what the fault-
/// injection tests rely on (see support/failpoint.h; the named points
/// here are snapshot.write.{open,payload,fsync,rename,commit} and
/// snapshot.read.{open,file}).
///
/// read_latest_snapshot(): try candidates newest-first; a candidate that
/// fails structural validation (bad magic, unknown version, truncated or
/// CRC-mismatching section) is renamed aside to `<name>.quarantined` for
/// forensics and the previous good snapshot used — never a partial
/// restore, because decode parses and validates the entire file into a
/// SnapshotData value before the engine applies anything. SnapshotError
/// derives support::UsageError so the CLI maps "this is not a usable
/// snapshot" to exit 2, not a crash.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "geo/geo.h"
#include "mobility/record.h"
#include "mobility/trace.h"
#include "stream/engine.h"
#include "support/error.h"

namespace mood::stream {

/// A snapshot file failed structural validation: bad magic, unknown
/// version, truncated payload, CRC mismatch, or a fingerprint that does
/// not match the running gateway. UsageError-style (CLI exit 2): the
/// invocation named an unusable snapshot; nothing crashed.
class SnapshotError : public support::UsageError {
 public:
  explicit SnapshotError(const std::string& what)
      : support::UsageError(what) {}
};

inline constexpr char kSnapshotMagic[8] = {'M', 'O', 'O', 'D',
                                           'S', 'N', 'A', 'P'};
inline constexpr std::uint32_t kSnapshotVersion = 6;
inline constexpr const char* kSnapshotSuffix = ".moodsnap";

/// Captured state of one resident user — a plain-value mirror of
/// UserState + decision::UserKernelState.
struct UserSnapshot {
  mobility::UserId user;
  std::vector<mobility::Record> window;   ///< sliding window, in order
  geo::GeoPoint stay_origin;              ///< pinned at the first record

  bool has_decision = false;
  std::uint8_t decision = 0;  ///< decision::Decision as its enum value
  std::string winner;
  std::uint64_t searched_events = static_cast<std::uint64_t>(-1);

  std::uint64_t events = 0;
  std::uint64_t risk_transitions = 0;
  std::uint64_t searches = 0;
  std::uint64_t rechecks = 0;
  std::uint64_t degraded = 0;    ///< held-verdict (shed) decisions
  std::uint64_t last_touch = 0;  ///< shard LRU stamp

  // ---- Resilience (see resilience.h) ---------------------------------
  bool quarantined = false;
  std::string quarantine_reason;
  std::uint64_t dead_letters = 0;
  bool has_last_time = false;           ///< admission watermark validity
  mobility::Timestamp last_time = 0;    ///< newest admitted timestamp
};

/// One decoded (or to-be-encoded) mood-snapshot/6 document.
struct SnapshotData {
  SnapshotContext context;  ///< three of its four fields are encoded
  StreamConfig config;  ///< window-knob subset is fingerprinted
  std::uint64_t stream_position = 0;  ///< events ingested when captured
  StreamStats stats;                  ///< cumulative counters when captured
  std::vector<std::uint64_t> shard_clocks;  ///< per-shard LRU clocks
  std::vector<std::uint8_t> shard_shedding; ///< per-shard shed latches
  std::vector<UserSnapshot> users;          ///< sorted by user id
};

/// CRC-32 (IEEE 802.3, reflected, init/final 0xFFFFFFFF) — the per-section
/// guard. Exposed for the format tests.
[[nodiscard]] std::uint32_t snapshot_crc32(std::string_view bytes);

/// Serializes `data` to the documented byte layout.
[[nodiscard]] std::string encode_snapshot(const SnapshotData& data);

/// Parses and fully validates one snapshot document. Throws SnapshotError
/// on any structural defect; never returns a partially decoded value.
[[nodiscard]] SnapshotData decode_snapshot(std::string_view bytes);

/// Commits `bytes` to `dir` through the crash-consistent protocol (tmp +
/// fsync + rename + directory fsync, then prune to the newest two).
/// Creates `dir` if missing. Returns the committed file path. Throws
/// support::IoError on failure, leaving any partial tmp file in place.
std::string write_snapshot_file(const std::string& dir,
                                const std::string& bytes);

/// Snapshot files in `dir`, newest (highest sequence) first. Throws
/// support::IoError when `dir` cannot be read.
[[nodiscard]] std::vector<std::string> list_snapshot_files(
    const std::string& dir);

/// Reads the newest snapshot that decodes cleanly. A candidate that fails
/// structural validation (SnapshotError) is renamed aside to
/// `<name>.quarantined` for forensics — never deleted, never silently
/// skipped — and counted into `*quarantined_files` when the pointer is
/// given; a candidate that cannot be *read* (transient I/O failure) is
/// skipped without the rename. Each casualty is logged at warn level.
/// Throws SnapshotError when the directory holds no usable snapshot.
[[nodiscard]] SnapshotData read_latest_snapshot(
    const std::string& dir, std::size_t* quarantined_files = nullptr);

}  // namespace mood::stream
