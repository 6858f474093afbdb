#include "stream/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <optional>
#include <system_error>

#include "support/failpoint.h"
#include "support/logging.h"
#include "telemetry/trace.h"

namespace mood::stream {

namespace fs = std::filesystem;
using mood::testing::FailAction;

namespace {

constexpr std::uint32_t kSectionConfig = 1;
constexpr std::uint32_t kSectionStats = 2;
constexpr std::uint32_t kSectionUsers = 3;
constexpr std::uint32_t kSectionCount = 3;
constexpr char kTmpName[] = ".snapshot.tmp";
constexpr char kFilePrefix[] = "snapshot-";
constexpr std::size_t kKeepSnapshots = 2;

// ---- Little-endian primitives ----------------------------------------
// Byte-by-byte so the wire format is identical on any host; doubles travel
// as their IEEE-754 bit pattern.

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_i32(std::string& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_double(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_bool(std::string& out, bool v) { put_u8(out, v ? 1 : 0); }

void put_string(std::string& out, const std::string& s) {
  put_u64(out, s.size());
  out.append(s);
}

/// Bounds-checked sequential reader over one payload. Every overrun or
/// malformed value throws SnapshotError — decode never returns a partial
/// document.
class Reader {
 public:
  Reader(std::string_view bytes, const char* what)
      : bytes_(bytes), what_(what) {}

  std::uint8_t get_u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }

  std::uint32_t get_u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t get_u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  double get_double() { return std::bit_cast<double>(get_u64()); }

  bool get_bool() {
    const std::uint8_t v = get_u8();
    if (v > 1) fail("boolean byte out of range");
    return v != 0;
  }

  std::string get_string() {
    const std::uint64_t len = get_u64();
    need(len);
    std::string s(bytes_.substr(pos_, len));
    pos_ += len;
    return s;
  }

  void skip(std::uint64_t n) {
    need(n);
    pos_ += static_cast<std::size_t>(n);
  }

  /// Validates an element count against the bytes actually left, so a
  /// corrupt length cannot drive a giant allocation before the next
  /// bounds check fires.
  std::size_t get_count(std::size_t min_element_bytes) {
    const std::uint64_t count = get_u64();
    if (min_element_bytes > 0 && count > remaining() / min_element_bytes) {
      fail("element count exceeds remaining payload");
    }
    return static_cast<std::size_t>(count);
  }

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

  void expect_done() const {
    if (pos_ != bytes_.size()) fail("trailing bytes");
  }

  [[noreturn]] void fail(const char* detail) const {
    throw SnapshotError(std::string("mood-snapshot/3: malformed ") + what_ +
                        ": " + detail);
  }

 private:
  void need(std::uint64_t n) {
    if (n > remaining()) fail("truncated payload");
  }

  std::string_view bytes_;
  const char* what_;
  std::size_t pos_ = 0;
};

// ---- Composite encoders/decoders -------------------------------------

void put_record(std::string& out, const mobility::Record& r) {
  put_double(out, r.position.lat);
  put_double(out, r.position.lon);
  put_i64(out, r.time);
}

mobility::Record get_record(Reader& in) {
  mobility::Record r;
  r.position.lat = in.get_double();
  r.position.lon = in.get_double();
  r.time = in.get_i64();
  return r;
}

void put_records(std::string& out, const std::vector<mobility::Record>& v) {
  put_u64(out, v.size());
  for (const auto& r : v) put_record(out, r);
}

std::vector<mobility::Record> get_records(Reader& in) {
  const std::size_t count = in.get_count(24);
  std::vector<mobility::Record> v;
  v.reserve(count);
  for (std::size_t i = 0; i < count; ++i) v.push_back(get_record(in));
  return v;
}

void put_poi(std::string& out, const clustering::Poi& p) {
  put_double(out, p.center.lat);
  put_double(out, p.center.lon);
  put_u64(out, p.record_count);
  put_i64(out, p.dwell);
  put_i64(out, p.start);
  put_i64(out, p.end);
}

clustering::Poi get_poi(Reader& in) {
  clustering::Poi p;
  p.center.lat = in.get_double();
  p.center.lon = in.get_double();
  p.record_count = static_cast<std::size_t>(in.get_u64());
  p.dwell = in.get_i64();
  p.start = in.get_i64();
  p.end = in.get_i64();
  return p;
}

void put_stay_tracker(std::string& out,
                      const clustering::StayTrackerSnapshot& s) {
  put_double(out, s.params.max_diameter_m);
  put_i64(out, s.params.min_dwell);
  put_u64(out, s.params.min_points);
  put_bool(out, s.has_origin);
  put_double(out, s.origin.lat);
  put_double(out, s.origin.lon);
  put_u64(out, s.finals.size());
  for (const auto& stay : s.finals) {
    put_poi(out, stay.poi);
    put_u64(out, stay.start);
    put_u64(out, stay.end);
  }
  put_bool(out, s.run_valid);
  put_u64(out, s.run_anchor);
  put_u64(out, s.run_j);
  put_double(out, s.run_sx);
  put_double(out, s.run_sy);
  put_i64(out, s.run_t_start);
  put_i64(out, s.run_t_end);
  put_u64(out, s.base);
  put_u64(out, s.size);
  put_u64(out, s.generation);
  put_u64(out, s.updates);
  put_u64(out, s.rebuilds);
}

clustering::StayTrackerSnapshot get_stay_tracker(Reader& in) {
  clustering::StayTrackerSnapshot s;
  s.params.max_diameter_m = in.get_double();
  s.params.min_dwell = in.get_i64();
  s.params.min_points = static_cast<std::size_t>(in.get_u64());
  s.has_origin = in.get_bool();
  s.origin.lat = in.get_double();
  s.origin.lon = in.get_double();
  const std::size_t finals = in.get_count(64);
  s.finals.reserve(finals);
  for (std::size_t i = 0; i < finals; ++i) {
    clustering::StayTrackerSnapshot::Stay stay;
    stay.poi = get_poi(in);
    stay.start = in.get_u64();
    stay.end = in.get_u64();
    s.finals.push_back(stay);
  }
  s.run_valid = in.get_bool();
  s.run_anchor = in.get_u64();
  s.run_j = in.get_u64();
  s.run_sx = in.get_double();
  s.run_sy = in.get_double();
  s.run_t_start = in.get_i64();
  s.run_t_end = in.get_i64();
  s.base = in.get_u64();
  s.size = in.get_u64();
  s.generation = in.get_u64();
  s.updates = in.get_u64();
  s.rebuilds = in.get_u64();
  return s;
}

void put_visit_states(std::string& out,
                      const clustering::TrackedVisitStatesSnapshot& s) {
  put_stay_tracker(out, s.stays);
  put_double(out, s.visits.merge_distance_m);
  put_u64(out, s.visits.states.size());
  for (const auto& poi : s.visits.states) put_poi(out, poi);
  put_u64(out, s.visits.folded);
  put_u64(out, s.synced_generation);
}

clustering::TrackedVisitStatesSnapshot get_visit_states(Reader& in) {
  clustering::TrackedVisitStatesSnapshot s;
  s.stays = get_stay_tracker(in);
  s.visits.merge_distance_m = in.get_double();
  const std::size_t states = in.get_count(48);
  s.visits.states.reserve(states);
  for (std::size_t i = 0; i < states; ++i) {
    s.visits.states.push_back(get_poi(in));
  }
  s.visits.folded = static_cast<std::size_t>(in.get_u64());
  s.synced_generation = in.get_u64();
  return s;
}

void put_user(std::string& out, const UserSnapshot& u) {
  put_string(out, u.user);
  put_records(out, u.window);

  put_bool(out, u.heatmap_built);
  put_double(out, u.heatmap_total);
  put_u64(out, u.heatmap_counts.size());
  for (const auto& [cell, count] : u.heatmap_counts) {
    put_i32(out, cell.ix);
    put_i32(out, cell.iy);
    put_double(out, count);
  }

  put_bool(out, u.stays_init);
  put_bool(out, u.stay_origin_set);
  put_double(out, u.stay_origin.lat);
  put_double(out, u.stay_origin.lon);
  if (u.stays_init) put_visit_states(out, u.stays);

  put_bool(out, u.profiles_built);
  put_u64(out, u.markov_states.size());
  for (const auto& state : u.markov_states) {
    put_double(out, state.center.lat_rad);
    put_double(out, state.center.lon_deg);
    put_double(out, state.center.cos_lat);
    put_double(out, state.weight);
  }
  put_u64(out, u.poi_centers.size());
  for (const auto& center : u.poi_centers) {
    put_double(out, center.lat_rad);
    put_double(out, center.lon_deg);
    put_double(out, center.cos_lat);
  }
  put_u64(out, u.stale_appended);
  put_u64(out, u.stale_evicted);
  put_u64(out, u.stale_points);

  put_bool(out, u.has_decision);
  put_u8(out, u.decision);
  put_string(out, u.winner);
  put_u64(out, u.searched_events);

  put_u64(out, u.events);
  put_u64(out, u.risk_transitions);
  put_u64(out, u.searches);
  put_u64(out, u.rechecks);
  put_u64(out, u.degraded);
  put_u64(out, u.last_touch);

  put_bool(out, u.quarantined);
  put_string(out, u.quarantine_reason);
  put_u64(out, u.dead_letters);
  put_bool(out, u.has_last_time);
  put_i64(out, u.last_time);
}

UserSnapshot get_user(Reader& in) {
  UserSnapshot u;
  u.user = in.get_string();
  u.window = get_records(in);

  u.heatmap_built = in.get_bool();
  u.heatmap_total = in.get_double();
  const std::size_t cells = in.get_count(16);
  u.heatmap_counts.reserve(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    geo::CellIndex cell;
    cell.ix = in.get_i32();
    cell.iy = in.get_i32();
    const double count = in.get_double();
    u.heatmap_counts.emplace_back(cell, count);
  }

  u.stays_init = in.get_bool();
  u.stay_origin_set = in.get_bool();
  u.stay_origin.lat = in.get_double();
  u.stay_origin.lon = in.get_double();
  if (u.stays_init) u.stays = get_visit_states(in);

  u.profiles_built = in.get_bool();
  const std::size_t markov = in.get_count(32);
  u.markov_states.reserve(markov);
  for (std::size_t i = 0; i < markov; ++i) {
    profiles::CompiledMarkovState state;
    state.center.lat_rad = in.get_double();
    state.center.lon_deg = in.get_double();
    state.center.cos_lat = in.get_double();
    state.weight = in.get_double();
    u.markov_states.push_back(state);
  }
  const std::size_t pois = in.get_count(24);
  u.poi_centers.reserve(pois);
  for (std::size_t i = 0; i < pois; ++i) {
    geo::TrigPoint center;
    center.lat_rad = in.get_double();
    center.lon_deg = in.get_double();
    center.cos_lat = in.get_double();
    u.poi_centers.push_back(center);
  }
  u.stale_appended = in.get_u64();
  u.stale_evicted = in.get_u64();
  u.stale_points = in.get_u64();

  u.has_decision = in.get_bool();
  u.decision = in.get_u8();
  if (u.decision > 1) in.fail("decision byte out of range");
  u.winner = in.get_string();
  u.searched_events = in.get_u64();

  u.events = in.get_u64();
  u.risk_transitions = in.get_u64();
  u.searches = in.get_u64();
  u.rechecks = in.get_u64();
  u.degraded = in.get_u64();
  u.last_touch = in.get_u64();

  u.quarantined = in.get_bool();
  u.quarantine_reason = in.get_string();
  if (!u.quarantined && !u.quarantine_reason.empty()) {
    in.fail("quarantine reason on a non-quarantined user");
  }
  u.dead_letters = in.get_u64();
  u.has_last_time = in.get_bool();
  u.last_time = in.get_i64();
  return u;
}

std::string encode_config_section(const SnapshotData& data) {
  std::string out;
  put_u64(out, data.context.seed);
  put_string(out, data.context.dataset);
  put_u64(out, data.context.total_events);
  put_u64(out, data.config.shards);
  put_i64(out, data.config.window_seconds);
  put_u64(out, data.config.max_points);
  put_u64(out, data.config.max_users_per_shard);
  put_u64(out, data.config.staleness_points);
  const ResilienceConfig& res = data.config.resilience;
  put_u8(out, static_cast<std::uint8_t>(res.on_bad_record));
  put_u64(out, res.max_pending_per_shard);
  put_u64(out, res.shed_high_watermark);
  put_u64(out, res.shed_low_watermark);
  // The slack cadence is decision-relevant mid-stream (the tier policy
  // keys on it), so it lives in the fingerprint; loop_autostart is
  // timing-only and excluded.
  put_u64(out, data.config.loop_slack);
  return out;
}

void decode_config_section(Reader& in, SnapshotData& data) {
  data.context.seed = in.get_u64();
  data.context.dataset = in.get_string();
  data.context.total_events = in.get_u64();
  data.config.shards = static_cast<std::size_t>(in.get_u64());
  data.config.window_seconds = in.get_i64();
  data.config.max_points = static_cast<std::size_t>(in.get_u64());
  data.config.max_users_per_shard = static_cast<std::size_t>(in.get_u64());
  data.config.staleness_points = static_cast<std::size_t>(in.get_u64());
  ResilienceConfig& res = data.config.resilience;
  const std::uint8_t policy = in.get_u8();
  if (policy > static_cast<std::uint8_t>(BadRecordPolicy::kQuarantine)) {
    in.fail("bad-record policy byte out of range");
  }
  res.on_bad_record = static_cast<BadRecordPolicy>(policy);
  res.max_pending_per_shard = static_cast<std::size_t>(in.get_u64());
  res.shed_high_watermark = static_cast<std::size_t>(in.get_u64());
  res.shed_low_watermark = static_cast<std::size_t>(in.get_u64());
  data.config.loop_slack = static_cast<std::size_t>(in.get_u64());
  in.expect_done();
}

std::string encode_stats_section(const SnapshotData& data) {
  std::string out;
  put_u64(out, data.stream_position);
  const StreamStats& s = data.stats;
  for (const std::uint64_t v :
       {s.events, s.decisions, s.exposed_events, s.protected_events,
        s.searches, s.rechecks, s.profile_refreshes, s.stay_updates,
        s.stay_rebuilds, s.heatmap_updates, s.evicted_points, s.evicted_users,
        s.lppm_applications, s.attack_invocations, s.index_prunes,
        s.exact_evals, s.index_rebuilds, s.checkpoints, s.checkpoint_bytes,
        s.checkpoint_failures, s.bad_records, s.dead_letters,
        s.quarantined_users, s.shed_decisions, s.degraded_batches,
        s.backpressure_events, s.quarantined_snapshots}) {
    put_u64(out, v);
  }
  put_u64(out, data.shard_clocks.size());
  for (const std::uint64_t clock : data.shard_clocks) put_u64(out, clock);
  put_u64(out, data.shard_shedding.size());
  for (const std::uint8_t latch : data.shard_shedding) put_u8(out, latch);
  return out;
}

void decode_stats_section(Reader& in, SnapshotData& data) {
  data.stream_position = in.get_u64();
  StreamStats& s = data.stats;
  for (std::uint64_t* field :
       {&s.events, &s.decisions, &s.exposed_events,
        &s.protected_events, &s.searches, &s.rechecks, &s.profile_refreshes,
        &s.stay_updates, &s.stay_rebuilds, &s.heatmap_updates,
        &s.evicted_points, &s.evicted_users, &s.lppm_applications,
        &s.attack_invocations, &s.index_prunes, &s.exact_evals,
        &s.index_rebuilds, &s.checkpoints, &s.checkpoint_bytes,
        &s.checkpoint_failures, &s.bad_records, &s.dead_letters,
        &s.quarantined_users, &s.shed_decisions, &s.degraded_batches,
        &s.backpressure_events, &s.quarantined_snapshots}) {
    *field = in.get_u64();
  }
  const std::size_t shards = in.get_count(8);
  data.shard_clocks.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    data.shard_clocks.push_back(in.get_u64());
  }
  const std::size_t latches = in.get_count(1);
  data.shard_shedding.reserve(latches);
  for (std::size_t i = 0; i < latches; ++i) {
    const std::uint8_t latch = in.get_u8();
    if (latch > 1) in.fail("shed latch byte out of range");
    data.shard_shedding.push_back(latch);
  }
  in.expect_done();
}

std::string encode_users_section(const SnapshotData& data) {
  std::string out;
  put_u64(out, data.users.size());
  for (const auto& user : data.users) put_user(out, user);
  return out;
}

void decode_users_section(Reader& in, SnapshotData& data) {
  const std::size_t count = in.get_count(1);
  data.users.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    data.users.push_back(get_user(in));
    if (i > 0 && !(data.users[i - 1].user < data.users[i].user)) {
      in.fail("users not strictly sorted by id");
    }
  }
  in.expect_done();
}

// ---- File helpers ----------------------------------------------------

/// Closes the wrapped descriptor on every exit path — fail points throw
/// from arbitrary protocol steps and must not leak descriptors.
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
  void close_now() {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
};

[[noreturn]] void throw_errno(const std::string& op, const std::string& path) {
  throw support::IoError(op + " '" + path + "' failed: " +
                         std::strerror(errno));
}

/// Parses `snapshot-<seq>.moodsnap`; nullopt for anything else.
std::optional<std::uint64_t> parse_sequence(const std::string& filename) {
  const std::string prefix = kFilePrefix;
  const std::string suffix = kSnapshotSuffix;
  if (filename.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (filename.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (filename.compare(filename.size() - suffix.size(), suffix.size(),
                       suffix) != 0) {
    return std::nullopt;
  }
  const std::string digits = filename.substr(
      prefix.size(), filename.size() - prefix.size() - suffix.size());
  if (digits.empty()) return std::nullopt;
  std::uint64_t seq = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return seq;
}

/// Snapshot (sequence, filename) pairs in `dir`, newest first.
std::vector<std::pair<std::uint64_t, std::string>> scan_snapshots(
    const std::string& dir) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    throw support::IoError("cannot read checkpoint directory '" + dir +
                           "': " + ec.message());
  }
  std::vector<std::pair<std::uint64_t, std::string>> found;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (const auto seq = parse_sequence(name)) found.emplace_back(*seq, name);
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return found;
}

/// Reads a whole snapshot file. Honors the snapshot.read.* fail points:
/// kTorn at snapshot.read.file returns only a prefix of the bytes — the
/// short-read case decode must reject.
std::string read_file(const std::string& path) {
  if (MOOD_FAIL_POINT("snapshot.read.open") == FailAction::kTorn) {
    throw support::IoError("fail point 'snapshot.read.open' injected an I/O "
                           "error (torn degraded to error)");
  }
  Fd fd{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  if (fd.fd < 0) throw_errno("open", path);
  struct stat st{};
  if (::fstat(fd.fd, &st) != 0) throw_errno("stat", path);
  std::string bytes;
  bytes.resize(static_cast<std::size_t>(st.st_size));
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ::ssize_t n =
        ::read(fd.fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("read", path);
    }
    if (n == 0) break;  // file shrank underneath us; decode will reject
    off += static_cast<std::size_t>(n);
  }
  bytes.resize(off);
  if (MOOD_FAIL_POINT("snapshot.read.file") == FailAction::kTorn) {
    bytes.resize(bytes.size() / 2);  // injected short read
  }
  return bytes;
}

void write_all(int fd, const char* data, std::size_t size,
               const std::string& path) {
  std::size_t off = 0;
  while (off < size) {
    const ::ssize_t n = ::write(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("write", path);
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

std::uint32_t snapshot_crc32(std::string_view bytes) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char b : bytes) {
    crc = table[(crc ^ static_cast<std::uint8_t>(b)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string encode_snapshot(const SnapshotData& data) {
  const std::array<std::pair<std::uint32_t, std::string>, kSectionCount>
      sections = {{{kSectionConfig, encode_config_section(data)},
                   {kSectionStats, encode_stats_section(data)},
                   {kSectionUsers, encode_users_section(data)}}};
  std::string out;
  out.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  put_u32(out, kSnapshotVersion);
  put_u32(out, kSectionCount);
  for (const auto& [id, payload] : sections) {
    put_u32(out, id);
    put_u64(out, payload.size());
    out.append(payload);
    put_u32(out, snapshot_crc32(payload));
  }
  return out;
}

SnapshotData decode_snapshot(std::string_view bytes) {
  Reader header(bytes, "header");
  if (bytes.size() < sizeof(kSnapshotMagic) + 8 ||
      bytes.compare(0, sizeof(kSnapshotMagic),
                    std::string_view(kSnapshotMagic,
                                     sizeof(kSnapshotMagic))) != 0) {
    throw SnapshotError("mood-snapshot/3: bad magic (not a snapshot file)");
  }
  header.skip(sizeof(kSnapshotMagic));
  const std::uint32_t version = header.get_u32();
  if (version != kSnapshotVersion) {
    throw SnapshotError("mood-snapshot/3: unsupported snapshot version " +
                        std::to_string(version));
  }
  const std::uint32_t section_count = header.get_u32();
  if (section_count != kSectionCount) {
    throw SnapshotError("mood-snapshot/3: expected " +
                        std::to_string(kSectionCount) + " sections, found " +
                        std::to_string(section_count));
  }

  SnapshotData data;
  bool seen[kSectionCount + 1] = {};
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::uint32_t id = header.get_u32();
    const std::uint64_t len = header.get_u64();
    if (len > header.remaining()) {
      throw SnapshotError("mood-snapshot/3: truncated section " +
                          std::to_string(id));
    }
    const std::string_view payload =
        bytes.substr(bytes.size() - header.remaining(), len);
    header.skip(len);
    const std::uint32_t stored_crc = header.get_u32();
    if (snapshot_crc32(payload) != stored_crc) {
      throw SnapshotError("mood-snapshot/3: CRC mismatch in section " +
                          std::to_string(id));
    }
    if (id < 1 || id > kSectionCount || seen[id]) {
      throw SnapshotError("mood-snapshot/3: unexpected section id " +
                          std::to_string(id));
    }
    seen[id] = true;
    switch (id) {
      case kSectionConfig: {
        Reader in(payload, "CONFIG section");
        decode_config_section(in, data);
        break;
      }
      case kSectionStats: {
        Reader in(payload, "STATS section");
        decode_stats_section(in, data);
        break;
      }
      case kSectionUsers: {
        Reader in(payload, "USERS section");
        decode_users_section(in, data);
        break;
      }
      default:
        break;
    }
  }
  header.expect_done();
  if (data.shard_clocks.size() != data.config.shards) {
    throw SnapshotError(
        "mood-snapshot/3: shard clock count does not match config");
  }
  if (data.shard_shedding.size() != data.config.shards) {
    throw SnapshotError(
        "mood-snapshot/3: shed latch count does not match config");
  }
  return data;
}

std::string write_snapshot_file(const std::string& dir,
                                const std::string& bytes) {
  MOOD_TRACE("snapshot.write");
  std::error_code ec;
  fs::create_directories(dir, ec);  // open() below reports real failures

  // Sequence before tmp write so a concurrent reader never sees the number
  // go backwards; the tmp file itself is invisible to list/read.
  std::uint64_t seq = 1;
  {
    std::error_code scan_ec;
    if (fs::directory_iterator probe(dir, scan_ec); !scan_ec) {
      for (const auto& [existing, name] : scan_snapshots(dir)) {
        seq = std::max(seq, existing + 1);
        (void)name;
      }
    }
  }

  const std::string tmp_path = dir + "/" + kTmpName;
  if (MOOD_FAIL_POINT("snapshot.write.open") == FailAction::kTorn) {
    throw support::IoError("fail point 'snapshot.write.open' injected an I/O "
                           "error (torn degraded to error)");
  }
  Fd fd{::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0644)};
  if (fd.fd < 0) throw_errno("open", tmp_path);

  // The one site that honors kTorn literally: commit half the payload to
  // disk, then fail — the partial tmp file stays behind, exactly the disk
  // state a process killed mid-write leaves.
  if (MOOD_FAIL_POINT("snapshot.write.payload") == FailAction::kTorn) {
    write_all(fd.fd, bytes.data(), bytes.size() / 2, tmp_path);
    ::fsync(fd.fd);
    throw support::IoError("fail point 'snapshot.write.payload' tore the "
                           "write after " +
                           std::to_string(bytes.size() / 2) + " bytes");
  }
  write_all(fd.fd, bytes.data(), bytes.size(), tmp_path);

  if (MOOD_FAIL_POINT("snapshot.write.fsync") == FailAction::kTorn) {
    throw support::IoError("fail point 'snapshot.write.fsync' injected an "
                           "I/O error (torn degraded to error)");
  }
  if (::fsync(fd.fd) != 0) throw_errno("fsync", tmp_path);
  fd.close_now();

  const std::string final_path =
      dir + "/" + kFilePrefix + std::to_string(seq) + kSnapshotSuffix;
  if (MOOD_FAIL_POINT("snapshot.write.rename") == FailAction::kTorn) {
    throw support::IoError("fail point 'snapshot.write.rename' injected an "
                           "I/O error (torn degraded to error)");
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    throw_errno("rename", final_path);
  }

  // Make the rename itself durable. A failure here leaves a fully valid,
  // readable snapshot whose directory entry might not survive a power
  // loss — the caller records it as a checkpoint failure and the next
  // cadence retries.
  if (MOOD_FAIL_POINT("snapshot.write.commit") == FailAction::kTorn) {
    throw support::IoError("fail point 'snapshot.write.commit' injected an "
                           "I/O error (torn degraded to error)");
  }
  {
    Fd dirfd{::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC)};
    if (dirfd.fd < 0) throw_errno("open", dir);
    if (::fsync(dirfd.fd) != 0) throw_errno("fsync", dir);
  }

  // Prune to the newest kKeepSnapshots (best-effort; stale extras are
  // harmless — restore prefers the newest valid file anyway).
  const auto files = scan_snapshots(dir);
  for (std::size_t i = kKeepSnapshots; i < files.size(); ++i) {
    std::error_code rm_ec;
    fs::remove(dir + "/" + files[i].second, rm_ec);
    if (rm_ec) {
      support::log_warn("checkpoint: could not prune ", files[i].second, ": ",
                        rm_ec.message());
    }
  }
  return final_path;
}

std::vector<std::string> list_snapshot_files(const std::string& dir) {
  std::vector<std::string> paths;
  for (const auto& [seq, name] : scan_snapshots(dir)) {
    (void)seq;
    paths.push_back(dir + "/" + name);
  }
  return paths;
}

SnapshotData read_latest_snapshot(const std::string& dir,
                                  std::size_t* quarantined_files) {
  MOOD_TRACE("snapshot.read");
  const auto files = list_snapshot_files(dir);
  for (const auto& path : files) {
    try {
      return decode_snapshot(read_file(path));
    } catch (const SnapshotError& e) {
      // Structurally bad (torn write, bit rot): rename it aside for
      // forensics instead of leaving a known-bad candidate in the
      // rotation. Best-effort — a failed rename degrades to the old
      // skip-and-warn behavior.
      const std::string aside = path + ".quarantined";
      std::error_code ec;
      fs::rename(path, aside, ec);
      if (ec) {
        support::log_warn("checkpoint: skipping corrupt '", path,
                          "' (could not quarantine: ", ec.message(),
                          "): ", e.what());
      } else {
        support::log_warn("checkpoint: quarantined corrupt '", path, "' -> '",
                          aside, "': ", e.what());
        if (quarantined_files != nullptr) ++*quarantined_files;
      }
    } catch (const support::IoError& e) {
      // Unreadable is not the same as corrupt — the bytes might be fine
      // next time (transient I/O) — so skip without the rename.
      support::log_warn("checkpoint: skipping unreadable '", path,
                        "': ", e.what());
    }
  }
  throw SnapshotError("no usable snapshot in '" + dir + "' (" +
                      std::to_string(files.size()) + " candidate file(s))");
}

}  // namespace mood::stream
