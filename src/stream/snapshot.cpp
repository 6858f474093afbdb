#include "stream/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <concepts>
#include <cstring>
#include <filesystem>
#include <optional>
#include <system_error>
#include <type_traits>
#include <utility>

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

/// Every decode error names the format, so a version bump edits one line.
[[noreturn]] void fail_format(const std::string& detail) {
  throw SnapshotError("mood-snapshot/" + std::to_string(kSnapshotVersion) +
                      ": " + detail);
}

// ---- Codecs ----------------------------------------------------------
// Each record's layout is written once, as a walk_* function templated on
// the direction. Writer (encode) and Reader (decode) share one vocabulary:
//   io(field)                     a fixed-width field;
//   io_enum(field, max, detail)   a one-byte enumeration;
//   seq(vector, min_bytes, each)  a u64 count, then `each` per element;
//   check(cond, detail)           a decode-only invariant.
// Integers are fixed-width little-endian, byte by byte so the wire format
// is identical on any host; doubles travel as their IEEE-754 bit pattern,
// bools as one byte, strings as u64 length + raw bytes.

static_assert(sizeof(std::size_t) == 8, "size_t fields travel as u64");

class Writer {
 public:
  static constexpr bool kEncode = true;

  explicit Writer(std::string& out) : out_(out) {}

  template <std::integral T>
  void io(T v) {
    const auto u = static_cast<std::make_unsigned_t<T>>(v);
    char bytes[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<char>((u >> (8 * i)) & 0xFF);
    }
    out_.append(bytes, sizeof(T));
  }
  void io(bool v) { io(static_cast<std::uint8_t>(v ? 1 : 0)); }
  void io(double v) { io(std::bit_cast<std::uint64_t>(v)); }
  void io(const std::string& s) {
    io(static_cast<std::uint64_t>(s.size()));
    out_.append(s);
  }

  template <typename E>
  void io_enum(E v, E /*max*/, const char* /*detail*/) {
    io(static_cast<std::uint8_t>(v));
  }

  template <typename T, typename Each>
  void seq(const std::vector<T>& v, std::size_t /*min_element_bytes*/,
           Each each) {
    io(static_cast<std::uint64_t>(v.size()));
    for (const T& element : v) each(element);
  }

  void check(bool /*cond*/, const char* /*detail*/) {}

 private:
  std::string& out_;
};

/// Bounds-checked sequential reader over one payload. Every overrun or
/// malformed value throws SnapshotError — decode never returns a partial
/// document.
class Reader {
 public:
  static constexpr bool kEncode = false;

  Reader(std::string_view bytes, const char* what)
      : pos_(bytes.data()), end_(bytes.data() + bytes.size()), what_(what) {}

  template <std::integral T>
  void io(T& v) {
    need(sizeof(T));
    std::uint64_t u = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      u |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(pos_[i]))
           << (8 * i);
    }
    pos_ += sizeof(T);
    v = static_cast<T>(u);
  }
  void io(bool& v) {
    std::uint8_t b = 0;
    io(b);
    check(b <= 1, "boolean byte out of range");
    v = b != 0;
  }
  void io(double& v) {
    std::uint64_t bits = 0;
    io(bits);
    v = std::bit_cast<double>(bits);
  }
  void io(std::string& s) {
    std::uint64_t len = 0;
    io(len);
    s = std::string(take(len));
  }

  template <typename E>
  void io_enum(E& v, E max, const char* detail) {
    std::uint8_t b = 0;
    io(b);
    check(b <= static_cast<std::uint8_t>(max), detail);
    v = static_cast<E>(b);
  }

  /// The count is validated against the bytes actually left, so a corrupt
  /// length cannot drive a giant allocation before the next bounds check
  /// fires.
  template <typename T, typename Each>
  void seq(std::vector<T>& v, std::size_t min_element_bytes, Each each) {
    std::uint64_t count = 0;
    io(count);
    check(count <= remaining() / min_element_bytes,
          "element count exceeds remaining payload");
    v.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) each(v.emplace_back());
  }

  void check(bool cond, const char* detail) const {
    if (!cond) fail(detail);
  }

  /// The next `n` bytes, consumed.
  std::string_view take(std::uint64_t n) {
    need(n);
    const std::string_view out(pos_, static_cast<std::size_t>(n));
    pos_ += n;
    return out;
  }

  [[nodiscard]] std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - pos_);
  }

  void expect_done() const { check(pos_ == end_, "trailing bytes"); }

  [[noreturn]] void fail(const char* detail) const {
    fail_format(std::string("malformed ") + what_ + ": " + detail);
  }

 private:
  void need(std::uint64_t n) const {
    if (n > remaining()) fail("truncated payload");
  }

  // A cursor of pointers, not an index: the walks store integers through
  // references, which the compiler must assume can alias a size_t member.
  const char* pos_;
  const char* end_;
  const char* what_;
};

/// What a walk visits: a const record when encoding, a mutable one when
/// decoding.
template <typename Codec, typename T>
using Field = std::conditional_t<Codec::kEncode, const T, T>;

// ---- Field walks -----------------------------------------------------

template <typename Codec>
void walk_record(Codec& c, Field<Codec, mobility::Record>& r) {
  c.io(r.position.lat);
  c.io(r.position.lon);
  c.io(r.time);
}

template <typename Codec>
void walk_user(Codec& c, Field<Codec, UserSnapshot>& u) {
  c.io(u.user);
  c.seq(u.window, 24, [&](auto& record) { walk_record(c, record); });
  c.io(u.stay_origin.lat);
  c.io(u.stay_origin.lon);

  c.io(u.has_decision);
  c.io_enum(u.decision, std::uint8_t{1}, "decision byte out of range");
  c.io(u.winner);
  c.io(u.searched_events);

  c.io(u.events);
  c.io(u.risk_transitions);
  c.io(u.searches);
  c.io(u.rechecks);
  c.io(u.degraded);
  c.io(u.last_touch);

  c.io(u.quarantined);
  c.io(u.quarantine_reason);
  c.check(u.quarantined || u.quarantine_reason.empty(),
          "quarantine reason on a non-quarantined user");
  c.io(u.dead_letters);
  c.io(u.has_last_time);
  c.io(u.last_time);
}

template <typename Codec>
void walk_config(Codec& c, Field<Codec, SnapshotData>& data) {
  c.io(data.context.seed);
  c.io(data.context.dataset);
  c.io(data.context.total_events);
  c.io(data.config.shards);
  c.io(data.config.window_seconds);
  c.io(data.config.max_points);
  c.io(data.config.max_users_per_shard);
  auto& res = data.config.resilience;
  c.io_enum(res.on_bad_record, BadRecordPolicy::kQuarantine,
            "bad-record policy byte out of range");
  c.io(res.max_pending_per_shard);
  c.io(res.shed_high_watermark);
  c.io(res.shed_low_watermark);
  // The slack cadence is decision-relevant mid-stream (the tier policy
  // keys on it), so it lives in the fingerprint; loop_autostart is
  // timing-only and excluded.
  c.io(data.config.loop_slack);
}

template <typename Codec>
void walk_stats(Codec& c, Field<Codec, SnapshotData>& data) {
  c.io(data.stream_position);
  for (const StreamStatField& field : kStreamStatFields) {
    c.io(data.stats.*field.member);
  }
  c.seq(data.shard_clocks, 8, [&](auto& clock) { c.io(clock); });
  c.seq(data.shard_shedding, 1, [&](auto& latch) {
    c.io_enum(latch, std::uint8_t{1}, "shed latch byte out of range");
  });
}

template <typename Codec>
void walk_users(Codec& c, Field<Codec, SnapshotData>& data) {
  c.seq(data.users, 1, [&](auto& user) {
    walk_user(c, user);
    const auto i = static_cast<std::size_t>(&user - data.users.data());
    c.check(i == 0 || data.users[i - 1].user < user.user,
            "users not strictly sorted by id");
  });
}

/// Section payloads by id; the names label decode errors.
constexpr const char* kSectionNames[kSectionCount + 1] = {
    nullptr, "CONFIG section", "STATS section", "USERS section"};

template <typename Codec>
void walk_section(Codec& c, std::uint32_t id,
                  Field<Codec, SnapshotData>& data) {
  switch (id) {
    case kSectionConfig:
      walk_config(c, data);
      break;
    case kSectionStats:
      walk_stats(c, data);
      break;
    case kSectionUsers:
      walk_users(c, data);
      break;
  }
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
  std::string out;
  out.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  Writer header(out);
  header.io(kSnapshotVersion);
  header.io(kSectionCount);
  for (std::uint32_t id = kSectionConfig; id <= kSectionCount; ++id) {
    std::string payload;
    Writer section(payload);
    walk_section(section, id, data);
    header.io(id);
    header.io(static_cast<std::uint64_t>(payload.size()));
    out.append(payload);
    header.io(snapshot_crc32(payload));
  }
  return out;
}

SnapshotData decode_snapshot(std::string_view bytes) {
  if (bytes.size() < sizeof(kSnapshotMagic) + 8 ||
      bytes.compare(0, sizeof(kSnapshotMagic),
                    std::string_view(kSnapshotMagic,
                                     sizeof(kSnapshotMagic))) != 0) {
    fail_format("bad magic (not a snapshot file)");
  }
  Reader header(bytes, "header");
  (void)header.take(sizeof(kSnapshotMagic));
  std::uint32_t version = 0;
  header.io(version);
  if (version != kSnapshotVersion) {
    fail_format("unsupported snapshot version " + std::to_string(version));
  }
  std::uint32_t section_count = 0;
  header.io(section_count);
  if (section_count != kSectionCount) {
    fail_format("expected " + std::to_string(kSectionCount) +
                " sections, found " + std::to_string(section_count));
  }

  SnapshotData data;
  bool seen[kSectionCount + 1] = {};
  for (std::uint32_t i = 0; i < section_count; ++i) {
    std::uint32_t id = 0;
    std::uint64_t len = 0;
    header.io(id);
    header.io(len);
    if (len > header.remaining()) {
      fail_format("truncated section " + std::to_string(id));
    }
    const std::string_view payload = header.take(len);
    std::uint32_t stored_crc = 0;
    header.io(stored_crc);
    if (snapshot_crc32(payload) != stored_crc) {
      fail_format("CRC mismatch in section " + std::to_string(id));
    }
    if (id < 1 || id > kSectionCount || seen[id]) {
      fail_format("unexpected section id " + std::to_string(id));
    }
    seen[id] = true;
    Reader in(payload, kSectionNames[id]);
    walk_section(in, id, data);
    in.expect_done();
  }
  header.expect_done();
  if (data.shard_clocks.size() != data.config.shards) {
    fail_format("shard clock count does not match config");
  }
  if (data.shard_shedding.size() != data.config.shards) {
    fail_format("shed latch count does not match config");
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
