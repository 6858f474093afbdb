#include "telemetry/trace.h"

#include <cstdio>
#include <cstring>

#include "support/error.h"

namespace mood::telemetry {

namespace detail {

std::uint32_t thread_slot() noexcept {
  static std::atomic<std::uint32_t> next_slot{0};
  thread_local const std::uint32_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace detail

TraceSession& TraceSession::instance() {
  static TraceSession session;
  return session;
}

void TraceSession::start(std::size_t capacity) {
  support::expects(capacity > 0, "trace capacity must be positive");
  support::expects(!enabled(), "trace session already started");
  ring_.assign(capacity, SpanRecord{});
  next_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  origin_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_release);
}

void TraceSession::stop() { enabled_.store(false, std::memory_order_release); }

std::uint64_t TraceSession::now_ns() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count());
}

void TraceSession::record(const SpanRecord& span) noexcept {
  // Drop-newest once full: slots are claimed with one fetch_add, never
  // reused, so concurrent writers cannot collide on a slot and memory
  // stays bounded at the capacity chosen in start(). The trace keeps
  // the head of the run; dropped() reports what was shed.
  const std::uint64_t index = next_.fetch_add(1, std::memory_order_relaxed);
  if (index >= ring_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ring_[index] = span;
}

std::uint64_t TraceSession::span_count() const noexcept {
  const std::uint64_t claimed = next_.load(std::memory_order_relaxed);
  return claimed < ring_.size() ? claimed : ring_.size();
}

namespace {

void append_json_string(std::string& out, std::string_view text) {
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

void TraceSession::dump_chrome_json(std::ostream& out) const {
  const std::uint64_t spans = span_count();
  out << "{\"traceEvents\":[";
  std::string line;
  for (std::uint64_t i = 0; i < spans; ++i) {
    const SpanRecord& span = ring_[static_cast<std::size_t>(i)];
    line.clear();
    if (i > 0) line += ",";
    line += "\n{\"name\":";
    append_json_string(line, span.name != nullptr ? span.name : "?");
    line += ",\"cat\":\"mood\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    // Perfetto rows group by tid: shard-tagged spans land on the shard
    // row, untagged spans on a per-OS-thread row offset by 1000.
    line += std::to_string(span.shard != SpanTags::kNoShard
                               ? span.shard
                               : 1000 + span.thread);
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), ",\"ts\":%.3f,\"dur\":%.3f",
                  double(span.start_ns) / 1e3, double(span.dur_ns) / 1e3);
    line += buffer;
    line += ",\"args\":{";
    bool first = true;
    const auto arg = [&](const char* key, std::string_view value,
                         bool quoted) {
      if (!first) line += ",";
      first = false;
      line += "\"";
      line += key;
      line += "\":";
      if (quoted) {
        append_json_string(line, value);
      } else {
        line += value;
      }
    };
    if (span.shard != SpanTags::kNoShard) {
      arg("shard", std::to_string(span.shard), false);
    }
    if (span.user[0] != '\0') {
      arg("user", std::string_view(span.user,
                                   ::strnlen(span.user, sizeof(span.user))),
          true);
    }
    line += "}}";
    out << line;
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans\":\""
      << spans << "\",\"dropped\":\"" << dropped() << "\"}}\n";
}

ScopedSpan::ScopedSpan(const char* name, SpanTags tags) noexcept {
  TraceSession& session = TraceSession::instance();
  if (!session.enabled()) return;
  active_ = true;
  record_.name = name;
  record_.shard = tags.shard;
  record_.thread = detail::thread_slot();
  if (!tags.user.empty()) {
    const std::size_t n =
        tags.user.size() < sizeof(record_.user) - 1 ? tags.user.size()
                                                    : sizeof(record_.user) - 1;
    std::memcpy(record_.user, tags.user.data(), n);
    record_.user[n] = '\0';
  }
  record_.start_ns = session.now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  TraceSession& session = TraceSession::instance();
  // A span that started inside the session still records if stop()
  // raced it; the ring is never deallocated while stopped, only on the
  // next start(), so this is safe.
  const std::uint64_t end = session.now_ns();
  record_.dur_ns = end > record_.start_ns ? end - record_.start_ns : 0;
  session.record(record_);
}

}  // namespace mood::telemetry
