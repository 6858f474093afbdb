#pragma once

/// \file trace.h
/// Span-style tracing for the streaming pipeline: a bounded ring of
/// fixed-size span records dumped as Chrome `trace_event` JSON
/// (load the file in Perfetto / chrome://tracing).
///
/// Usage:
///   MOOD_TRACE("stream.decide", {.shard = s, .user = id});
///   MOOD_TRACE("stream.finish");
/// The span covers the enclosing scope (RAII). Span names must be
/// string literals (or otherwise outlive the session) — records store
/// the pointer, never a copy.
///
/// Cost contract:
///  - Tracing disabled at runtime (the default): one relaxed atomic
///    load per span, no clock reads, no allocation.
///  - Tracing enabled: two steady_clock reads plus one relaxed
///    fetch_add claiming a preallocated slot. Memory is bounded by the
///    capacity passed to TraceSession::start(); once full, new spans
///    are dropped and counted (the trace keeps the run's head, the
///    dump records how many spans were shed).
///  - Compiled out (-DMOOD_DISABLE_TRACING): MOOD_TRACE expands to
///    nothing; the tag expressions are not evaluated.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

namespace mood::telemetry {

/// Optional tags attached to a span; defaulted fields are omitted from
/// the dumped JSON.
struct SpanTags {
  static constexpr std::uint32_t kNoShard = 0xffffffffu;
  std::uint32_t shard = kNoShard;
  std::string_view user{};
};

/// One completed span in the ring. Fixed size: the user tag is a
/// truncated copy so records never own heap memory.
struct SpanRecord {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t shard = SpanTags::kNoShard;
  std::uint32_t thread = 0;
  char user[24] = {};
};

/// Process-wide trace collector. start()/stop() bracket a recording
/// session; spans emitted while stopped cost one atomic load.
class TraceSession {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  static TraceSession& instance();

  /// Begin recording into a fresh ring of `capacity` spans. Must not
  /// be called while spans are in flight (wire it before the replay
  /// loop starts).
  void start(std::size_t capacity = kDefaultCapacity);
  /// Stop recording; the collected spans stay available for dump().
  void stop();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Claim a slot and store the record; drops (and counts) once the
  /// ring is full. Called by ScopedSpan, not user code.
  void record(const SpanRecord& span) noexcept;

  std::uint64_t span_count() const noexcept;
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Nanoseconds since the session started (span timestamps are
  /// relative to this origin).
  std::uint64_t now_ns() const noexcept;

  /// Dump the session as Chrome trace_event JSON ("X" complete events,
  /// microsecond timestamps; tid = shard when tagged, else a stable
  /// per-OS-thread id offset by 1000).
  void dump_chrome_json(std::ostream& out) const;

 private:
  TraceSession() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_{0};
  std::vector<SpanRecord> ring_;
  std::atomic<std::uint64_t> dropped_{0};
  std::chrono::steady_clock::time_point origin_{};
};

/// RAII span: measures construction→destruction and records it into
/// the session ring. Use through MOOD_TRACE, not directly.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, SpanTags tags = {}) noexcept;
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecord record_{};
  bool active_ = false;
};

namespace detail {
/// Stable small id for the calling OS thread (for the tid field of
/// untagged spans).
std::uint32_t thread_slot() noexcept;
}  // namespace detail

}  // namespace mood::telemetry

#define MOOD_TRACE_CONCAT_INNER(a, b) a##b
#define MOOD_TRACE_CONCAT(a, b) MOOD_TRACE_CONCAT_INNER(a, b)

#ifdef MOOD_DISABLE_TRACING
/// Compiled out: no object, tag expressions never evaluated.
#define MOOD_TRACE(...) ((void)0)
#else
#define MOOD_TRACE(...)                                      \
  const ::mood::telemetry::ScopedSpan MOOD_TRACE_CONCAT(     \
      mood_trace_span_, __LINE__) {                          \
    __VA_ARGS__                                              \
  }
#endif
