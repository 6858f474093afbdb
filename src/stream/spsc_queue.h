#pragma once

// Single-producer single-consumer lock-free ring buffer — the ingest lane
// between the gateway's producer thread and one per-shard worker
// (engine.h). One queue per shard keeps the contract strictly SPSC: the
// thread calling StreamEngine::ingest is the only pusher, the shard's
// worker the only popper.
//
// Memory-ordering contract (pinned by tests/spsc_queue_test.cpp, which
// runs under ASan/UBSan in CI and TSan locally):
//   - try_push stores the slot, then publishes with a release store of
//     tail_; try_pop acquires tail_ before reading the slot. The pop-side
//     release of head_ / push-side acquire of head_ mirror it so a slot is
//     never overwritten before the consumer finished moving out of it.
//   - head_ and tail_ live on their own cache lines (alignas) with a
//     relaxed mirror of the opposing index next to each, so the steady
//     state is one cache-line ping per wrap, not per element.
//
// Capacity is rounded up to a power of two so wrap is a mask, not a mod;
// a capacity with no power of two above it in size_t is rejected.
// The ring holds at most capacity() elements (indices are monotonically
// increasing 64-bit counters, so the classic "one empty slot" tax does
// not apply).

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/error.h"

namespace mood::stream {

template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(std::size_t min_capacity) {
    constexpr std::size_t kMaxCapacity = std::bit_floor(SIZE_MAX);
    support::expects(min_capacity > 0 && min_capacity <= kMaxCapacity,
                     "SpscQueue capacity must be in [1, 2^(bits-1)]");
    slots_.resize(std::bit_ceil(min_capacity));
    mask_ = slots_.size() - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  std::size_t capacity() const { return slots_.size(); }

  /// Producer side. Moves `value` into the ring and returns true, or
  /// returns false (leaving `value` untouched) when the ring is full.
  bool try_push(T&& value) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ >= slots_.size()) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ >= slots_.size()) return false;
    }
    slots_[static_cast<std::size_t>(tail) & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Moves the oldest element into `out` and returns true,
  /// or returns false when the ring is empty.
  bool try_pop(T& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    out = std::move(slots_[static_cast<std::size_t>(head) & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Approximate element count; exact only when called from a thread that
  /// is both producer and consumer (e.g. after the worker has quiesced).
  std::size_t size_approx() const {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<std::size_t>(tail - head) : 0;
  }

  bool empty_approx() const { return size_approx() == 0; }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  // Consumer-owned line: head_ plus the consumer's stale view of tail_.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::uint64_t tail_cache_ = 0;
  // Producer-owned line: tail_ plus the producer's stale view of head_.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t head_cache_ = 0;
  // Pad so the producer line does not share with whatever follows.
  alignas(64) std::byte pad_[64] = {};
};

}  // namespace mood::stream
