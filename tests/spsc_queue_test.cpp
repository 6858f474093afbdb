// Unit suite for the loop-engine ingest ring (stream/spsc_queue.h): the
// single-threaded boundary contract (capacity rounding, wrap, full,
// empty, move-only payloads) plus a two-thread stress run that pins the
// acquire/release contract with element-count and checksum invariants.
// CI runs this under the ASan/UBSan preset; run it under TSan locally
// (-DCMAKE_CXX_FLAGS=-fsanitize=thread) to check the ordering proper.

#include "stream/spsc_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "support/error.h"

namespace mood::stream {
namespace {

TEST(SpscQueueTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscQueue<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscQueue<int>(1000).capacity(), 1024u);
  EXPECT_EQ(SpscQueue<int>(1024).capacity(), 1024u);
  EXPECT_THROW(SpscQueue<int>(0), support::Error);
}

TEST(SpscQueueTest, CapacityWithNoPowerOfTwoAboveIsRejected) {
  // Rounding SIZE_MAX up would wrap to zero; it must fail fast, not spin.
  EXPECT_THROW(SpscQueue<int>(SIZE_MAX), support::PreconditionError);
  EXPECT_THROW(SpscQueue<int>(SIZE_MAX / 2 + 2), support::PreconditionError);
}

TEST(SpscQueueTest, PopOnEmptyFailsWithoutTouchingOutput) {
  SpscQueue<int> queue(4);
  int out = 42;
  EXPECT_TRUE(queue.empty_approx());
  EXPECT_FALSE(queue.try_pop(out));
  EXPECT_EQ(out, 42);
}

TEST(SpscQueueTest, PushFailsWhenFullAndPreservesValue) {
  SpscQueue<std::unique_ptr<int>> queue(2);
  ASSERT_TRUE(queue.try_push(std::make_unique<int>(1)));
  ASSERT_TRUE(queue.try_push(std::make_unique<int>(2)));
  auto extra = std::make_unique<int>(3);
  EXPECT_FALSE(queue.try_push(std::move(extra)));
  // A failed push must not consume the value: the producer retries with it.
  ASSERT_NE(extra, nullptr);
  EXPECT_EQ(*extra, 3);
  EXPECT_EQ(queue.size_approx(), 2u);
}

TEST(SpscQueueTest, FifoOrderAcrossManyWraps) {
  SpscQueue<std::uint64_t> queue(8);
  std::uint64_t next_pop = 0;
  // 10k elements through a capacity-8 ring exercises every wrap offset.
  for (std::uint64_t next_push = 0; next_push < 10000;) {
    if (queue.try_push(std::uint64_t(next_push))) {
      ++next_push;
      continue;
    }
    std::uint64_t out = 0;
    ASSERT_TRUE(queue.try_pop(out));
    EXPECT_EQ(out, next_pop++);
  }
  std::uint64_t out = 0;
  while (queue.try_pop(out)) EXPECT_EQ(out, next_pop++);
  EXPECT_EQ(next_pop, 10000u);
  EXPECT_TRUE(queue.empty_approx());
}

TEST(SpscQueueTest, FillDrainBoundaries) {
  SpscQueue<int> queue(4);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(queue.try_push(int(i)));
    EXPECT_FALSE(queue.try_push(99));
    EXPECT_EQ(queue.size_approx(), 4u);
    for (int i = 0; i < 4; ++i) {
      int out = -1;
      ASSERT_TRUE(queue.try_pop(out));
      EXPECT_EQ(out, i);
    }
    int out = -1;
    EXPECT_FALSE(queue.try_pop(out));
  }
}

TEST(SpscQueueTest, MoveOnlyPayloadsSurviveTransit) {
  SpscQueue<std::unique_ptr<std::vector<int>>> queue(2);
  ASSERT_TRUE(queue.try_push(
      std::make_unique<std::vector<int>>(std::vector<int>{1, 2, 3})));
  std::unique_ptr<std::vector<int>> out;
  ASSERT_TRUE(queue.try_pop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->size(), 3u);
}

// Two-thread stress: the producer pushes a deterministic sequence, the
// consumer sums and counts everything it pops. Element count and checksum
// must both survive; under TSan this also proves the release/acquire
// pairing publishes slot contents, under ASan/UBSan it proves no slot is
// read before it was written or after it was reclaimed.
TEST(SpscQueueTest, TwoThreadStressKeepsCountAndChecksum) {
  constexpr std::uint64_t kElements = 200000;
  // Small capacity maximises wrap pressure and full/empty collisions.
  SpscQueue<std::uint64_t> queue(16);

  std::uint64_t popped = 0;
  std::uint64_t checksum = 0;
  std::uint64_t last = 0;
  bool ordered = true;
  std::thread consumer([&] {
    while (popped < kElements) {
      std::uint64_t value = 0;
      if (!queue.try_pop(value)) {
        std::this_thread::yield();
        continue;
      }
      // The sequence is 1..N, so order and uniqueness collapse into one
      // monotonicity check.
      ordered = ordered && value == last + 1;
      last = value;
      checksum += value * 2654435761u;
      ++popped;
    }
  });

  std::uint64_t expected_checksum = 0;
  for (std::uint64_t i = 1; i <= kElements; ++i) {
    expected_checksum += i * 2654435761u;
    while (!queue.try_push(std::uint64_t(i))) std::this_thread::yield();
  }
  consumer.join();

  EXPECT_TRUE(ordered);
  EXPECT_EQ(popped, kElements);
  EXPECT_EQ(checksum, expected_checksum);
  EXPECT_TRUE(queue.empty_approx());
}

}  // namespace
}  // namespace mood::stream
