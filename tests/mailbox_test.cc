// SPSC mailbox + doorbell unit and stress tests (src/rt/mailbox.h).
//
//  * capacity: rounds up to a power of two; TryPush fails (item untouched) on a
//    full ring and recovers after one pop — the backpressure contract the
//    threaded runtime's deadlock-freedom discipline is built on — also when
//    the ring spans many storage blocks;
//  * storage follows occupancy: allocated slots stay within one block of the
//    peak depth, and draining and refilling to that depth allocates nothing;
//  * slot residency: items move through resident slots across many wraps with
//    payloads intact (the allocation-free pin for this path lives in
//    alloc_test, which counts heap traffic through the same cycle);
//  * FIFO under real concurrency: a producer thread and a consumer thread move
//    a large sequenced stream through a small ring; order and completeness
//    must survive the backpressure-induced retries on both sides, and bursts
//    that climb across several blocks and drain to zero must not lose or
//    reorder an item while the producer grows the block cycle;
//  * doorbell: Ring wakes a consumer parked on its fd; a ring while disarmed
//    is swallowed (that is the point — the armed flag makes the common awake
//    case syscall-free, and the consumer's arm-then-recheck covers the gap).
#include <gtest/gtest.h>
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/rt/mailbox.h"

namespace rt {
namespace {

// Parks on the bell's fd the way a worker's epoll_wait does: true if rung
// within timeout_ms. Disarms on return.
bool ParkOn(Doorbell& bell, int timeout_ms) {
  struct pollfd pfd = {bell.fd(), POLLIN, 0};
  int rc = poll(&pfd, 1, timeout_ms);
  bell.Disarm();
  if (rc > 0) {
    bell.Drain();
  }
  return rc > 0;
}

TEST(MailboxTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(Mailbox<int>(1).capacity(), 1u);
  EXPECT_EQ(Mailbox<int>(2).capacity(), 2u);
  EXPECT_EQ(Mailbox<int>(5).capacity(), 8u);
  EXPECT_EQ(Mailbox<int>(8).capacity(), 8u);
  EXPECT_EQ(Mailbox<int>(8192).capacity(), 8192u);
}

TEST(MailboxTest, PushFailsWhenFullAndRecoversAfterPop) {
  Mailbox<int> box(4);
  for (int i = 0; i < 4; i++) {
    int v = i;
    ASSERT_TRUE(box.TryPush(v)) << "push " << i;
  }
  int overflow = 99;
  EXPECT_FALSE(box.TryPush(overflow));
  EXPECT_EQ(overflow, 99);  // a failed push leaves the item untouched
  EXPECT_EQ(box.SizeApprox(), 4u);

  int out = -1;
  ASSERT_TRUE(box.TryPop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(box.TryPush(overflow));  // one pop frees exactly one slot

  for (int expected : {1, 2, 3, 99}) {
    ASSERT_TRUE(box.TryPop(out));
    EXPECT_EQ(out, expected);
  }
  EXPECT_FALSE(box.TryPop(out));
  EXPECT_TRUE(box.Empty());
}

// The bound is exact on a ring far larger than one block: 8192 items fit, the
// 8193rd is refused untouched, and one pop admits exactly one more.
TEST(MailboxTest, ExactBoundAcrossBlocks) {
  Mailbox<uint64_t> box(8192);
  ASSERT_GT(box.capacity(), box.block_slots());
  for (uint64_t i = 0; i < 8192; i++) {
    uint64_t v = i;
    ASSERT_TRUE(box.TryPush(v)) << "push " << i;
  }
  uint64_t overflow = 99999;
  EXPECT_FALSE(box.TryPush(overflow));
  EXPECT_EQ(overflow, 99999u);
  EXPECT_EQ(box.SizeApprox(), 8192u);

  uint64_t out = 0;
  ASSERT_TRUE(box.TryPop(out));
  EXPECT_EQ(out, 0u);
  EXPECT_TRUE(box.TryPush(overflow));
  uint64_t another = 7;
  EXPECT_FALSE(box.TryPush(another));
  EXPECT_EQ(another, 7u);

  for (uint64_t expected = 1; expected < 8192; expected++) {
    ASSERT_TRUE(box.TryPop(out));
    ASSERT_EQ(out, expected);
  }
  ASSERT_TRUE(box.TryPop(out));
  EXPECT_EQ(out, 99999u);
  EXPECT_FALSE(box.TryPop(out));
}

// Storage follows occupancy: with k items in flight a capacity-8192 ring owns
// at most k rounded up to a block plus one block, and draining to zero and
// refilling to k (which shifts where the items sit in the block cycle) never
// allocates more.
TEST(MailboxTest, StorageFollowsOccupancy) {
  for (size_t k : {0u, 1u, 255u, 256u, 257u, 1000u, 2220u, 8192u}) {
    Mailbox<uint64_t> box(8192);
    const size_t block = box.block_slots();
    const size_t bound = (k + block - 1) / block * block + block;
    uint64_t next_in = 0;
    uint64_t next_out = 0;
    auto fill = [&]() {
      for (size_t i = 0; i < k; i++) {
        uint64_t v = next_in++;
        ASSERT_TRUE(box.TryPush(v));
      }
    };
    auto drain = [&]() {
      uint64_t out = 0;
      while (box.TryPop(out)) {
        ASSERT_EQ(out, next_out++);
      }
    };
    fill();
    const size_t at_peak = box.allocated_slots();
    EXPECT_LE(at_peak, bound) << "k=" << k;
    for (int round = 0; round < 5; round++) {
      drain();
      fill();
      EXPECT_EQ(box.allocated_slots(), at_peak) << "k=" << k << " round " << round;
    }
    drain();
    EXPECT_EQ(next_out, next_in);
  }
  // An idle ring costs one block, not its capacity.
  EXPECT_EQ(Mailbox<uint64_t>(8192).allocated_slots(),
            Mailbox<uint64_t>::kBlockSlots);
}

// Payloads survive many ring wraps through the same resident slots, including
// strings large enough to live on the heap (moved, never copied or corrupted).
TEST(MailboxTest, SlotsCarryPayloadsAcrossWraps) {
  Mailbox<std::string> box(4);
  std::string item;
  std::string out;
  const std::string big(512, 'x');  // well past SSO
  for (int round = 0; round < 1000; round++) {
    item = big + std::to_string(round);
    ASSERT_TRUE(box.TryPush(item));
    ASSERT_TRUE(box.TryPop(out));
    EXPECT_EQ(out, big + std::to_string(round));
  }
  EXPECT_TRUE(box.Empty());
}

// One producer thread, one consumer thread, a ring far smaller than the
// stream: every item arrives exactly once, in order, through sustained
// backpressure on both sides.
TEST(MailboxTest, TwoThreadFifoStress) {
  Mailbox<uint64_t> box(64);
  const uint64_t kItems = 200000;

  std::thread producer([&box]() {
    for (uint64_t i = 0; i < kItems;) {
      uint64_t v = i;
      if (box.TryPush(v)) {
        i++;
      } else {
        std::this_thread::yield();
      }
    }
  });

  uint64_t next = 0;
  uint64_t out = 0;
  while (next < kItems) {
    if (box.TryPop(out)) {
      ASSERT_EQ(out, next) << "FIFO order broken";
      next++;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(box.Empty());
  EXPECT_EQ(next, kItems);
}

// Bursts whose occupancy climbs across several blocks and drains back to zero,
// with both threads live throughout: the consumer starts popping once half of
// a burst is in, so the producer grows and re-enters the block cycle while the
// consumer walks it. Every item must arrive once, in order.
TEST(MailboxTest, TwoThreadBurstsAcrossBlocks) {
  Mailbox<uint64_t> box(8192);
  const size_t block = box.block_slots();
  const int kBursts = 120;
  std::atomic<uint64_t> released{0};  // end of the burst the consumer may drain
  std::atomic<uint64_t> consumed{0};
  uint64_t total = 0;
  std::vector<uint64_t> sizes;
  size_t peak = 0;
  for (int b = 0; b < kBursts; b++) {
    // 1 to ~12 blocks, varied so bursts start at different block offsets.
    sizes.push_back(1 + (static_cast<uint64_t>(b) * 769) % (12 * block));
    peak = std::max<size_t>(peak, sizes.back());
    total += sizes.back();
  }

  std::thread producer([&]() {
    uint64_t next = 0;
    for (uint64_t size : sizes) {
      const uint64_t start = next;
      while (next < start + size) {
        uint64_t v = next;
        if (box.TryPush(v)) {
          next++;
          if (next - start == size / 2 + 1) {
            released.store(start + size, std::memory_order_release);
          }
        } else {
          std::this_thread::yield();
        }
      }
      while (consumed.load(std::memory_order_acquire) < next) {
        std::this_thread::yield();  // wait for the drain to zero
      }
    }
  });

  uint64_t next = 0;
  uint64_t out = 0;
  while (next < total) {
    if (next < released.load(std::memory_order_acquire) && box.TryPop(out)) {
      ASSERT_EQ(out, next) << "FIFO order broken";
      next++;
      consumed.store(next, std::memory_order_release);
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(box.Empty());
  EXPECT_EQ(next, total);
  EXPECT_LE(box.allocated_slots(), (peak + block - 1) / block * block + block);
}

TEST(MailboxTest, DoorbellWakesParkedConsumer) {
  Doorbell bell;
  std::atomic<bool> rung{false};
  std::thread consumer([&]() {
    bell.Arm();
    rung.store(ParkOn(bell, /*timeout_ms=*/5000));
  });
  // Ring until the consumer reports the wakeup: a ring while it has not armed
  // yet is a no-op by design, so keep ringing like a retrying producer would.
  while (!rung.load()) {
    bell.Ring();
    std::this_thread::yield();
  }
  consumer.join();
  EXPECT_TRUE(rung.load());
}

TEST(MailboxTest, DoorbellWaitTimesOutWhenNotRung) {
  Doorbell bell;
  bell.Arm();
  EXPECT_FALSE(ParkOn(bell, /*timeout_ms=*/2));
}

// A ring with the bell disarmed is swallowed: the consumer's contract is to
// re-check its mailboxes after Arm() rather than trust a pending ring.
TEST(MailboxTest, RingWhileDisarmedIsSwallowed) {
  Doorbell bell;
  EXPECT_FALSE(bell.Ring());  // disarmed: no wakeup is recorded
  bell.Arm();
  EXPECT_FALSE(ParkOn(bell, /*timeout_ms=*/2));
}

}  // namespace
}  // namespace rt
