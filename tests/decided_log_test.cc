// DecidedLog: the bounded store of decided values behind Atlas/EPaxos recovery.
// Pins the round trip of every value shape the engines record, the exact FIFO
// horizon of the per-engine caches it replaced, and that the chunk memory it holds
// tracks the live encoded bytes across many wraps.
#include "src/smr/decided_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/codec/codec.h"
#include "src/common/rng.h"
#include "src/smr/command.h"

namespace smr {
namespace {

using common::DepSet;
using common::Dot;

Command MakeBatch(const std::vector<Command>& subs) {
  Command batch;
  codec::Writer scratch;
  MakeBatchInto(subs, scratch, batch);
  return batch;
}

void ExpectSameCommand(const Command& got, const Command& want) {
  EXPECT_EQ(got.client, want.client);
  EXPECT_EQ(got.seq, want.seq);
  EXPECT_EQ(got.op, want.op);
  EXPECT_EQ(got.key, want.key);
  EXPECT_EQ(got.more_keys, want.more_keys);
  EXPECT_EQ(got.value.view(), want.value.view());
}

TEST(DecidedLogTest, RoundTripsEveryValueShape) {
  struct Case {
    Dot dot;
    Command cmd;
    DepSet deps;
    uint64_t seqno;
  };
  std::vector<Case> cases;
  cases.push_back({Dot{0, 1}, MakePut(7, 1, "key-a", std::string(100, 'v')),
                   DepSet{Dot{1, 3}}, 0});
  std::vector<Command> subs;
  for (uint64_t i = 1; i <= 5; i++) {
    subs.push_back(MakePut(10 + i, i, "k" + std::to_string(i), std::string(40, 'b')));
  }
  cases.push_back({Dot{1, 1}, MakeBatch(subs), DepSet{Dot{0, 1}, Dot{2, 9}}, 0});
  // Larger than a chunk: gets a chunk of its own.
  cases.push_back({Dot{2, 1},
                   MakePut(8, 2, "big", std::string(DecidedLog::kChunkBytes + 4096, 'x')),
                   DepSet{}, 0});
  // More dots than DepSet holds inline: the heap path.
  DepSet wide;
  for (uint64_t s = 1; s <= 9; s++) {
    wide.Insert(Dot{static_cast<common::ProcessId>(s % 3), s});
  }
  ASSERT_GT(wide.size(), DepSet::kInlineCapacity);
  cases.push_back({Dot{0, 2}, MakeRmw(9, 3, "key-b", "!"), wide, 0});
  // EPaxos records a sequence number beside the dependencies.
  cases.push_back({Dot{1, 2}, MakeGet(9, 4, "key-c"), DepSet{Dot{0, 2}}, 123456789});
  cases.push_back({Dot{2, 2}, MakeNoOp(), DepSet{Dot{1, 2}, Dot{0, 2}}, 1});

  DecidedLog log;
  for (const Case& c : cases) {
    log.Record(c.dot, c.cmd, c.deps, c.seqno);
  }
  EXPECT_EQ(log.size(), cases.size());
  for (const Case& c : cases) {
    SCOPED_TRACE(c.cmd.ToString());
    Command cmd;
    DepSet deps;
    uint64_t seqno = ~uint64_t{0};
    ASSERT_TRUE(log.Find(c.dot, &cmd, &deps, &seqno));
    ExpectSameCommand(cmd, c.cmd);
    EXPECT_EQ(deps, c.deps);
    EXPECT_EQ(seqno, c.seqno);
    // Outputs are optional.
    DepSet only_deps;
    ASSERT_TRUE(log.Find(c.dot, nullptr, &only_deps));
    EXPECT_EQ(only_deps, c.deps);
  }
  EXPECT_FALSE(log.Find(Dot{0, 3}, nullptr, nullptr));

  // A dot is decided once: a second record keeps the first value.
  log.Record(Dot{0, 1}, MakePut(7, 1, "other", "y"), DepSet{}, 5);
  Command cmd;
  ASSERT_TRUE(log.Find(Dot{0, 1}, &cmd, nullptr));
  EXPECT_EQ(cmd.key, "key-a");
  EXPECT_EQ(log.size(), cases.size());
}

TEST(DecidedLogTest, HorizonIsExactFifo) {
  EXPECT_EQ(kDecidedHorizon, size_t{1} << 17);
  const size_t kLimit = 64;
  const size_t kOver = 10;
  DecidedLog log(kLimit);
  for (uint64_t s = 1; s <= kLimit + kOver; s++) {
    log.Record(Dot{static_cast<common::ProcessId>(s % 3), s},
               MakePut(1, s, "k" + std::to_string(s), "v"), DepSet{}, s);
  }
  EXPECT_EQ(log.size(), kLimit);
  for (uint64_t s = 1; s <= kLimit + kOver; s++) {
    Command cmd;
    uint64_t seqno = 0;
    bool hit = log.Find(Dot{static_cast<common::ProcessId>(s % 3), s}, &cmd, nullptr,
                        &seqno);
    EXPECT_EQ(hit, s > kOver) << "seq " << s;
    if (hit) {
      EXPECT_EQ(cmd.key, "k" + std::to_string(s));
      EXPECT_EQ(seqno, s);
    }
  }
}

TEST(DecidedLogTest, HeldBytesTrackLiveBytesAcrossWraps) {
  // Mixed entry sizes (single puts and batches of up to 40 commands) so the live
  // window spans several chunks and chunks are released out of step with appends.
  const size_t kLimit = 4096;
  DecidedLog log(kLimit);
  common::Rng rng(17);
  std::vector<Command> subs;
  size_t max_live = 0;
  for (uint64_t s = 1; s <= 20 * kLimit; s++) {
    Command cmd;
    if (rng.Below(4) == 0) {
      subs.clear();
      uint64_t n = 1 + rng.Below(40);
      for (uint64_t i = 0; i < n; i++) {
        subs.push_back(MakePut(s, i, "key" + std::to_string(rng.Below(1000)),
                               std::string(100, 'v')));
      }
      cmd = MakeBatch(subs);
    } else {
      cmd = MakePut(s, 1, "key" + std::to_string(rng.Below(1000)),
                    std::string(100, 'v'));
    }
    log.Record(Dot{static_cast<common::ProcessId>(s % 5), s}, cmd,
               DepSet{Dot{0, s / 2}, Dot{1, s / 3}}, 0);
    max_live = std::max(max_live, log.live_bytes());
    if (s > 2 * kLimit) {
      ASSERT_LE(log.held_bytes(), log.live_bytes() + 2 * DecidedLog::kChunkBytes)
          << "after " << s << " records";
    }
  }
  EXPECT_GT(max_live, 2 * DecidedLog::kChunkBytes);  // the window spans chunks
}

}  // namespace
}  // namespace smr
