// DecidedLog: the bounded store of decided values behind Atlas/EPaxos recovery and
// the Mencius slot history. Pins the round trip of every value shape the engines
// record, the exact FIFO horizon of the per-engine caches it replaced, the horizon's
// unit (client commands, so a batch weighs its sub-commands), that the chunk memory
// it holds tracks the live encoded bytes across many wraps, and the layout's edges:
// oversized entries in the chunk chain, dots recorded out of order, index growth,
// and the per-entry footprint.
#include "src/smr/decided_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
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

std::vector<Command> MakePuts(uint64_t client, size_t n) {
  std::vector<Command> puts;
  for (uint64_t i = 1; i <= n; i++) {
    puts.push_back(MakePut(client, i, "key" + std::to_string(i), std::string(100, 'v')));
  }
  return puts;
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
  // An entry weighs 5.9 commands on average, so the window holds about kEntries.
  const size_t kEntries = 4096;
  DecidedLog log(6 * kEntries);
  common::Rng rng(17);
  std::vector<Command> subs;
  size_t max_live = 0;
  for (uint64_t s = 1; s <= 20 * kEntries; s++) {
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
    if (s > 2 * kEntries) {
      ASSERT_LE(log.held_bytes(), log.live_bytes() + 2 * DecidedLog::kChunkBytes)
          << "after " << s << " records";
    }
  }
  EXPECT_GT(max_live, 2 * DecidedLog::kChunkBytes);  // the window spans chunks
}

TEST(DecidedLogTest, BatchUsesOneUnitPerSubCommand) {
  const size_t kLimit = 20;
  DecidedLog log(kLimit);
  // A noOp and a plain command weigh 1 each; a batch of 7 weighs 7.
  log.Record(Dot{0, 1}, MakeNoOp(), DepSet{});
  log.Record(Dot{0, 2}, MakePut(1, 1, "a", "v"), DepSet{});
  log.Record(Dot{1, 1}, MakeBatch(MakePuts(2, 7)), DepSet{});
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.live_weight(), 9u);
  // 9 + 11 fills the horizon exactly: nothing is evicted.
  log.Record(Dot{1, 2}, MakeBatch(MakePuts(3, 11)), DepSet{});
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.live_weight(), kLimit);
  // One more command evicts the oldest entry (the noOp) only.
  log.Record(Dot{0, 3}, MakePut(1, 2, "b", "v"), DepSet{});
  EXPECT_EQ(log.live_weight(), kLimit);
  EXPECT_FALSE(log.Find(Dot{0, 1}, nullptr, nullptr));
  EXPECT_TRUE(log.Find(Dot{0, 2}, nullptr, nullptr));
  // A batch of 3 needs two more units: the plain put (1) and then the batch of 7.
  log.Record(Dot{2, 1}, MakeBatch(MakePuts(4, 3)), DepSet{});
  EXPECT_FALSE(log.Find(Dot{0, 2}, nullptr, nullptr));
  EXPECT_FALSE(log.Find(Dot{1, 1}, nullptr, nullptr));
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.live_weight(), 11u + 1 + 3);
  for (const Dot& d : {Dot{1, 2}, Dot{0, 3}, Dot{2, 1}}) {
    EXPECT_TRUE(log.Find(d, nullptr, nullptr)) << d.proc << "." << d.seq;
  }
}

TEST(DecidedLogTest, BatchHeavierThanHorizonIsHeldAlone) {
  const size_t kLimit = 8;
  DecidedLog log(kLimit);
  log.Record(Dot{0, 1}, MakePut(1, 1, "a", "v"), DepSet{});
  log.Record(Dot{0, 2}, MakePut(1, 2, "b", "v"), DepSet{});
  const Command heavy = MakeBatch(MakePuts(2, 3 * kLimit));
  log.Record(Dot{1, 1}, heavy, DepSet{Dot{0, 2}});
  EXPECT_EQ(log.size(), 1u);
  Command got;
  ASSERT_TRUE(log.Find(Dot{1, 1}, &got, nullptr));
  ExpectSameCommand(got, heavy);
  EXPECT_FALSE(log.Find(Dot{0, 1}, nullptr, nullptr));
  EXPECT_FALSE(log.Find(Dot{0, 2}, nullptr, nullptr));
  // The next record, however light, evicts it.
  log.Record(Dot{0, 3}, MakePut(1, 3, "c", "v"), DepSet{});
  EXPECT_FALSE(log.Find(Dot{1, 1}, nullptr, nullptr));
  EXPECT_TRUE(log.Find(Dot{0, 3}, nullptr, nullptr));
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.live_weight(), 1u);
}

TEST(DecidedLogTest, BatchedStreamPlateausAfterFirstWrap) {
  // Engine-sized horizon, 12 puts per dot as a sharded replica batches them: the
  // log holds kDecidedHorizon / 12 entries, and its live and held bytes stop
  // growing once the horizon first fills.
  const size_t kPerBatch = 12;
  const Command batch = MakeBatch(MakePuts(7, kPerBatch));
  const DepSet deps{Dot{0, 1}, Dot{1, 2}, Dot{2, 3}};
  const size_t kEntries = kDecidedHorizon / kPerBatch;
  DecidedLog log;
  uint64_t s = 1;
  for (; s <= kEntries + 1; s++) {
    log.Record(Dot{static_cast<common::ProcessId>(s % 3), s}, batch, deps);
  }
  ASSERT_EQ(log.size(), kEntries);
  const size_t live = log.live_bytes();
  const size_t held = log.held_bytes();
  for (; s <= 10 * kEntries; s++) {
    log.Record(Dot{static_cast<common::ProcessId>(s % 3), s}, batch, deps);
    ASSERT_EQ(log.live_bytes(), live) << "after " << s << " records";
    // At most a spare chunk beyond the first wrap's.
    ASSERT_LE(log.held_bytes(), held + DecidedLog::kChunkBytes)
        << "after " << s << " records";
  }
  EXPECT_EQ(log.size(), kEntries);
  EXPECT_EQ(log.live_weight(), kEntries * kPerBatch);

  // The same commands unbatched hold more encoded bytes, not 12x fewer: batching
  // only amortises the per-entry header and dependencies.
  DecidedLog flat;
  const Command put = MakePut(7, 1, "key1", std::string(100, 'v'));
  for (uint64_t t = 1; t <= kDecidedHorizon + 1; t++) {
    flat.Record(Dot{static_cast<common::ProcessId>(t % 3), t}, put, deps);
  }
  EXPECT_EQ(flat.size(), kDecidedHorizon);
  EXPECT_LT(live, flat.live_bytes());
  EXPECT_GT(live, flat.live_bytes() / 2);
}

TEST(DecidedLogTest, OversizedEntryBetweenSmallOnesKeepsFifo) {
  // The oversized entry takes a chunk of its own in the middle of the chain; the
  // small ones around it sit in ordinary chunks before and after it.
  const size_t kLimit = 8;
  DecidedLog log(kLimit);
  const uint64_t kBig = 5;
  const uint64_t kRecords = 4 * kLimit;
  for (uint64_t s = 1; s <= kRecords; s++) {
    const std::string value(s == kBig ? DecidedLog::kChunkBytes + 100 : 100, 'v');
    log.Record(Dot{static_cast<common::ProcessId>(s % 3), s},
               MakePut(1, s, "k" + std::to_string(s), value), DepSet{}, s);
    // Exactly the last kLimit records are held, whatever chunks they sit in.
    for (uint64_t t = 1; t <= s; t++) {
      Command cmd;
      uint64_t seqno = 0;
      const bool hit = log.Find(Dot{static_cast<common::ProcessId>(t % 3), t}, &cmd,
                                nullptr, &seqno);
      ASSERT_EQ(hit, t + kLimit > s) << "seq " << t << " after " << s << " records";
      if (hit) {
        EXPECT_EQ(cmd.key, "k" + std::to_string(t));
        EXPECT_EQ(cmd.value.size(), t == kBig ? DecidedLog::kChunkBytes + 100 : 100);
        EXPECT_EQ(seqno, t);
      }
    }
    EXPECT_EQ(log.size(), std::min<size_t>(s, kLimit));
  }
  // Once the oversized entry is gone, so is its chunk: one chunk plus a spare.
  EXPECT_LE(log.held_bytes(), 2 * DecidedLog::kChunkBytes);
}

TEST(DecidedLogTest, LateDotStaysFindableUntilEvicted) {
  // A slow coordinator's dot can be decided long after newer dots of the same
  // process; FIFO order is record order, not dot order.
  const size_t kLimit = 50;
  DecidedLog log(kLimit);
  for (uint64_t s = 100; s < 130; s++) {
    log.Record(Dot{0, s}, MakePut(1, s, "k", "v"), DepSet{});
  }
  const Dot late{0, 5};
  log.Record(late, MakePut(2, 1, "late", "v"), DepSet{Dot{0, 129}});
  // The late dot is evicted by the kLimit-th record after it, not before.
  for (uint64_t s = 130; s < 130 + kLimit; s++) {
    Command cmd;
    DepSet deps;
    ASSERT_TRUE(log.Find(late, &cmd, &deps)) << "before record " << s;
    EXPECT_EQ(cmd.key, "late");
    EXPECT_EQ(deps, (DepSet{Dot{0, 129}}));
    log.Record(Dot{0, s}, MakePut(1, s, "k", "v"), DepSet{});
  }
  EXPECT_FALSE(log.Find(late, nullptr, nullptr));
  EXPECT_TRUE(log.Find(Dot{0, 130}, nullptr, nullptr));
}

TEST(DecidedLogTest, RecordingAnEvictedDotStoresItFresh) {
  const size_t kLimit = 4;
  DecidedLog log(kLimit);
  const Dot dot{1, 1};
  log.Record(dot, MakePut(1, 1, "first", "v"), DepSet{}, 7);
  for (uint64_t s = 2; s <= kLimit + 1; s++) {
    log.Record(Dot{1, s}, MakePut(1, s, "k", "v"), DepSet{});
  }
  ASSERT_FALSE(log.Find(dot, nullptr, nullptr));
  log.Record(dot, MakePut(1, 9, "second", "v"), DepSet{Dot{2, 2}}, 8);
  Command cmd;
  DepSet deps;
  uint64_t seqno = 0;
  ASSERT_TRUE(log.Find(dot, &cmd, &deps, &seqno));
  EXPECT_EQ(cmd.key, "second");
  EXPECT_EQ(deps, (DepSet{Dot{2, 2}}));
  EXPECT_EQ(seqno, 8u);
  EXPECT_EQ(log.size(), kLimit);
  // It is now the newest entry: the next kLimit - 1 records leave it in place.
  for (uint64_t s = 10; s < 10 + kLimit - 1; s++) {
    log.Record(Dot{1, s}, MakePut(1, s, "k", "v"), DepSet{});
  }
  EXPECT_TRUE(log.Find(dot, nullptr, nullptr));
  log.Record(Dot{1, 20}, MakePut(1, 20, "k", "v"), DepSet{});
  EXPECT_FALSE(log.Find(dot, nullptr, nullptr));
}

TEST(DecidedLogTest, EveryLiveDotSurvivesIndexGrowth) {
  // 13 processes whose sequence numbers advance at different paces, interleaved,
  // so the index's probe runs mix many homes. The index grows several times before
  // the horizon fills and keeps its size after; every growth keeps every live dot.
  const size_t kLimit = 3000;
  const common::ProcessId kProcs = 13;
  DecidedLog log(kLimit);
  common::Rng rng(5);
  std::vector<uint64_t> next_seq(kProcs, 1);
  std::deque<Dot> live;
  size_t index_bytes = 0;
  size_t growths = 0;
  for (size_t r = 0; r < 3 * kLimit; r++) {
    const auto p = static_cast<common::ProcessId>(rng.Below(kProcs));
    const Dot dot{p, next_seq[p]};
    next_seq[p] += 1 + rng.Below(3);
    log.Record(dot, MakePut(p, dot.seq, "k", "v"), DepSet{}, dot.seq);
    live.push_back(dot);
    if (live.size() > kLimit) {
      live.pop_front();
    }
    ASSERT_EQ(log.size(), live.size());
    const size_t now = log.footprint_bytes() - log.held_bytes();
    if (now == index_bytes) {
      continue;
    }
    index_bytes = now;
    growths++;
    for (const Dot& d : live) {
      uint64_t seqno = 0;
      ASSERT_TRUE(log.Find(d, nullptr, nullptr, &seqno))
          << d.proc << "." << d.seq << " after " << r + 1 << " records";
      EXPECT_EQ(seqno, d.seq);
    }
  }
  EXPECT_GE(growths, 5u);  // 16 slots up to 8192
  for (const Dot& d : live) {
    EXPECT_TRUE(log.Find(d, nullptr, nullptr)) << d.proc << "." << d.seq;
  }
}

TEST(DecidedLogTest, FootprintIsBodyPlusAFewBytesPerEntry) {
  // At the engine horizon with 100-byte puts, the chunks and the index together
  // cost the encoded bodies plus at most 32 bytes per entry (header and index) and
  // two chunks of slack (the partly evicted head and partly filled tail, or a
  // spare).
  const Command put = MakePut(1, 1, "key42", std::string(100, 'v'));
  const DepSet deps{Dot{0, 1}, Dot{1, 2}, Dot{2, 3}};
  DecidedLog log;
  for (uint64_t s = 1; s <= 2 * kDecidedHorizon; s++) {
    log.Record(Dot{static_cast<common::ProcessId>(s % 3), s}, put, deps, s);
    if (s >= kDecidedHorizon) {
      ASSERT_LE(log.footprint_bytes(),
                log.live_bytes() + 32 * log.size() + 2 * DecidedLog::kChunkBytes)
          << "after " << s << " records";
    }
  }
  EXPECT_EQ(log.size(), kDecidedHorizon);
}

}  // namespace
}  // namespace smr
