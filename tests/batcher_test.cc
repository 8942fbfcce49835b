// smr::Batcher: the one submission-batching rule shared by the simulator's
// ShardedEngine and the runtime's shard workers. Each test drives the batcher
// the way a driver does — Add, set a timer for any generation it returns, hand
// the generation back to Expire when the timer fires — and records what it
// submits.
#include "src/smr/batcher.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace {

struct Submitted {
  uint32_t shard;
  smr::Command cmd;
};

class BatcherTest : public ::testing::Test {
 protected:
  smr::Batcher Make(uint32_t shards, size_t batch_max) {
    return smr::Batcher(shards, common::kMillisecond, batch_max,
                        [this](uint32_t shard, smr::Command cmd) {
                          submitted.push_back(Submitted{shard, std::move(cmd)});
                        });
  }

  static smr::Command Put(uint64_t seq) {
    return smr::MakePut(1, seq, "k" + std::to_string(seq), "v");
  }

  // Client commands the i-th submission carried, unpacking a kBatch.
  std::vector<smr::Command> Carried(size_t i) const {
    std::vector<smr::Command> subs;
    if (submitted[i].cmd.is_batch()) {
      EXPECT_TRUE(smr::UnpackBatch(submitted[i].cmd, subs));
    } else {
      subs.push_back(submitted[i].cmd);
    }
    return subs;
  }

  std::vector<Submitted> submitted;
};

TEST_F(BatcherTest, WindowArmedBeforeAFullBatchFiresOnceForTheNextCommand) {
  smr::Batcher b = Make(1, 3);
  uint64_t window = b.Add(0, Put(1));
  ASSERT_NE(window, 0u);
  EXPECT_EQ(b.Add(0, Put(2)), 0u);
  EXPECT_EQ(b.Add(0, Put(3)), 0u);  // batch_max: flushes alone
  ASSERT_EQ(submitted.size(), 1u);
  EXPECT_EQ(Carried(0).size(), 3u);

  // The window is still armed, so the next command sets no second timer ...
  EXPECT_EQ(b.Add(0, Put(4)), 0u);
  EXPECT_EQ(submitted.size(), 1u);
  // ... and the earlier window flushes it exactly once.
  b.Expire(window);
  ASSERT_EQ(submitted.size(), 2u);
  EXPECT_EQ(submitted[1].cmd.seq, 4u);
  b.Expire(window);
  EXPECT_EQ(submitted.size(), 2u);
}

TEST_F(BatcherTest, StaleGenerationFlushesNothing) {
  smr::Batcher b = Make(1, 64);
  uint64_t first = b.Add(0, Put(1));
  ASSERT_NE(first, 0u);
  b.Expire(first);
  ASSERT_EQ(submitted.size(), 1u);

  uint64_t second = b.Add(0, Put(2));
  ASSERT_NE(second, 0u);
  EXPECT_NE(second, first);
  b.Add(0, Put(3));
  b.Expire(first);  // a timer left over from the earlier window
  EXPECT_EQ(submitted.size(), 1u);
  b.Expire(second);
  ASSERT_EQ(submitted.size(), 2u);
  EXPECT_EQ(Carried(1).size(), 2u);
}

TEST_F(BatcherTest, ExpiryFlushesEveryBufferInShardOrder) {
  smr::Batcher b = Make(3, 64);
  uint64_t window = b.Add(2, Put(1));
  ASSERT_NE(window, 0u);
  EXPECT_EQ(b.Add(0, Put(2)), 0u);  // one window for every buffer
  EXPECT_EQ(b.Add(2, Put(3)), 0u);
  EXPECT_EQ(b.Add(0, Put(4)), 0u);
  EXPECT_TRUE(submitted.empty());

  b.Expire(window);
  ASSERT_EQ(submitted.size(), 2u);  // shard 1 buffered nothing
  EXPECT_EQ(submitted[0].shard, 0u);
  EXPECT_EQ(submitted[1].shard, 2u);
  std::vector<smr::Command> s0 = Carried(0);
  std::vector<smr::Command> s2 = Carried(1);
  ASSERT_EQ(s0.size(), 2u);
  ASSERT_EQ(s2.size(), 2u);
  EXPECT_EQ(s0[0].seq, 2u);  // encoded in arrival order
  EXPECT_EQ(s0[1].seq, 4u);
  EXPECT_EQ(s2[0].seq, 1u);
  EXPECT_EQ(s2[1].seq, 3u);
}

TEST_F(BatcherTest, BatchOfOneGoesBare) {
  smr::Batcher b = Make(2, 64);
  smr::Command put = Put(7);
  b.Expire(b.Add(1, put));
  ASSERT_EQ(submitted.size(), 1u);
  EXPECT_FALSE(submitted[0].cmd.is_batch());
  EXPECT_EQ(submitted[0].shard, 1u);
  EXPECT_EQ(submitted[0].cmd, put);
}

TEST_F(BatcherTest, ZeroWindowSubmitsAtOnce) {
  smr::Batcher b(2, /*window=*/0, 64, [this](uint32_t shard, smr::Command cmd) {
    submitted.push_back(Submitted{shard, std::move(cmd)});
  });
  EXPECT_EQ(b.Add(1, Put(1)), 0u);
  EXPECT_EQ(b.Add(1, Put(2)), 0u);
  ASSERT_EQ(submitted.size(), 2u);
  EXPECT_FALSE(submitted[1].cmd.is_batch());
}

}  // namespace
