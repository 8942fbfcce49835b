// Partitioned replicas: Partitioner routing, ShardedEngine equivalence and
// multi-shard correctness.
//
//  * routing is a pure deterministic function of the key bytes;
//  * a P=1 ShardedEngine produces exactly the unsharded engine's counters on a
//    seeded run (the wrapper adds no protocol behaviour);
//  * randomized multi-shard cluster runs (with and without submission batching)
//    pass the linearizability checker, and batching strictly reduces message count.
#include "src/smr/sharded_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "src/core/atlas.h"
#include "src/harness/cluster.h"
#include "src/sim/regions.h"
#include "src/sim/simulator.h"
#include "src/smr/partitioner.h"
#include "src/wl/workload.h"

namespace {

using common::ProcessId;

TEST(PartitionerTest, RoutingIsDeterministicAndComplete) {
  smr::Partitioner a(4);
  smr::Partitioner b(4);
  std::set<uint32_t> seen;
  for (int i = 0; i < 256; i++) {
    std::string key = "key" + std::to_string(i);
    uint32_t s = a.ShardOf(key);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, b.ShardOf(key)) << "routing must not depend on the instance";
    EXPECT_EQ(s, a.ShardOf(key)) << "routing must be stable across calls";
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 4u) << "256 keys should cover all 4 shards";

  // P=1 sends everything to shard 0.
  smr::Partitioner one(1);
  for (int i = 0; i < 16; i++) {
    EXPECT_EQ(one.ShardOf("key" + std::to_string(i)), 0u);
  }
}

TEST(PartitionerTest, SingleShardCommands) {
  smr::Partitioner part(8);
  uint32_t shard = 77;
  // Single-key commands always route.
  smr::Command put = smr::MakePut(1, 1, "some-key", "v");
  ASSERT_TRUE(part.SingleShard(put, &shard));
  EXPECT_EQ(shard, part.ShardOf("some-key"));

  // noOps conflict with every partition: not routable.
  EXPECT_FALSE(part.SingleShard(smr::MakeNoOp(), &shard));

  // Multi-key commands route iff all keys are co-located. Find two keys in the same
  // shard and one elsewhere.
  std::string base = "k0";
  std::string same;
  std::string other;
  for (int i = 1; (same.empty() || other.empty()) && i < 10000; i++) {
    std::string k = "k" + std::to_string(i);
    if (part.ShardOf(k) == part.ShardOf(base)) {
      if (same.empty()) {
        same = k;
      }
    } else if (other.empty()) {
      other = k;
    }
  }
  ASSERT_FALSE(same.empty());
  ASSERT_FALSE(other.empty());
  smr::Command colocated = smr::MakePut(1, 2, base, "v");
  colocated.op = smr::Op::kMPut;
  colocated.more_keys.push_back(same);
  ASSERT_TRUE(part.SingleShard(colocated, &shard));
  EXPECT_EQ(shard, part.ShardOf(base));

  smr::Command split = colocated;
  split.more_keys.push_back(other);
  EXPECT_FALSE(part.SingleShard(split, &shard));
}

// At P=1 the one partition holds every key, so commands a sharded replica
// rejects route to shard 0 (every protocol runs behind the one-shard wrapper).
TEST(PartitionerTest, P1RoutesNoOpsAndMultiKeyCommandsToShardZero) {
  smr::Command multi = smr::MakePut(1, 1, "a", "v");
  multi.op = smr::Op::kMPut;
  for (int i = 0; i < 16; i++) {
    multi.more_keys.push_back("key" + std::to_string(i));
  }
  uint32_t shard = 0;
  ASSERT_FALSE(smr::Partitioner(8).SingleShard(multi, &shard));

  smr::Partitioner one(1);
  shard = 77;
  ASSERT_TRUE(one.SingleShard(smr::MakeNoOp(), &shard));
  EXPECT_EQ(shard, 0u);
  EXPECT_EQ(one.ShardOf(smr::MakeNoOp()), 0u);
  shard = 77;
  ASSERT_TRUE(one.SingleShard(multi, &shard));
  EXPECT_EQ(shard, 0u);
  EXPECT_EQ(one.ShardOf(multi), 0u);
}

// Drives a 3-site Atlas deployment and returns its counters. `partitions == 0`
// means "no wrapper": the engines run bare, exactly as the seeded harness builds
// them. Otherwise each site runs a ShardedEngine with that many partitions (no
// batching), which for P=1 must be behaviour-identical to bare engines.
struct Counters {
  uint64_t delivered = 0;
  uint64_t bytes = 0;
  std::vector<smr::EngineStats> per_site;
};

Counters RunAtlasTriad(uint32_t partitions) {
  sim::Simulator::Options opts;
  opts.seed = 99;
  sim::Simulator sim(std::make_unique<sim::UniformLatency>(10 * common::kMillisecond,
                                                           common::kMillisecond),
                     opts);
  auto make_atlas = [] {
    atlas::Config cfg;
    cfg.n = 3;
    cfg.f = 1;
    return std::make_unique<atlas::AtlasEngine>(cfg);
  };
  std::vector<std::unique_ptr<smr::Engine>> engines;
  for (int i = 0; i < 3; i++) {
    if (partitions == 0) {
      engines.push_back(make_atlas());
    } else {
      smr::ShardedOptions so;
      so.partitions = partitions;
      engines.push_back(std::make_unique<smr::ShardedEngine>(
          so, [&make_atlas](uint32_t) { return make_atlas(); }));
    }
  }
  for (auto& e : engines) {
    sim.AddEngine(e.get());
  }
  sim.Start();

  // Seeded submissions: a mix of per-client and shared keys so collect/commit,
  // fast paths and dependency chains are all exercised.
  common::Rng rng(4242);
  for (uint64_t i = 1; i <= 150; i++) {
    ProcessId site = static_cast<ProcessId>(i % 3);
    std::string key = rng.Chance(0.2) ? "shared" : "k" + std::to_string(i % 10);
    sim.Submit(site, smr::MakePut(100 + site, i, key, "value"));
    if (i % 5 == 0) {
      sim.RunFor(5 * common::kMillisecond);
    }
  }
  sim.RunUntilIdle();

  Counters c;
  c.delivered = sim.messages_delivered();
  c.bytes = sim.bytes_sent();
  for (auto& e : engines) {
    c.per_site.push_back(e->stats());
  }
  return c;
}

TEST(ShardedEngineTest, P1MatchesUnshardedEngineCounters) {
  Counters bare = RunAtlasTriad(0);
  Counters wrapped = RunAtlasTriad(1);
  EXPECT_EQ(bare.delivered, wrapped.delivered);
  EXPECT_EQ(bare.bytes, wrapped.bytes);
  ASSERT_EQ(bare.per_site.size(), wrapped.per_site.size());
  for (size_t i = 0; i < bare.per_site.size(); i++) {
    const smr::EngineStats& a = bare.per_site[i];
    const smr::EngineStats& b = wrapped.per_site[i];
    EXPECT_EQ(a.submitted, b.submitted) << "site " << i;
    EXPECT_EQ(a.committed, b.committed) << "site " << i;
    EXPECT_EQ(a.executed, b.executed) << "site " << i;
    EXPECT_EQ(a.fast_paths, b.fast_paths) << "site " << i;
    EXPECT_EQ(a.slow_paths, b.slow_paths) << "site " << i;
    EXPECT_EQ(a.messages_sent, b.messages_sent) << "site " << i;
  }
  // Sanity: the run did real work.
  EXPECT_GT(bare.per_site[0].committed, 0u);
}

// A multi-shard run must still be a correct SMR: all client commands complete and
// the per-partition histories satisfy the §2 specification (checker-validated),
// including per-(site, shard) replica convergence.
chk::CheckResult RunShardedCluster(uint32_t partitions, common::Duration batch_window,
                                   uint64_t seed, harness::Metrics* out_metrics,
                                   uint64_t* out_completed,
                                   uint64_t* out_delivered) {
  harness::ClusterOptions opts;
  opts.protocol = harness::Protocol::kAtlas;
  opts.f = 1;
  opts.site_regions = sim::ScaleOutSites(5);
  opts.seed = seed;
  opts.enable_checker = true;
  opts.partitions = partitions;
  opts.batch_window = batch_window;

  harness::Cluster cluster(opts);
  auto workload =
      std::make_shared<wl::PartitionedMicroWorkload>(partitions, 0.10, 64);
  for (size_t region : sim::ClientSites()) {
    harness::ClientSpec cs;
    cs.region = region;
    cs.workload = workload;
    cs.max_ops = 25;
    cluster.AddClients(cs, 2);
  }
  cluster.SetMeasureWindow(0, 20 * common::kSecond);
  cluster.Start();
  cluster.RunFor(20 * common::kSecond);
  chk::CheckResult result = cluster.Finish(/*abort_on_error=*/false);
  if (out_metrics != nullptr) {
    *out_metrics = cluster.Snapshot();
  }
  if (out_completed != nullptr) {
    *out_completed = cluster.total_completed();
  }
  if (out_delivered != nullptr) {
    *out_delivered = cluster.simulator().messages_delivered();
  }
  return result;
}

TEST(ShardedEngineTest, MultiShardRunPassesChecker) {
  for (uint64_t seed : {7u, 1234u, 777777u}) {
    harness::Metrics m;
    uint64_t completed = 0;
    chk::CheckResult result =
        RunShardedCluster(4, /*batch_window=*/0, seed, &m, &completed, nullptr);
    EXPECT_TRUE(result.ok) << "seed " << seed << ": " << result.Describe();
    EXPECT_EQ(completed, 13u * 2u * 25u) << "seed " << seed;
    // Work must actually spread across partitions.
    ASSERT_EQ(m.per_shard.size(), 4u);
    for (uint32_t s = 0; s < 4; s++) {
      EXPECT_GT(m.per_shard[s].executed, 0u) << "shard " << s << " idle, seed " << seed;
    }
  }
}

TEST(ShardedEngineTest, BatchingPassesCheckerAndCutsMessages) {
  uint64_t completed_plain = 0;
  uint64_t delivered_plain = 0;
  chk::CheckResult plain = RunShardedCluster(4, 0, 31337, nullptr, &completed_plain,
                                             &delivered_plain);
  EXPECT_TRUE(plain.ok) << plain.Describe();

  uint64_t completed_batched = 0;
  uint64_t delivered_batched = 0;
  chk::CheckResult batched =
      RunShardedCluster(4, 20 * common::kMillisecond, 31337, nullptr,
                        &completed_batched, &delivered_batched);
  EXPECT_TRUE(batched.ok) << batched.Describe();

  EXPECT_EQ(completed_plain, completed_batched);
  EXPECT_LT(delivered_batched, delivered_plain)
      << "coalesced submission must reduce protocol message count";
}

}  // namespace
