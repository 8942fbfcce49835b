// Replica assembly (smr::Deployment): the single construction site both drivers
// (simulator harness, TCP runtime) build replicas through.
//
//  * P=1 assembly (a one-shard ShardedEngine) is byte-identical to hand-built
//    seed engines for every protocol: a seeded run produces exactly the same
//    message/byte/stats counters (extending the determinism pins, which run the
//    full harness through Deployment);
//  * P>1 assembly is identical to a hand-rolled ShardedEngine;
//  * executed/committed/dropped demultiplexing unpacks kBatch composites onto
//    the store of the shard whose engine executed them, with correct applied
//    counts.
#include "src/smr/deployment.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/codec/codec.h"
#include "src/common/rng.h"
#include "src/core/atlas.h"
#include "src/epaxos/epaxos.h"
#include "src/mencius/mencius.h"
#include "src/msg/message.h"
#include "src/paxos/multipaxos.h"
#include "src/sim/simulator.h"
#include "src/smr/sharded_engine.h"

namespace {

using common::ProcessId;

struct Counters {
  uint64_t delivered = 0;
  uint64_t bytes = 0;
  std::vector<smr::EngineStats> per_site;
};

enum class Build { kBareSeed, kHandRolledSharded, kDeployment };

// One protocol engine of a 3-site, f=1 triad, constructed exactly as the seed
// did: each protocol's own Config defaults.
std::unique_ptr<smr::Engine> MakeSeedEngine(smr::Protocol protocol) {
  switch (protocol) {
    case smr::Protocol::kAtlas: {
      atlas::Config cfg;
      cfg.n = 3;
      cfg.f = 1;
      return std::make_unique<atlas::AtlasEngine>(cfg);
    }
    case smr::Protocol::kEPaxos: {
      epaxos::Config cfg;
      cfg.n = 3;
      return std::make_unique<epaxos::EPaxosEngine>(cfg);
    }
    case smr::Protocol::kFPaxos:
    case smr::Protocol::kPaxos: {
      paxos::Config cfg;
      cfg.n = 3;
      cfg.f = 1;
      cfg.mode = protocol == smr::Protocol::kFPaxos ? paxos::QuorumMode::kFlexible
                                                    : paxos::QuorumMode::kClassic;
      return std::make_unique<paxos::PaxosEngine>(cfg);
    }
    case smr::Protocol::kMencius: {
      mencius::Config cfg;
      cfg.n = 3;
      return std::make_unique<mencius::MenciusEngine>(cfg);
    }
  }
  return nullptr;
}

// Drives a 3-site triad of `protocol` with a seeded submission mix and returns
// its counters. kBareSeed constructs engines exactly as the seed did;
// kDeployment goes through the assembly layer; kHandRolledSharded wires a
// ShardedEngine by hand (what harness/cluster.cc used to do before Deployment).
Counters RunTriad(Build build, uint32_t partitions,
                  smr::Protocol protocol = smr::Protocol::kAtlas) {
  sim::Simulator::Options opts;
  opts.seed = 99;
  sim::Simulator sim(std::make_unique<sim::UniformLatency>(10 * common::kMillisecond,
                                                           common::kMillisecond),
                     opts);
  std::vector<std::unique_ptr<smr::Engine>> engines;
  std::vector<std::unique_ptr<smr::Deployment>> replicas;
  for (int i = 0; i < 3; i++) {
    switch (build) {
      case Build::kBareSeed:
        engines.push_back(MakeSeedEngine(protocol));
        break;
      case Build::kHandRolledSharded: {
        smr::ShardedOptions so;
        so.partitions = partitions;
        engines.push_back(std::make_unique<smr::ShardedEngine>(
            so, [protocol](uint32_t) { return MakeSeedEngine(protocol); }));
        break;
      }
      case Build::kDeployment: {
        smr::DeploymentOptions d;
        d.protocol = protocol;
        d.n = 3;
        d.f = 1;
        d.partitions = partitions;
        replicas.push_back(std::make_unique<smr::Deployment>(std::move(d)));
        break;
      }
    }
  }
  for (auto& e : engines) {
    sim.AddEngine(e.get());
  }
  for (auto& r : replicas) {
    sim.AddEngine(&r->engine());
  }
  sim.Start();

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
  for (auto& r : replicas) {
    c.per_site.push_back(r->stats());
  }
  return c;
}

void ExpectSameCounters(const Counters& a, const Counters& b) {
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.bytes, b.bytes);
  ASSERT_EQ(a.per_site.size(), b.per_site.size());
  for (size_t i = 0; i < a.per_site.size(); i++) {
    EXPECT_EQ(a.per_site[i].submitted, b.per_site[i].submitted) << "site " << i;
    EXPECT_EQ(a.per_site[i].committed, b.per_site[i].committed) << "site " << i;
    EXPECT_EQ(a.per_site[i].executed, b.per_site[i].executed) << "site " << i;
    EXPECT_EQ(a.per_site[i].fast_paths, b.per_site[i].fast_paths) << "site " << i;
    EXPECT_EQ(a.per_site[i].slow_paths, b.per_site[i].slow_paths) << "site " << i;
    EXPECT_EQ(a.per_site[i].messages_sent, b.per_site[i].messages_sent)
        << "site " << i;
  }
}

// Every protocol runs behind the one-shard wrapper at P=1, so each must match
// its bare seed engines exactly.
class DeploymentP1Test : public ::testing::TestWithParam<smr::Protocol> {};

TEST_P(DeploymentP1Test, P1AssemblyMatchesSeedEnginesExactly) {
  Counters bare = RunTriad(Build::kBareSeed, 1, GetParam());
  Counters assembled = RunTriad(Build::kDeployment, 1, GetParam());
  ExpectSameCounters(bare, assembled);
  EXPECT_GT(bare.per_site[0].committed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    DeploymentTest, DeploymentP1Test,
    ::testing::Values(smr::Protocol::kAtlas, smr::Protocol::kEPaxos,
                      smr::Protocol::kFPaxos, smr::Protocol::kPaxos,
                      smr::Protocol::kMencius),
    [](const ::testing::TestParamInfo<smr::Protocol>& info) {
      return std::string(smr::ProtocolName(info.param));
    });

TEST(DeploymentTest, ShardedAssemblyMatchesHandRolledShardedEngine) {
  Counters hand = RunTriad(Build::kHandRolledSharded, 4);
  Counters assembled = RunTriad(Build::kDeployment, 4);
  ExpectSameCounters(hand, assembled);
}

smr::Command MakeBatch(const std::vector<smr::Command>& subs) {
  smr::Command batch;
  codec::Writer scratch;
  smr::MakeBatchInto(subs, scratch, batch);
  return batch;
}

// Stands in for a driver of one replica (process 0 of 3): every Executed
// callback applies through Deployment::ApplyExecuted, as the simulator harness
// does, and records the (shard, sub-command) pairs the apply reports. Peers
// send nothing; Commit hands one shard's engine a commit decision directly.
class ApplyingDriver final : public smr::Context {
 public:
  explicit ApplyingDriver(smr::Deployment* dep) : dep_(dep) {
    dep_->engine().Bind(0, 3, this);
    dep_->engine().OnStart();
  }

  // Shard `shard`'s engine learns that `cmd` committed under `dot` with no
  // dependencies, so it executes it at once.
  void Commit(uint32_t shard, const common::Dot& dot, smr::Command cmd) {
    msg::MCommit commit;
    commit.dot = dot;
    commit.cmd = std::move(cmd);
    msg::Message m{std::move(commit)};
    m.shard = shard;
    dep_->engine().OnMessage(dot.proc, m);
  }

  void Send(ProcessId, msg::Message) override {}
  common::Time Now() const override { return 0; }
  void SetTimer(common::Duration, uint64_t) override {}
  void Executed(const common::Dot& dot, const smr::Command& cmd) override {
    dep_->ApplyExecuted(dot, cmd,
                        [this](uint32_t shard, const smr::Command& sub, std::string&&) {
                          seen.emplace_back(shard, sub);
                        });
  }

  std::vector<std::pair<uint32_t, smr::Command>> seen;

 private:
  smr::Deployment* dep_;
};

TEST(DeploymentTest, ApplyExecutedRoutesToPerShardStores) {
  smr::DeploymentOptions d;
  d.protocol = smr::Protocol::kAtlas;
  d.partitions = 4;
  smr::Deployment dep(std::move(d));
  ApplyingDriver driver(&dep);

  // Find two keys in different shards.
  std::string key_a = "a0";
  std::string key_b;
  for (int i = 0; key_b.empty() && i < 1000; i++) {
    std::string k = "b" + std::to_string(i);
    if (dep.partitioner().ShardOf(k) != dep.partitioner().ShardOf(key_a)) {
      key_b = k;
    }
  }
  ASSERT_FALSE(key_b.empty());
  uint32_t shard_a = dep.partitioner().ShardOf(key_a);
  uint32_t shard_b = dep.partitioner().ShardOf(key_b);

  // Each shard's engine executes under its own dot space, so equal dots on
  // different shards are different commands.
  const std::vector<std::pair<uint32_t, smr::Command>>& seen = driver.seen;
  driver.Commit(shard_a, common::Dot{1, 1}, smr::MakePut(1, 1, key_a, "va"));
  driver.Commit(shard_b, common::Dot{1, 1}, smr::MakePut(1, 2, key_b, "vb"));

  // A batch (all sub-commands shard-local by construction) unpacks in encoded
  // order and lands on its shard's store.
  std::vector<smr::Command> subs;
  subs.push_back(smr::MakeRmw(2, 1, key_a, "+1"));
  subs.push_back(smr::MakeRmw(2, 2, key_a, "+2"));
  driver.Commit(shard_a, common::Dot{1, 2}, MakeBatch(subs));

  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0].first, shard_a);
  EXPECT_EQ(seen[1].first, shard_b);
  EXPECT_EQ(seen[2].first, shard_a);
  EXPECT_EQ(seen[2].second, subs[0]);
  EXPECT_EQ(seen[3].second, subs[1]);

  EXPECT_EQ(dep.applied_count(shard_a), 3u);
  EXPECT_EQ(dep.applied_count(shard_b), 1u);
  // The stores really are partitioned: each key exists only in its shard's store.
  EXPECT_EQ(dep.store(shard_a).Apply(smr::MakeGet(9, 1, key_a)), "va+1+2");
  EXPECT_EQ(dep.store(shard_b).Apply(smr::MakeGet(9, 2, key_a)), "");
  EXPECT_EQ(dep.store(shard_b).Apply(smr::MakeGet(9, 3, key_b)), "vb");

  // noOps apply as no-ops and don't count, but still reach the callback
  // (checker histories include them) — under the shard that executed them,
  // which a noOp's empty key cannot tell.
  driver.Commit(shard_b, common::Dot{2, 1}, smr::MakeNoOp());
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen[4].first, shard_b);
  EXPECT_TRUE(seen[4].second.is_noop());
  EXPECT_EQ(dep.applied_count(0) + dep.applied_count(1) + dep.applied_count(2) +
                dep.applied_count(3),
            4u);
}

// A recovery noOp belongs to the shard whose engine executed it. Dot spaces
// are per shard, so admitting shard 1's noOp into shard 0's durable log would
// make shard 0 skip its own command under the same dot on this replica.
TEST(DeploymentTest, NoOpIsAdmittedUnderTheShardThatExecutedIt) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() /
       ("atlas_deploy_noop_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  smr::DeploymentOptions d;
  d.protocol = smr::Protocol::kAtlas;
  d.partitions = 2;
  d.data_dir = dir;
  d.fsync_mode = dur::FsyncMode::kNone;
  std::string key0;
  for (int i = 0; key0.empty() && i < 1000; i++) {
    std::string k = "k" + std::to_string(i);
    if (smr::Partitioner(2).ShardOf(k) == 0) {
      key0 = k;
    }
  }
  ASSERT_FALSE(key0.empty());
  {
    smr::Deployment dep(d);
    ApplyingDriver driver(&dep);
    driver.Commit(1, common::Dot{1, 1}, smr::MakeNoOp());
    driver.Commit(0, common::Dot{1, 1}, smr::MakePut(7, 1, key0, "v"));
    driver.Commit(1, common::Dot{2, 1}, smr::MakeNoOp());
    ASSERT_EQ(driver.seen.size(), 3u);
    EXPECT_EQ(driver.seen[0].first, 1u);
    EXPECT_EQ(driver.seen[1].first, 0u);
    EXPECT_EQ(dep.applied_count(0), 1u);
    EXPECT_EQ(dep.store(0).Apply(smr::MakeGet(9, 1, key0)), "v");
    // Each noOp reaches the durable log of the shard that executed it, and
    // only that one.
    EXPECT_TRUE(dep.durability(1)->frontier().Covers(common::Dot{1, 1}));
    EXPECT_TRUE(dep.durability(1)->frontier().Covers(common::Dot{2, 1}));
    EXPECT_FALSE(dep.durability(0)->frontier().Covers(common::Dot{2, 1}));
  }
  // Restarting from disk replays the put into shard 0's store.
  smr::Deployment restarted(d);
  EXPECT_TRUE(restarted.HasRecoveredState());
  EXPECT_EQ(restarted.applied_count(0), 1u);
  EXPECT_EQ(restarted.store(0).Apply(smr::MakeGet(9, 1, key0)), "v");
  fs::remove_all(dir);
}

TEST(DeploymentTest, ForEachCommittedAndDroppedUnpackBatches) {
  smr::DeploymentOptions d;
  d.protocol = smr::Protocol::kAtlas;
  d.partitions = 2;
  smr::Deployment dep(std::move(d));

  std::vector<smr::Command> subs;
  subs.push_back(smr::MakePut(1, 1, "x", "1"));
  subs.push_back(smr::MakePut(2, 7, "x", "2"));
  smr::Command batch = MakeBatch(subs);

  std::vector<smr::Command> committed;
  dep.ForEachCommitted(batch,
                       [&](const smr::Command& c) { committed.push_back(c); });
  ASSERT_EQ(committed.size(), 2u);
  EXPECT_EQ(committed[0], subs[0]);
  EXPECT_EQ(committed[1], subs[1]);

  std::vector<smr::Command> dropped;
  dep.ForEachDropped(batch, [&](const smr::Command& c) { dropped.push_back(c); });
  ASSERT_EQ(dropped.size(), 2u);
  EXPECT_EQ(dropped[1].seq, 7u);

  // Non-batch commands pass through unmodified, and dropping never touched the
  // stores or counts.
  committed.clear();
  dep.ForEachCommitted(subs[0],
                       [&](const smr::Command& c) { committed.push_back(c); });
  ASSERT_EQ(committed.size(), 1u);
  EXPECT_EQ(dep.applied_count(0), 0u);
  EXPECT_EQ(dep.applied_count(1), 0u);
}

}  // namespace
