// Atlas protocol tests: quorum sizing, fast/slow path behaviour (Figure 2 scenarios),
// dependency agreement (Invariants 1 and 2), NFR, slow-path pruning.
#include "src/core/atlas.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/sim/simulator.h"

namespace atlas {
namespace {

using common::Dot;
using common::kMillisecond;
using common::ProcessId;

TEST(AtlasConfigTest, QuorumSizesMatchPaper) {
  // Table from §3.3: fast quorum floor(n/2)+f, slow quorum f+1.
  struct Case {
    uint32_t n, f;
    size_t fast, slow;
  };
  const Case cases[] = {
      {3, 1, 2, 2},  {5, 1, 3, 2},  {5, 2, 4, 3},  {7, 1, 4, 2},  {7, 2, 5, 3},
      {7, 3, 6, 4},  {13, 1, 7, 2}, {13, 2, 8, 3}, {13, 3, 9, 4},
  };
  for (const auto& c : cases) {
    Config cfg;
    cfg.n = c.n;
    cfg.f = c.f;
    cfg.Validate();
    EXPECT_EQ(cfg.FastQuorumSize(), c.fast) << "n=" << c.n << " f=" << c.f;
    EXPECT_EQ(cfg.SlowQuorumSize(), c.slow);
    EXPECT_EQ(cfg.RecoveryQuorumSize(), c.n - c.f);
  }
  // With f = 1 the fast quorum is a plain majority.
  for (uint32_t n : {3u, 5u, 7u, 9u, 11u, 13u}) {
    Config cfg;
    cfg.n = n;
    cfg.f = 1;
    EXPECT_EQ(cfg.FastQuorumSize(), cfg.MajoritySize());
  }
}

struct TestCluster {
  explicit TestCluster(uint32_t n, uint32_t f, bool nfr = false, bool prune = true,
                       common::Duration one_way = 10 * kMillisecond) {
    sim::Simulator::Options opts;
    opts.seed = 7;
    sim = std::make_unique<sim::Simulator>(
        std::make_unique<sim::UniformLatency>(one_way, 0), opts);
    for (uint32_t i = 0; i < n; i++) {
      Config cfg;
      cfg.n = n;
      cfg.f = f;
      cfg.nfr = nfr;
      cfg.prune_slow_path = prune;
      engines.push_back(std::make_unique<AtlasEngine>(cfg));
      sim->AddEngine(engines.back().get());
    }
    sim->SetExecutedHandler([this](ProcessId p, const Dot& d, const smr::Command& c) {
      executed.emplace_back(p, c);
    });
    sim->SetCommittedHandler(
        [this](ProcessId p, const Dot& d, const smr::Command& c, bool fast) {
          if (fast) {
            fast_commits++;
          }
        });
    sim->Start();
  }

  // Execution order of (client, seq) pairs at process p.
  std::vector<std::pair<uint64_t, uint64_t>> OrderAt(ProcessId p) const {
    std::vector<std::pair<uint64_t, uint64_t>> out;
    for (const auto& [proc, cmd] : executed) {
      if (proc == p && !cmd.is_noop()) {
        out.emplace_back(cmd.client, cmd.seq);
      }
    }
    return out;
  }

  std::unique_ptr<sim::Simulator> sim;
  std::vector<std::unique_ptr<AtlasEngine>> engines;
  std::vector<std::pair<ProcessId, smr::Command>> executed;
  int fast_commits = 0;
};

// Counts the MCommits sent for one dot, split by whether they carry the payload.
struct CommitCounter final : sim::FaultHook {
  explicit CommitCounter(Dot d) : dot(d) {}
  void OnSend(ProcessId from, ProcessId to, msg::Message& m, sim::FaultPlan&) override {
    const msg::MCommit* commit = msg::get_if<msg::MCommit>(&m);
    if (commit != nullptr && commit->dot == dot) {
      if (commit->has_cmd) {
        full_to.push_back(to);
      } else {
        bare++;
      }
    }
  }
  Dot dot;
  std::vector<ProcessId> full_to;
  int bare = 0;
};

TEST(AtlasProtocolTest, SingleCommandCommitsOnFastPathAndExecutesEverywhere) {
  TestCluster tc(3, 1);
  tc.sim->Submit(0, smr::MakePut(1, 1, "k", "v"));
  tc.sim->RunUntilIdle();
  EXPECT_EQ(tc.executed.size(), 3u);  // executed at all replicas
  EXPECT_EQ(tc.engines[0]->stats().fast_paths, 1u);
  EXPECT_EQ(tc.engines[0]->stats().slow_paths, 0u);
  // Commit after exactly one round trip to the closest majority: 2 * 10ms.
  EXPECT_EQ(tc.engines[0]->PhaseOf(Dot{0, 1}), AtlasEngine::Phase::kExecute);
}

TEST(AtlasProtocolTest, F1AlwaysFastPathEvenUnderFullConflicts) {
  TestCluster tc(5, 1);
  // All processes submit conflicting commands concurrently.
  for (ProcessId p = 0; p < 5; p++) {
    for (int i = 0; i < 10; i++) {
      tc.sim->Submit(p, smr::MakePut(p + 1, static_cast<uint64_t>(i) + 1, "hot", "v"));
    }
  }
  tc.sim->RunUntilIdle();
  uint64_t fast = 0, slow = 0;
  for (const auto& e : tc.engines) {
    fast += e->stats().fast_paths;
    slow += e->stats().slow_paths;
  }
  EXPECT_EQ(fast, 50u);
  EXPECT_EQ(slow, 0u);
  EXPECT_EQ(tc.executed.size(), 50u * 5);
}

TEST(AtlasProtocolTest, ConflictingCommandsExecuteInSameOrderEverywhere) {
  TestCluster tc(5, 2);
  for (ProcessId p = 0; p < 5; p++) {
    for (int i = 0; i < 20; i++) {
      tc.sim->Submit(p, smr::MakePut(p + 1, static_cast<uint64_t>(i) + 1, "hot", "v"));
    }
  }
  tc.sim->RunUntilIdle();
  auto ref = tc.OrderAt(0);
  EXPECT_EQ(ref.size(), 100u);
  for (ProcessId p = 1; p < 5; p++) {
    EXPECT_EQ(tc.OrderAt(p), ref) << "replica " << p << " diverged";
  }
}

TEST(AtlasProtocolTest, NonConflictingCommandsAlwaysFastEvenF2) {
  TestCluster tc(5, 2);
  CommitCounter commits(Dot{0, 1});
  tc.sim->SetFaultHook(&commits);
  for (ProcessId p = 0; p < 5; p++) {
    for (int i = 0; i < 10; i++) {
      tc.sim->Submit(p, smr::MakePut(p + 1, static_cast<uint64_t>(i) + 1,
                                     "key" + std::to_string(p), "v"));
    }
  }
  tc.sim->RunUntilIdle();
  uint64_t slow = 0;
  for (const auto& e : tc.engines) {
    slow += e->stats().slow_paths;
  }
  EXPECT_EQ(slow, 0u);
  // The fast-path commit reaches the fast-quorum members that acked the MCollect
  // ({0,1,2,3}) without the payload they already store; only process 4 gets it.
  EXPECT_EQ(commits.full_to, std::vector<ProcessId>{4});
  EXPECT_EQ(commits.bare, 3);
  EXPECT_EQ(tc.executed.size(), 50u * 5);
}

// Figure 1 scenario: with f=2, a dependency reported by a single fast-quorum process
// forces the slow path at one coordinator while the other can still go fast.
TEST(AtlasProtocolTest, SlowPathTriggersWhenDependencyUnderReported) {
  // n=5, f=2, fast quorums of 4 (id order under uniform latency): b at 4 uses
  // {4,0,1,2}, a at 0 uses {0,1,2,3}. Slowing links 4->0 and 4->1 makes b reach
  // process 2 early and processes 0,1 late, so exactly one member of a's quorum
  // reports b: count(b) = 1 < f.
  TestCluster tc(5, 2, false, true, 10 * kMillisecond);
  CommitCounter commits(Dot{0, 1});
  tc.sim->SetFaultHook(&commits);
  tc.sim->SetLinkDelay(4, 0, 100 * kMillisecond);
  tc.sim->SetLinkDelay(4, 1, 100 * kMillisecond);
  tc.sim->Submit(4, smr::MakePut(5, 1, "hot", "v"));  // command b
  tc.sim->RunFor(15 * kMillisecond);                  // b reached process 2 only
  tc.sim->Submit(0, smr::MakePut(1, 1, "hot", "v"));  // command a
  tc.sim->RunUntilIdle();
  // Both commands execute at all replicas in a consistent order.
  auto ref = tc.OrderAt(0);
  EXPECT_EQ(ref.size(), 2u);
  for (ProcessId p = 1; p < 5; p++) {
    EXPECT_EQ(tc.OrderAt(p), ref);
  }
  // a's coordinator saw b under-reported and had to use consensus.
  EXPECT_GE(tc.engines[0]->stats().slow_paths, 1u);
  // Decided at a's initial ballot, so the commit is bare to the fast quorum
  // {0,1,2,3}: only process 4 gets the payload.
  EXPECT_EQ(commits.full_to, std::vector<ProcessId>{4});
  EXPECT_EQ(commits.bare, 3);
}

// Bandwidth pin for payload-free commits: a seeded n=3 f=1 run of 1000 puts with
// 100 B values. When every commit carried the command the cluster sent 404,593
// bytes. Half of the commits now go bare (295,720 bytes), and the run must send at
// most 75% of the old figure.
TEST(AtlasProtocolTest, BareCommitsCutBytesSent) {
  TestCluster tc(3, 1);
  const std::string value(100, 'v');
  for (uint64_t i = 0; i < 1000; i++) {
    ProcessId p = static_cast<ProcessId>(i % 3);
    tc.sim->Submit(p, smr::MakePut(p + 1, i + 1, "key" + std::to_string(i % 8), value));
    if (i % 10 == 9) {
      tc.sim->RunFor(5 * kMillisecond);
    }
  }
  tc.sim->RunUntilIdle();
  EXPECT_EQ(tc.executed.size(), 3000u);
  EXPECT_LE(tc.sim->bytes_sent(), 404593u * 3 / 4);
}

TEST(AtlasProtocolTest, NfrReadsCommitAfterMajorityAndAreNotDependencies) {
  TestCluster tc(5, 2, /*nfr=*/true);
  // A write, then a read, then another write on the same key.
  tc.sim->Submit(0, smr::MakePut(1, 1, "k", "v1"));
  tc.sim->RunUntilIdle();
  tc.sim->Submit(1, smr::MakeGet(2, 1, "k"));
  tc.sim->RunUntilIdle();
  tc.sim->Submit(2, smr::MakePut(3, 1, "k", "v2"));
  tc.sim->RunUntilIdle();
  // All commands executed; reads never forced slow paths.
  uint64_t slow = 0;
  for (const auto& e : tc.engines) {
    slow += e->stats().slow_paths;
  }
  EXPECT_EQ(slow, 0u);
  // The second write's dependencies must not include the read <2,1>: its committed
  // deps contain only the first write.
  common::DepSet deps = tc.engines[2]->CommittedDeps(Dot{2, 1});
  EXPECT_EQ(deps.size(), 1u);
  EXPECT_TRUE(deps.Contains(Dot{0, 1}));
}

TEST(AtlasProtocolTest, WithoutNfrReadsAreDependencies) {
  TestCluster tc(5, 2, /*nfr=*/false);
  tc.sim->Submit(0, smr::MakePut(1, 1, "k", "v1"));
  tc.sim->RunUntilIdle();
  tc.sim->Submit(1, smr::MakeGet(2, 1, "k"));
  tc.sim->RunUntilIdle();
  tc.sim->Submit(2, smr::MakePut(3, 1, "k", "v2"));
  tc.sim->RunUntilIdle();
  common::DepSet deps = tc.engines[2]->CommittedDeps(Dot{2, 1});
  EXPECT_TRUE(deps.Contains(Dot{1, 1}));  // the read is a dependency
}

// Invariant 1: all replicas agree on the committed dependencies of every command.
TEST(AtlasProtocolTest, CommittedDepsAgreeAcrossReplicas) {
  TestCluster tc(5, 2);
  for (ProcessId p = 0; p < 5; p++) {
    for (int i = 0; i < 5; i++) {
      tc.sim->Submit(p, smr::MakePut(p + 1, static_cast<uint64_t>(i) + 1, "hot", "v"));
    }
  }
  tc.sim->RunUntilIdle();
  for (ProcessId p = 0; p < 5; p++) {
    for (uint64_t s = 1; s <= 5; s++) {
      Dot dot{p, s};
      common::DepSet ref = tc.engines[0]->CommittedDeps(dot);
      for (ProcessId q = 1; q < 5; q++) {
        EXPECT_EQ(tc.engines[q]->CommittedDeps(dot), ref)
            << "deps of " << common::ToString(dot) << " disagree at " << q;
      }
    }
  }
}

// §4 pruning: a dependency reported by fewer than f fast-quorum processes is pruned
// from the slow-path proposal, so dependency sets shrink (Figure 1's dep[a] = {}).
TEST(AtlasProtocolTest, SlowPathPruningDropsUnderReportedDeps) {
  for (bool prune : {false, true}) {
    TestCluster tc(5, 2, false, prune);
    tc.sim->SetLinkDelay(4, 0, 100 * kMillisecond);
    tc.sim->SetLinkDelay(4, 1, 100 * kMillisecond);
    tc.sim->Submit(4, smr::MakePut(5, 1, "hot", "v"));  // b: reaches only process 2
    tc.sim->RunFor(15 * kMillisecond);
    tc.sim->Submit(0, smr::MakePut(1, 1, "hot", "v"));  // a: slow path, count(b)=1
    tc.sim->RunUntilIdle();
    common::DepSet deps_a = tc.engines[0]->CommittedDeps(Dot{0, 1});
    common::DepSet deps_b = tc.engines[0]->CommittedDeps(Dot{4, 1});
    EXPECT_GE(tc.engines[0]->stats().slow_paths, 1u);
    // Invariant 2' must hold either way.
    EXPECT_TRUE(deps_a.Contains(Dot{4, 1}) || deps_b.Contains(Dot{0, 1}));
    if (prune) {
      // Figure 1: b was reported by fewer than f processes, so a's proposal prunes it;
      // Invariant 2' holds through dep[b] ∋ a.
      EXPECT_FALSE(deps_a.Contains(Dot{4, 1}));
      EXPECT_TRUE(deps_b.Contains(Dot{0, 1}));
    } else {
      EXPECT_TRUE(deps_a.Contains(Dot{4, 1}));
    }
  }
}

TEST(AtlasProtocolTest, CommandsLearnedViaCommitEnterConflictIndex) {
  // Process 4 is outside the fast quorum of 0 (n=5, f=1, quorum = closest 3 = {0,1,2}).
  TestCluster tc(5, 1);
  tc.sim->Submit(0, smr::MakePut(1, 1, "k", "v"));
  tc.sim->RunUntilIdle();
  // Now 4 submits a conflicting command; it must list <0,1> as dependency even though
  // it only learned of it via MCommit.
  tc.sim->Submit(4, smr::MakePut(2, 1, "k", "v"));
  tc.sim->RunUntilIdle();
  common::DepSet deps = tc.engines[0]->CommittedDeps(Dot{4, 1});
  EXPECT_TRUE(deps.Contains(Dot{0, 1}));
}

}  // namespace
}  // namespace atlas
