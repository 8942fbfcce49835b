// EPaxos baseline tests: quorum sizing, matching-reply fast-path rule, seq-ordered
// execution, consistency, NFR.
#include "src/epaxos/epaxos.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "src/sim/simulator.h"

namespace epaxos {
namespace {

using common::Dot;
using common::kMillisecond;
using common::ProcessId;

TEST(EPaxosConfigTest, FastQuorumSizes) {
  // F + floor((F+1)/2) with F = floor((n-1)/2) — the ~3n/4-class quorum.
  struct Case {
    uint32_t n;
    size_t fq;
  };
  const Case cases[] = {{3, 2}, {5, 3}, {7, 5}, {9, 6}, {13, 9}};
  for (const auto& c : cases) {
    Config cfg;
    cfg.n = c.n;
    EXPECT_EQ(cfg.FastQuorumSize(), c.fq) << "n=" << c.n;
    EXPECT_GE(cfg.FastQuorumSize(), cfg.MajoritySize());
  }
}

struct TestCluster {
  explicit TestCluster(uint32_t n, bool nfr = false,
                       smr::RecoverySettings recovery = {}) {
    sim::Simulator::Options opts;
    opts.seed = 17;
    sim = std::make_unique<sim::Simulator>(
        std::make_unique<sim::UniformLatency>(10 * kMillisecond, 0), opts);
    for (uint32_t i = 0; i < n; i++) {
      Config cfg;
      cfg.n = n;
      cfg.nfr = nfr;
      cfg.recovery = recovery;
      engines.push_back(std::make_unique<EPaxosEngine>(cfg));
      sim->AddEngine(engines.back().get());
    }
    sim->SetExecutedHandler([this](ProcessId p, const Dot& d, const smr::Command& c) {
      executed.emplace_back(p, c);
    });
    sim->Start();
  }

  std::vector<std::pair<uint64_t, uint64_t>> OrderAt(ProcessId p) const {
    std::vector<std::pair<uint64_t, uint64_t>> out;
    for (const auto& [proc, cmd] : executed) {
      if (proc == p && !cmd.is_noop()) {
        out.emplace_back(cmd.client, cmd.seq);
      }
    }
    return out;
  }

  uint64_t TotalFast() const {
    uint64_t v = 0;
    for (const auto& e : engines) {
      v += e->stats().fast_paths;
    }
    return v;
  }
  uint64_t TotalSlow() const {
    uint64_t v = 0;
    for (const auto& e : engines) {
      v += e->stats().slow_paths;
    }
    return v;
  }

  std::unique_ptr<sim::Simulator> sim;
  std::vector<std::unique_ptr<EPaxosEngine>> engines;
  std::vector<std::pair<ProcessId, smr::Command>> executed;
};

// Records the EpCommits and EpPrepares sent for one dot.
struct SendLog final : sim::FaultHook {
  explicit SendLog(Dot d) : dot(d) {}
  void OnSend(ProcessId from, ProcessId to, msg::Message& m, sim::FaultPlan&) override {
    if (const auto* commit = msg::get_if<msg::EpCommit>(&m); commit && commit->dot == dot) {
      (commit->has_cmd ? full_commits : bare_commits)++;
    } else if (const auto* prep = msg::get_if<msg::EpPrepare>(&m);
               prep && prep->dot == dot) {
      prepares.emplace_back(from, to, prep->ballot);
    }
  }
  Dot dot;
  int full_commits = 0;
  int bare_commits = 0;
  std::vector<std::tuple<ProcessId, ProcessId, common::Ballot>> prepares;
};

TEST(EPaxosTest, NonConflictingGoesFast) {
  TestCluster tc(5);
  SendLog log(Dot{0, 1});
  tc.sim->SetFaultHook(&log);
  for (ProcessId p = 0; p < 5; p++) {
    tc.sim->Submit(p, smr::MakePut(p + 1, 1, "key" + std::to_string(p), "v"));
  }
  tc.sim->RunUntilIdle();
  EXPECT_EQ(tc.TotalFast(), 5u);
  EXPECT_EQ(tc.TotalSlow(), 0u);
  EXPECT_EQ(tc.executed.size(), 25u);
  // The leader's commit reaches the two other fast-quorum members (n=5: quorum of
  // 3) without the payload they stored from its EpPreAccept.
  EXPECT_EQ(log.bare_commits, 2);
  EXPECT_EQ(log.full_commits, 2);
}

TEST(EPaxosTest, SequentialConflictingGoesFast) {
  // Conflicting but not concurrent: replies match (deps already settled everywhere).
  TestCluster tc(5);
  for (int i = 0; i < 5; i++) {
    tc.sim->Submit(0, smr::MakePut(1, static_cast<uint64_t>(i) + 1, "hot", "v"));
    tc.sim->RunUntilIdle();
  }
  EXPECT_EQ(tc.TotalFast(), 5u);
  EXPECT_EQ(tc.TotalSlow(), 0u);
}

TEST(EPaxosTest, ConcurrentConflictingForcesSlowPathUnlikeAtlas) {
  // Two conflicting commands submitted simultaneously at different replicas: the
  // fast-quorum replies cannot all match for both coordinators.
  TestCluster tc(5);
  SendLog log(Dot{4, 1});
  tc.sim->SetFaultHook(&log);
  tc.sim->Submit(0, smr::MakePut(1, 1, "hot", "v"));
  tc.sim->Submit(4, smr::MakePut(2, 1, "hot", "v"));
  tc.sim->RunUntilIdle();
  EXPECT_GE(tc.TotalSlow(), 1u);
  // 4 went slow; its commit at the initial ballot is still bare to its acked
  // fast-quorum members.
  EXPECT_EQ(tc.engines[4]->stats().slow_paths, 1u);
  EXPECT_EQ(log.bare_commits, 2);
  EXPECT_EQ(log.full_commits, 2);
  // Despite the conflict, execution order agrees everywhere.
  auto ref = tc.OrderAt(0);
  EXPECT_EQ(ref.size(), 2u);
  for (ProcessId p = 1; p < 5; p++) {
    EXPECT_EQ(tc.OrderAt(p), ref);
  }
}

// A pre-accept quorum member restarts after acking but before the bare commit
// arrives, so the stored payload is gone. It fetches the full commit from the leader
// with a ballot-0 EpPrepare and executes the same command as everyone else.
TEST(EPaxosTest, RestartedFastQuorumMemberFetchesThePayload) {
  TestCluster tc(3);  // fast quorum of 0: {0, 1}
  SendLog log(Dot{0, 1});
  tc.sim->SetFaultHook(&log);
  tc.sim->Submit(0, smr::MakePut(1, 1, "k", "v"));
  tc.sim->RunFor(15 * kMillisecond);  // 1 stored the command and acked at t=10
  tc.sim->Crash(1);
  Config cfg;
  cfg.n = 3;
  EPaxosEngine fresh(cfg);
  tc.sim->Restart(1, &fresh);
  tc.sim->RunUntilIdle();
  EXPECT_EQ(tc.TotalFast(), 1u);
  EXPECT_EQ(log.bare_commits, 1);  // to 1, whose new incarnation lacks the payload
  ASSERT_EQ(log.prepares.size(), 1u);
  EXPECT_EQ(log.prepares[0],
            std::make_tuple(ProcessId{1}, ProcessId{0}, common::Ballot{0}));
  EXPECT_EQ(log.full_commits, 2);  // to 2, and 0's answer to the fetch
  ASSERT_EQ(tc.executed.size(), 3u);
  for (const auto& [proc, cmd] : tc.executed) {
    EXPECT_EQ(cmd, smr::MakePut(1, 1, "k", "v")) << "process " << proc;
  }
  EXPECT_EQ(tc.OrderAt(1), tc.OrderAt(0));
  EXPECT_EQ(tc.OrderAt(2), tc.OrderAt(0));
}

TEST(EPaxosTest, HighContentionStaysConsistent) {
  TestCluster tc(5);
  for (ProcessId p = 0; p < 5; p++) {
    for (int i = 0; i < 20; i++) {
      tc.sim->Submit(p, smr::MakePut(p + 1, static_cast<uint64_t>(i) + 1, "hot", "v"));
    }
  }
  tc.sim->RunUntilIdle();
  auto ref = tc.OrderAt(0);
  EXPECT_EQ(ref.size(), 100u);
  for (ProcessId p = 1; p < 5; p++) {
    EXPECT_EQ(tc.OrderAt(p), ref) << "replica " << p;
  }
}

TEST(EPaxosTest, MixedKeysConsistent) {
  TestCluster tc(7);
  for (ProcessId p = 0; p < 7; p++) {
    for (int i = 0; i < 10; i++) {
      std::string key = (i % 3 == 0) ? "hot" : "k" + std::to_string(p % 3);
      tc.sim->Submit(p, smr::MakePut(p + 1, static_cast<uint64_t>(i) + 1, key, "v"));
    }
  }
  tc.sim->RunUntilIdle();
  EXPECT_EQ(tc.executed.size(), 70u * 7);
  auto ref = tc.OrderAt(0);
  for (ProcessId p = 1; p < 7; p++) {
    // Project onto each key and compare relative orders via full sequence equality on
    // conflicting-only workload subsets is complex; here all writes on same key
    // conflict, so compare per-key subsequences.
    for (const std::string& key : {std::string("hot"), std::string("k0"),
                                   std::string("k1"), std::string("k2")}) {
      std::vector<std::pair<uint64_t, uint64_t>> a, b;
      for (const auto& [proc, cmd] : tc.executed) {
        if (cmd.key != key) {
          continue;
        }
        if (proc == 0) {
          a.emplace_back(cmd.client, cmd.seq);
        } else if (proc == p) {
          b.emplace_back(cmd.client, cmd.seq);
        }
      }
      EXPECT_EQ(a, b) << "key " << key << " replica " << p;
    }
  }
}

TEST(EPaxosTest, NfrReadUsesMajorityAndSkipsDependencies) {
  TestCluster tc(7, /*nfr=*/true);
  tc.sim->Submit(0, smr::MakePut(1, 1, "k", "v"));
  tc.sim->RunUntilIdle();
  tc.sim->Submit(3, smr::MakeGet(2, 1, "k"));
  tc.sim->RunUntilIdle();
  // Read committed fast.
  EXPECT_EQ(tc.TotalSlow(), 0u);
  // A later write does not depend on the read: still fast even if concurrent with
  // nothing; then check execution everywhere.
  tc.sim->Submit(5, smr::MakePut(3, 1, "k", "v2"));
  tc.sim->RunUntilIdle();
  EXPECT_EQ(tc.executed.size(), 3u * 7);
}

// Automatic recovery through OnSuspect + periodic scan (no explicit recovery calls):
// the leader crashes after its pre-accepts landed, and the survivors that saw them
// run explicit prepare until every command commits everywhere.
TEST(EPaxosTest, SuspectScanRecoversAllPendingDots) {
  smr::RecoverySettings recovery;
  recovery.recovery_scan_interval = 100 * kMillisecond;
  recovery.recovery_retry_interval = 300 * kMillisecond;
  recovery.commit_timeout = 500 * kMillisecond;
  TestCluster tc(5, /*nfr=*/false, recovery);
  for (uint64_t i = 1; i <= 5; i++) {
    tc.sim->Submit(0, smr::MakePut(1, i, "key" + std::to_string(i), "v"));
  }
  tc.sim->RunFor(11 * kMillisecond);  // pre-accepts delivered, no commits yet
  tc.sim->Crash(0);
  for (ProcessId p = 1; p < 5; p++) {
    tc.engines[p]->OnSuspect(0);
  }
  tc.sim->RunUntilIdle();
  uint64_t recoveries = 0;
  for (ProcessId p = 1; p < 5; p++) {
    EXPECT_EQ(tc.OrderAt(p).size(), 5u) << "process " << p;
    EXPECT_EQ(tc.OrderAt(p), tc.OrderAt(1)) << "process " << p;
    recoveries += tc.engines[p]->stats().recoveries_started;
  }
  EXPECT_GE(recoveries, 5u);
}

// The leader stays alive behind a partition while the survivors recover its command
// to a noOp: after the heal it must learn the noOp and report its command Dropped
// exactly once, so the client resubmits instead of waiting.
TEST(EPaxosTest, LeaderLeftOutOfRecoveryMajorityGetsDropped) {
  smr::RecoverySettings recovery;
  recovery.recovery_scan_interval = 100 * kMillisecond;
  recovery.recovery_retry_interval = 300 * kMillisecond;
  recovery.commit_timeout = 500 * kMillisecond;
  TestCluster tc(5, /*nfr=*/false, recovery);
  std::vector<std::tuple<ProcessId, Dot, smr::Command>> dropped;
  tc.sim->SetDroppedHandler([&](ProcessId p, const Dot& d, const smr::Command& c) {
    dropped.emplace_back(p, d, c);
    // Resubmit under a fresh sequence number, as the harness's clients do.
    tc.sim->PostSubmitIn(0, p, smr::MakePut(c.client, c.seq + 1, c.key, "a"));
  });
  auto set_links = [&](bool out, bool in) {
    for (ProcessId p = 1; p < 5; p++) {
      tc.sim->SetLinkDown(0, p, out);
      tc.sim->SetLinkDown(p, 0, in);
    }
  };
  // <0,1> never leaves its leader (links drop at delivery time).
  set_links(/*out=*/true, /*in=*/false);
  tc.sim->Submit(0, smr::MakePut(1, 1, "k", "a"));
  tc.sim->RunFor(15 * kMillisecond);
  // The dependent <0,2> commits everywhere, so the survivors watch <0,1>.
  set_links(false, false);
  tc.sim->Submit(0, smr::MakePut(2, 1, "k", "b"));
  tc.sim->RunFor(35 * kMillisecond);
  // Partition the leader, and let the survivors suspect it as a failure detector
  // would, so their accept quorums leave it out: they recover <0,1> without it.
  set_links(true, true);
  for (ProcessId p = 1; p < 5; p++) {
    tc.engines[p]->OnSuspect(0);
  }
  tc.sim->RunFor(2 * common::kSecond);
  for (ProcessId p = 1; p < 5; p++) {
    EXPECT_EQ(tc.OrderAt(p), (std::vector<std::pair<uint64_t, uint64_t>>{{2, 1}}))
        << "process " << p;
    EXPECT_GE(tc.engines[p]->stats().noops_committed, 1u) << "process " << p;
  }
  EXPECT_TRUE(dropped.empty());
  set_links(false, false);
  tc.sim->RunUntilIdle();

  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(std::get<0>(dropped[0]), 0u);
  EXPECT_EQ(std::get<1>(dropped[0]), (Dot{0, 1}));
  EXPECT_EQ(std::get<2>(dropped[0]).client, 1u);
  EXPECT_EQ(std::get<2>(dropped[0]).seq, 1u);
  // The original never executes; its resubmission and <0,2> execute once everywhere.
  for (ProcessId p = 0; p < 5; p++) {
    EXPECT_EQ(tc.OrderAt(p),
              (std::vector<std::pair<uint64_t, uint64_t>>{{2, 1}, {1, 2}}))
        << "process " << p;
  }
}

}  // namespace
}  // namespace epaxos
