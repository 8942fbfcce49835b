// Atlas recovery tests (Algorithm 2): coordinator failure at every interesting point,
// Property 2 (fast-path proposals recoverable from floor(n/2) surviving fast-quorum
// members), noOp replacement, duelling recoverers, and Invariant 1 under recovery.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "src/core/atlas.h"
#include "src/sim/simulator.h"

namespace atlas {
namespace {

using common::DepSet;
using common::Dot;
using common::kMillisecond;
using common::kSecond;
using common::ProcessId;

struct RecCluster {
  explicit RecCluster(uint32_t n, uint32_t f, uint64_t seed = 7) {
    sim::Simulator::Options opts;
    opts.seed = seed;
    sim = std::make_unique<sim::Simulator>(
        std::make_unique<sim::UniformLatency>(10 * kMillisecond, 0), opts);
    config.n = n;
    config.f = f;
    config.recovery.recovery_scan_interval = 100 * kMillisecond;
    config.recovery.recovery_retry_interval = 300 * kMillisecond;
    config.recovery.commit_timeout = 500 * kMillisecond;
    for (uint32_t i = 0; i < n; i++) {
      engines.push_back(std::make_unique<AtlasEngine>(config));
      sim->AddEngine(engines.back().get());
    }
    sim->SetExecutedHandler([this](ProcessId p, const Dot& d, const smr::Command& c) {
      executed.emplace_back(p, d, c);
    });
    sim->Start();
  }

  void SuspectEverywhere(ProcessId dead) {
    for (size_t p = 0; p < engines.size(); p++) {
      if (!sim->IsCrashed(static_cast<ProcessId>(p))) {
        engines[p]->OnSuspect(dead);
      }
    }
  }

  size_t ExecCountAt(ProcessId p, bool include_noops = false) const {
    size_t k = 0;
    for (const auto& [proc, dot, cmd] : executed) {
      if (proc == p && (include_noops || !cmd.is_noop())) {
        k++;
      }
    }
    return k;
  }

  // The (dot, command) sequence process p executed.
  std::vector<std::pair<Dot, smr::Command>> ExecutedAt(ProcessId p) const {
    std::vector<std::pair<Dot, smr::Command>> out;
    for (const auto& [proc, dot, cmd] : executed) {
      if (proc == p) {
        out.emplace_back(dot, cmd);
      }
    }
    return out;
  }

  Config config;
  std::unique_ptr<sim::Simulator> sim;
  std::vector<std::unique_ptr<AtlasEngine>> engines;
  std::vector<std::tuple<ProcessId, Dot, smr::Command>> executed;
};

// Records the MCommits and MRecs sent for one dot.
struct SendLog final : sim::FaultHook {
  explicit SendLog(Dot d) : dot(d) {}
  void OnSend(ProcessId from, ProcessId to, msg::Message& m, sim::FaultPlan&) override {
    if (const auto* commit = msg::get_if<msg::MCommit>(&m); commit && commit->dot == dot) {
      (commit->has_cmd ? full_commits : bare_commits)++;
    } else if (const auto* rec = msg::get_if<msg::MRec>(&m); rec && rec->dot == dot) {
      recs.emplace_back(from, to, rec->ballot);
    }
  }
  Dot dot;
  int full_commits = 0;
  int bare_commits = 0;
  std::vector<std::tuple<ProcessId, ProcessId, common::Ballot>> recs;
};

// The coordinator crashes after its MCollect reached the fast quorum but before any
// MCommit: survivors must recover the command itself (not a noOp).
TEST(AtlasRecoveryTest, RecoversCommandWhenQuorumSawCollect) {
  RecCluster tc(5, 2);
  SendLog log(Dot{0, 1});
  tc.sim->SetFaultHook(&log);
  // Block coordinator 0's acks so it cannot commit, but let MCollect through.
  // Easiest: let MCollects be delivered, then crash 0 before acks return.
  tc.sim->Submit(0, smr::MakePut(1, 1, "k", "v"));
  tc.sim->RunFor(11 * kMillisecond);  // MCollect delivered at quorum, acks in flight
  tc.sim->Crash(0);
  tc.SuspectEverywhere(0);
  tc.sim->RunUntilIdle();
  // All survivors executed the real command.
  for (ProcessId p = 1; p < 5; p++) {
    EXPECT_EQ(tc.ExecCountAt(p), 1u) << "process " << p;
  }
  // And agree it committed with the payload, not noOp.
  for (const auto& [proc, dot, cmd] : tc.executed) {
    EXPECT_FALSE(cmd.is_noop());
    EXPECT_EQ(cmd.key, "k");
  }
  // A recovery-decided commit carries the payload to everyone, including the
  // fast-quorum members that stored it from the dead coordinator's MCollect.
  EXPECT_EQ(log.bare_commits, 0);
  EXPECT_GE(log.full_commits, 3);
}

// A fast-quorum member restarts after acking the MCollect but before the bare commit
// arrives, so the stored payload is gone. It fetches the full commit from the
// coordinator with a ballot-0 MRec and executes the same command as everyone else.
TEST(AtlasRecoveryTest, RestartedFastQuorumMemberFetchesThePayload) {
  RecCluster tc(3, 1);  // fast quorum of 0: {0, 1}
  SendLog log(Dot{0, 1});
  tc.sim->SetFaultHook(&log);
  tc.sim->Submit(0, smr::MakePut(1, 1, "k", "v"));
  tc.sim->RunFor(15 * kMillisecond);  // 1 stored the command and acked at t=10
  tc.sim->Crash(1);
  AtlasEngine fresh(tc.config);
  tc.sim->Restart(1, &fresh);
  tc.sim->RunUntilIdle();
  EXPECT_EQ(tc.engines[0]->stats().fast_paths, 1u);
  EXPECT_EQ(log.bare_commits, 1);  // to 1, whose new incarnation lacks the payload
  ASSERT_EQ(log.recs.size(), 1u);
  EXPECT_EQ(log.recs[0], std::make_tuple(ProcessId{1}, ProcessId{0}, common::Ballot{0}));
  EXPECT_EQ(log.full_commits, 2);  // to 2, and 0's answer to the fetch
  auto ref = tc.ExecutedAt(0);
  ASSERT_EQ(ref.size(), 1u);
  EXPECT_EQ(ref[0].second, smr::MakePut(1, 1, "k", "v"));
  EXPECT_EQ(tc.ExecutedAt(1), ref);
  EXPECT_EQ(tc.ExecutedAt(2), ref);
}

// The coordinator crashes before anyone saw the payload: survivors must agree on noOp
// (line 53) so that dependent commands are not blocked forever.
TEST(AtlasRecoveryTest, ReplacesUnseenCommandWithNoOp) {
  RecCluster tc(5, 2);
  // Cut all of 0's outgoing links, then submit at 0: nobody sees MCollect.
  for (ProcessId p = 1; p < 5; p++) {
    tc.sim->SetLinkDown(0, p, true);
  }
  tc.sim->Submit(0, smr::MakePut(1, 1, "k", "v"));
  tc.sim->RunFor(5 * kMillisecond);
  tc.sim->Crash(0);

  // Survivors later learn the dot exists through a conflicting command's deps? They
  // cannot (no message escaped). Simulate an observer knowing the dot (e.g. client
  // retry surface): trigger recovery explicitly at process 1.
  tc.engines[1]->Recover(Dot{0, 1});
  tc.sim->RunUntilIdle();
  // The dot must be committed as noOp at survivors (executed as no-effect).
  for (ProcessId p = 1; p < 5; p++) {
    EXPECT_EQ(tc.engines[p]->PhaseOf(Dot{0, 1}), AtlasEngine::Phase::kExecute);
    EXPECT_EQ(tc.ExecCountAt(p), 0u);                      // no real command executed
    EXPECT_GE(tc.engines[p]->stats().noops_committed, 1u);
  }
}

// The coordinator stays alive behind a partition while the survivors recover its
// command to a noOp: after the heal it must learn the noOp and report its command
// Dropped exactly once, so the client resubmits instead of waiting.
TEST(AtlasRecoveryTest, CoordinatorLeftOutOfRecoveryMajorityGetsDropped) {
  RecCluster tc(5, 2);
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
  // <0,1> never leaves its coordinator (links drop at delivery time).
  set_links(/*out=*/true, /*in=*/false);
  tc.sim->Submit(0, smr::MakePut(1, 1, "k", "a"));
  tc.sim->RunFor(15 * kMillisecond);
  // The dependent <0,2> commits everywhere, so the survivors watch <0,1>.
  set_links(false, false);
  tc.sim->Submit(0, smr::MakePut(2, 1, "k", "b"));
  tc.sim->RunFor(35 * kMillisecond);
  EXPECT_EQ(tc.engines[1]->PhaseOf(Dot{0, 2}), AtlasEngine::Phase::kCommit);
  // Partition the coordinator: the survivors' watches recover <0,1> without it.
  set_links(true, true);
  tc.sim->RunFor(2 * kSecond);
  for (ProcessId p = 1; p < 5; p++) {
    EXPECT_EQ(tc.engines[p]->PhaseOf(Dot{0, 1}), AtlasEngine::Phase::kExecute);
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
    std::vector<std::pair<uint64_t, uint64_t>> order;
    for (const auto& [dot, cmd] : tc.ExecutedAt(p)) {
      if (!cmd.is_noop()) {
        order.emplace_back(cmd.client, cmd.seq);
      }
    }
    EXPECT_EQ(order, (std::vector<std::pair<uint64_t, uint64_t>>{{2, 1}, {1, 2}}))
        << "process " << p;
  }
}

// Property 2 end-to-end: coordinator takes the fast path and crashes together with
// f-1 other fast-quorum members right after commit was sent only to itself. The
// recovery quorum must reconstruct the exact fast-path dependencies.
TEST(AtlasRecoveryTest, FastPathDecisionSurvivesFFailures) {
  RecCluster tc(5, 2);
  // First, commit a conflicting command from process 4 so dependencies are nonempty.
  tc.sim->Submit(4, smr::MakePut(9, 1, "k", "v0"));
  tc.sim->RunUntilIdle();
  // Now 0 submits; let the full fast-path round trip complete, but block 0's outgoing
  // MCommit to everyone: 0 commits locally, nobody else learns.
  tc.sim->Submit(0, smr::MakePut(1, 1, "k", "v1"));
  tc.sim->RunFor(19 * kMillisecond);  // acks received at 20ms; not yet
  for (ProcessId p = 1; p < 5; p++) {
    tc.sim->SetLinkDown(0, p, true);
  }
  tc.sim->RunFor(5 * kMillisecond);  // 0 commits locally at 20ms, MCommit blocked
  EXPECT_EQ(tc.engines[0]->PhaseOf(Dot{0, 1}), AtlasEngine::Phase::kExecute);
  DepSet committed_deps = tc.engines[0]->CommittedDeps(Dot{0, 1});
  tc.sim->Crash(0);
  tc.SuspectEverywhere(0);
  tc.sim->RunUntilIdle();
  // Survivors must commit <0,1> with exactly the same dependencies 0 decided
  // (Invariant 1 across the crash).
  for (ProcessId p = 1; p < 5; p++) {
    EXPECT_EQ(tc.engines[p]->PhaseOf(Dot{0, 1}), AtlasEngine::Phase::kExecute);
    EXPECT_EQ(tc.engines[p]->CommittedDeps(Dot{0, 1}), committed_deps)
        << "process " << p;
  }
}

// Several processes start recovery concurrently; ballots arbitrate and exactly one
// decision is reached (Invariant 1).
TEST(AtlasRecoveryTest, DuellingRecoverersAgree) {
  RecCluster tc(5, 2);
  tc.sim->Submit(0, smr::MakePut(1, 1, "k", "v"));
  tc.sim->RunFor(11 * kMillisecond);
  tc.sim->Crash(0);
  // Everyone recovers at once (no staggering).
  for (ProcessId p = 1; p < 5; p++) {
    tc.engines[p]->Recover(Dot{0, 1});
  }
  tc.sim->RunUntilIdle();
  DepSet ref = tc.engines[1]->CommittedDeps(Dot{0, 1});
  for (ProcessId p = 1; p < 5; p++) {
    EXPECT_EQ(tc.engines[p]->PhaseOf(Dot{0, 1}), AtlasEngine::Phase::kExecute);
    EXPECT_EQ(tc.engines[p]->CommittedDeps(Dot{0, 1}), ref);
  }
}

// A recovery racing the (alive but slow) initial coordinator: whatever is decided,
// there is exactly one decision (Invariant 1). We recover while the coordinator is
// merely partitioned, then heal the partition.
TEST(AtlasRecoveryTest, RecoveryRacesSlowCoordinator) {
  RecCluster tc(5, 2);
  tc.sim->Submit(0, smr::MakePut(1, 1, "k", "v"));
  tc.sim->RunFor(11 * kMillisecond);  // MCollect out; acks on the way back
  // Partition 0 (acks will be dropped at delivery; 0 cannot commit).
  for (ProcessId p = 1; p < 5; p++) {
    tc.sim->SetLinkDown(0, p, true);
    tc.sim->SetLinkDown(p, 0, true);
  }
  tc.engines[2]->Recover(Dot{0, 1});
  tc.sim->RunFor(2 * kSecond);
  // Heal.
  for (ProcessId p = 1; p < 5; p++) {
    tc.sim->SetLinkDown(0, p, false);
    tc.sim->SetLinkDown(p, 0, false);
  }
  tc.sim->RunUntilIdle();
  // All five replicas executed the command exactly once with equal deps.
  DepSet ref = tc.engines[2]->CommittedDeps(Dot{0, 1});
  for (ProcessId p = 0; p < 5; p++) {
    EXPECT_EQ(tc.engines[p]->PhaseOf(Dot{0, 1}), AtlasEngine::Phase::kExecute);
    EXPECT_EQ(tc.engines[p]->CommittedDeps(Dot{0, 1}), ref) << "process " << p;
    EXPECT_EQ(tc.ExecCountAt(p), 1u);
  }
}

// After recovery, dependent commands from other clients proceed (no permanent block).
TEST(AtlasRecoveryTest, DependentCommandsUnblockAfterRecovery) {
  RecCluster tc(5, 2);
  // 0 submits and reaches only its fast quorum, then dies.
  tc.sim->Submit(0, smr::MakePut(1, 1, "hot", "v"));
  tc.sim->RunFor(11 * kMillisecond);
  tc.sim->Crash(0);
  // A survivor submits a conflicting command: its deps include the dead dot, so it
  // blocks in execution until recovery commits <0,1>.
  tc.sim->Submit(1, smr::MakePut(2, 1, "hot", "v"));
  tc.sim->RunFor(200 * kMillisecond);
  EXPECT_EQ(tc.ExecCountAt(1), 0u);  // blocked
  tc.SuspectEverywhere(0);
  tc.sim->RunUntilIdle();
  for (ProcessId p = 1; p < 5; p++) {
    EXPECT_GE(tc.ExecCountAt(p), 1u) << "process " << p << " still blocked";
  }
}

// Automatic recovery through OnSuspect + periodic scan (no explicit Recover calls).
TEST(AtlasRecoveryTest, SuspectScanRecoversAllPendingDots) {
  RecCluster tc(5, 1);
  for (uint64_t i = 1; i <= 5; i++) {
    tc.sim->Submit(0, smr::MakePut(1, i, "key" + std::to_string(i), "v"));
  }
  tc.sim->RunFor(11 * kMillisecond);  // MCollects delivered, no commits yet
  tc.sim->Crash(0);
  tc.SuspectEverywhere(0);
  tc.sim->RunUntilIdle();
  for (ProcessId p = 1; p < 5; p++) {
    EXPECT_EQ(tc.ExecCountAt(p), 5u) << "process " << p;
  }
}

}  // namespace
}  // namespace atlas
