// Exhaustive small-scale invariant checks: Property 2 over all crash subsets, and
// Invariant 2' across workload / timing / configuration sweeps (parameterized).
#include <gtest/gtest.h>

#include <memory>

#include "src/core/atlas.h"
#include "src/sim/simulator.h"

namespace atlas {
namespace {

using common::DepSet;
using common::Dot;
using common::kMillisecond;
using common::ProcessId;
using common::Quorum;

struct MiniCluster {
  MiniCluster(uint32_t n, uint32_t f, uint64_t seed, common::Duration jitter = 0,
              bool prune = true) {
    sim::Simulator::Options opts;
    opts.seed = seed;
    sim = std::make_unique<sim::Simulator>(
        std::make_unique<sim::UniformLatency>(10 * kMillisecond, jitter), opts);
    for (uint32_t i = 0; i < n; i++) {
      Config cfg;
      cfg.n = n;
      cfg.f = f;
      cfg.prune_slow_path = prune;
      cfg.recovery.recovery_scan_interval = 100 * kMillisecond;
      cfg.recovery.recovery_retry_interval = 200 * kMillisecond;
      engines.push_back(std::make_unique<AtlasEngine>(cfg));
      sim->AddEngine(engines.back().get());
    }
    sim->SetExecutedHandler(
        [this](ProcessId p, const Dot& d, const smr::Command& c) {
          executed.emplace_back(p, d, c);
        });
    sim->Start();
  }

  std::unique_ptr<sim::Simulator> sim;
  std::vector<std::unique_ptr<AtlasEngine>> engines;
  std::vector<std::tuple<ProcessId, Dot, smr::Command>> executed;
};

// Property 2, exhaustively: after a fast-path commit known ONLY to the coordinator,
// crash the coordinator plus every possible choice of f-1 other fast-quorum members;
// the survivors must always recover exactly the committed dependencies.
TEST(AtlasInvariantTest, Property2AllCrashSubsets) {
  const uint32_t n = 5;
  const uint32_t f = 2;
  // Fast quorum of coordinator 0 under uniform latency is {0,1,2,3}.
  const ProcessId coordinator = 0;
  const std::vector<ProcessId> other_members = {1, 2, 3};
  for (ProcessId second_crash : other_members) {
    MiniCluster tc(n, f, 1000 + second_crash);
    // A conflicting command from process 4 seeds nonempty dependencies.
    tc.sim->Submit(4, smr::MakePut(9, 1, "k", "v0"));
    tc.sim->RunUntilIdle();
    // Coordinator commits on the fast path but its MCommit reaches nobody.
    tc.sim->Submit(coordinator, smr::MakePut(1, 1, "k", "v1"));
    tc.sim->RunFor(19 * kMillisecond);
    for (ProcessId p = 1; p < n; p++) {
      tc.sim->SetLinkDown(coordinator, p, true);
    }
    tc.sim->RunFor(5 * kMillisecond);
    ASSERT_EQ(tc.engines[coordinator]->PhaseOf(Dot{0, 1}),
              AtlasEngine::Phase::kExecute);
    DepSet committed = tc.engines[coordinator]->CommittedDeps(Dot{0, 1});
    tc.sim->Crash(coordinator);
    tc.sim->Crash(second_crash);
    for (ProcessId p = 0; p < n; p++) {
      if (!tc.sim->IsCrashed(p)) {
        tc.engines[p]->OnSuspect(coordinator);
        tc.engines[p]->OnSuspect(second_crash);
      }
    }
    tc.sim->RunUntilIdle();
    for (ProcessId p = 0; p < n; p++) {
      if (tc.sim->IsCrashed(p)) {
        continue;
      }
      EXPECT_EQ(tc.engines[p]->PhaseOf(Dot{0, 1}), AtlasEngine::Phase::kExecute)
          << "survivor " << p << " (crashed " << second_crash << ")";
      EXPECT_EQ(tc.engines[p]->CommittedDeps(Dot{0, 1}), committed)
          << "survivor " << p << " (crashed " << second_crash
          << ") recovered different dependencies: Property 2 violated";
    }
  }
}

struct SweepParam {
  uint32_t n;
  uint32_t f;
  bool prune;
  uint64_t seed;
};

class InvariantSweep : public ::testing::TestWithParam<SweepParam> {};

// Invariant 2' + execution consistency under concurrent conflicting submissions with
// jittered delivery: for every conflicting pair, a dependency path must exist in one
// direction, and all replicas must execute the hot key's writes identically.
TEST_P(InvariantSweep, ConflictingPairsAlwaysConnected) {
  const SweepParam param = GetParam();
  MiniCluster tc(param.n, param.f, param.seed, /*jitter=*/8 * kMillisecond,
                 param.prune);
  const int kPerProc = 6;
  for (ProcessId p = 0; p < param.n; p++) {
    for (int i = 0; i < kPerProc; i++) {
      tc.sim->Submit(p, smr::MakePut(p + 1, static_cast<uint64_t>(i) + 1, "hot", "v"));
      if (i % 2 == 0) {
        tc.sim->RunFor(3 * kMillisecond);  // partial overlap between submissions
      }
    }
  }
  tc.sim->RunUntilIdle();

  // Collect all hot-key dots and their agreed deps.
  std::vector<Dot> dots;
  for (ProcessId p = 0; p < param.n; p++) {
    for (uint64_t s = 1; s <= kPerProc; s++) {
      dots.push_back(Dot{p, s});
    }
  }
  std::unordered_map<Dot, DepSet, common::DotHash> deps;
  for (const Dot& d : dots) {
    DepSet ref = tc.engines[0]->CommittedDeps(d);
    deps[d] = ref;
    for (uint32_t p = 1; p < param.n; p++) {
      ASSERT_EQ(tc.engines[p]->CommittedDeps(d), ref)
          << "Invariant 1 violated at " << common::ToString(d);
    }
  }
  // Connectivity: for each pair, BFS in either direction.
  auto reaches = [&](const Dot& from, const Dot& to) {
    std::vector<Dot> stack{from};
    std::unordered_map<Dot, bool, common::DotHash> seen;
    while (!stack.empty()) {
      Dot d = stack.back();
      stack.pop_back();
      if (d == to) {
        return true;
      }
      if (seen[d]) {
        continue;
      }
      seen[d] = true;
      auto it = deps.find(d);
      if (it != deps.end()) {
        stack.insert(stack.end(), it->second.begin(), it->second.end());
      }
    }
    return false;
  };
  for (size_t i = 0; i < dots.size(); i++) {
    for (size_t j = i + 1; j < dots.size(); j++) {
      EXPECT_TRUE(reaches(dots[i], dots[j]) || reaches(dots[j], dots[i]))
          << common::ToString(dots[i]) << " and " << common::ToString(dots[j])
          << " are conflicting but unordered (Invariant 2' chain broken)";
    }
  }
  // Execution order of the hot key identical at all replicas.
  auto order_at = [&](ProcessId p) {
    std::vector<Dot> out;
    for (const auto& [proc, dot, cmd] : tc.executed) {
      if (proc == p) {
        out.push_back(dot);
      }
    }
    return out;
  };
  auto ref = order_at(0);
  EXPECT_EQ(ref.size(), dots.size());
  for (uint32_t p = 1; p < param.n; p++) {
    EXPECT_EQ(order_at(p), ref);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, InvariantSweep,
    ::testing::Values(SweepParam{3, 1, true, 1}, SweepParam{5, 1, true, 2},
                      SweepParam{5, 2, true, 3}, SweepParam{5, 2, false, 4},
                      SweepParam{7, 2, true, 5}, SweepParam{7, 3, true, 6},
                      SweepParam{7, 3, false, 7}, SweepParam{9, 4, true, 8}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "n" + std::to_string(info.param.n) + "f" + std::to_string(info.param.f) +
             (info.param.prune ? "p" : "np") + "s" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace atlas
