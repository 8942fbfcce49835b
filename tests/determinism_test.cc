// Pins the exact counters of seeded simulator runs. The discrete-event simulator
// promises bit-for-bit reproducibility for a fixed seed, and the hot-path work
// (typed events, interned conflict keys, small-buffer DepSets, codec reuse) must not
// change protocol outcomes. These tests assert one seeded run's counters so any
// behavioural drift — reordered events, different conflict sets, changed fast-path
// decisions — fails loudly rather than silently shifting benchmark results.
//
// The pinned values were captured from the pre-refactor (allocating) implementation;
// the allocation-free hot path reproduces them exactly.
#include <gtest/gtest.h>

#include "src/fault/campaign.h"
#include "src/harness/cluster.h"
#include "src/sim/regions.h"
#include "src/wl/workload.h"

namespace {

struct RunCounters {
  uint64_t messages_delivered = 0;
  uint64_t fast_paths = 0;
  uint64_t slow_paths = 0;
  uint64_t total_executions = 0;
  uint64_t completed = 0;
  uint64_t digest0 = 0;
};

RunCounters SeededRun(harness::Protocol protocol, smr::IndexMode mode) {
  harness::ClusterOptions opts;
  opts.protocol = protocol;
  // f=2 with 5 sites: the fast-path condition is non-trivial (threshold 2), so these
  // runs exercise slow paths, threshold unions, and dependency pruning too.
  opts.f = 2;
  opts.index_mode = mode;
  opts.site_regions = sim::ScaleOutSites(5);
  opts.seed = 42;
  opts.enable_checker = true;

  harness::Cluster cluster(opts);
  auto workload = std::make_shared<wl::MicroWorkload>(0.10, 64);
  for (size_t region : sim::ClientSites()) {
    harness::ClientSpec cs;
    cs.region = region;
    cs.workload = workload;
    cs.max_ops = 20;
    cluster.AddClients(cs, 2);
  }
  cluster.SetMeasureWindow(0, 10 * common::kSecond);
  cluster.Start();
  cluster.RunFor(10 * common::kSecond);
  chk::CheckResult result = cluster.Finish(/*abort_on_error=*/false);
  EXPECT_TRUE(result.ok) << result.Describe();

  RunCounters c;
  c.messages_delivered = cluster.simulator().messages_delivered();
  harness::Metrics m = cluster.Snapshot();
  c.fast_paths = m.fast_paths;
  c.slow_paths = m.slow_paths;
  c.total_executions = m.total_executions;
  c.completed = cluster.total_completed();
  c.digest0 = cluster.store(0).StateDigest();
  return c;
}

// Pinned counters for seed 42 (captured from the pre-refactor implementation).
constexpr uint64_t kPinDelivered = 5284;
constexpr uint64_t kPinFast = 499;
constexpr uint64_t kPinSlow = 21;
constexpr uint64_t kPinExec = 2600;
constexpr uint64_t kPinCompleted = 520;
constexpr uint64_t kPinDigest0 = 16319399153968832379ull;
constexpr uint64_t kPinFullDelivered = 5236;
constexpr uint64_t kPinFullFast = 511;
constexpr uint64_t kPinFullSlow = 9;

// Two identical runs must agree on everything (sanity for the pins below).
TEST(DeterminismTest, SameSeedSameCounters) {
  RunCounters a = SeededRun(harness::Protocol::kAtlas, smr::IndexMode::kCompressed);
  RunCounters b = SeededRun(harness::Protocol::kAtlas, smr::IndexMode::kCompressed);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.fast_paths, b.fast_paths);
  EXPECT_EQ(a.slow_paths, b.slow_paths);
  EXPECT_EQ(a.total_executions, b.total_executions);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.digest0, b.digest0);
}

TEST(DeterminismTest, PinnedAtlasCompressed) {
  RunCounters c = SeededRun(harness::Protocol::kAtlas, smr::IndexMode::kCompressed);
  std::printf("atlas/compressed: delivered=%llu fast=%llu slow=%llu exec=%llu "
              "completed=%llu digest0=%llu\n",
              (unsigned long long)c.messages_delivered, (unsigned long long)c.fast_paths,
              (unsigned long long)c.slow_paths, (unsigned long long)c.total_executions,
              (unsigned long long)c.completed, (unsigned long long)c.digest0);
  EXPECT_EQ(c.messages_delivered, kPinDelivered);
  EXPECT_EQ(c.fast_paths, kPinFast);
  EXPECT_EQ(c.slow_paths, kPinSlow);
  EXPECT_EQ(c.total_executions, kPinExec);
  EXPECT_EQ(c.completed, kPinCompleted);
  EXPECT_EQ(c.digest0, kPinDigest0);
}

TEST(DeterminismTest, PinnedAtlasFull) {
  RunCounters c = SeededRun(harness::Protocol::kAtlas, smr::IndexMode::kFull);
  std::printf("atlas/full: delivered=%llu fast=%llu slow=%llu exec=%llu "
              "completed=%llu digest0=%llu\n",
              (unsigned long long)c.messages_delivered, (unsigned long long)c.fast_paths,
              (unsigned long long)c.slow_paths, (unsigned long long)c.total_executions,
              (unsigned long long)c.completed, (unsigned long long)c.digest0);
  EXPECT_EQ(c.messages_delivered, kPinFullDelivered);
  EXPECT_EQ(c.fast_paths, kPinFullFast);
  EXPECT_EQ(c.slow_paths, kPinFullSlow);
}

// The fault-campaign reproducibility contract: one (pack, seed, protocol,
// partitions) tuple fully determines a run. Two executions must produce
// byte-identical fault schedules (the injector's decision fold) and identical
// final state (the fold over every full replica's per-shard applied count and
// store digest), so a failing tuple printed by `fault_campaign` reruns exactly.
TEST(DeterminismTest, FaultPackSameSeedSameScheduleAndDigests) {
  for (harness::Protocol proto :
       {harness::Protocol::kAtlas, harness::Protocol::kEPaxos,
        harness::Protocol::kMencius}) {
    fault::RunSpec spec;
    spec.pack = "kill_one_replica";
    spec.seed = 7;
    spec.protocol = proto;
    fault::RunResult a = fault::RunScenario(spec);
    fault::RunResult b = fault::RunScenario(spec);
    ASSERT_TRUE(a.pass) << fault::RerunCommand(spec) << ": "
                        << (a.failures.empty() ? "" : a.failures[0]);
    EXPECT_EQ(a.schedule_digest, b.schedule_digest) << fault::RerunCommand(spec);
    EXPECT_EQ(a.store_digest, b.store_digest) << fault::RerunCommand(spec);
    EXPECT_EQ(a.completed, b.completed) << fault::RerunCommand(spec);
    EXPECT_EQ(a.delivered, b.delivered) << fault::RerunCommand(spec);
    EXPECT_EQ(a.inject.sends_seen, b.inject.sends_seen);
    EXPECT_EQ(a.inject.dropped, b.inject.dropped);
  }
  // And a different seed must draw a different schedule: equal digests above are
  // only meaningful if the digest actually varies with the tuple.
  fault::RunSpec other;
  other.pack = "kill_one_replica";
  other.seed = 8;
  fault::RunResult base = fault::RunScenario(
      fault::RunSpec{"kill_one_replica", 7, harness::Protocol::kAtlas, 1});
  fault::RunResult moved = fault::RunScenario(other);
  EXPECT_NE(base.schedule_digest, moved.schedule_digest);
  EXPECT_NE(base.store_digest, moved.store_digest);
}

// Pins the recovery paths' outcomes: schedule digest, store digest and completed
// count of the crash, restart, partition and lossy-link packs, for both engines
// that share smr::RecoveryScheduler, unbatched at P=1 and batched (2 ms) at P=4.
// The same-seed test above would still pass if a change moved every recovery run
// the same way; these values would not. Captured from fault_campaign output.
TEST(DeterminismTest, PinnedRecoveryDigests) {
  using harness::Protocol;
  struct Pin {
    const char* pack;
    Protocol protocol;
    uint32_t partitions;
    uint64_t seed;
    uint64_t schedule_digest;
    uint64_t store_digest;
    uint64_t completed;
  };
  const Pin kPins[] = {
      {"kill_one_replica", Protocol::kAtlas, 1, 1,
       0xfb118a1139719099ull, 0xaf50ea282be0f952ull, 178},
      {"kill_one_replica", Protocol::kAtlas, 1, 2,
       0xb7a572d656ddcd66ull, 0xa657a0d135250983ull, 179},
      {"rolling_restarts", Protocol::kAtlas, 1, 1,
       0x887a6a557782f0f5ull, 0xf3f4519dbbafa4baull, 177},
      {"rolling_restarts", Protocol::kAtlas, 1, 2,
       0x69fe9c835311bfc4ull, 0x4526e59c9fc9e964ull, 160},
      {"partition_region_mid_commit", Protocol::kAtlas, 1, 1,
       0x3a4c490755b1c820ull, 0x2d8268595a178ca1ull, 180},
      {"partition_region_mid_commit", Protocol::kAtlas, 1, 2,
       0xc02a75f26c28e0a5ull, 0xe68cda9db94ab003ull, 179},
      {"grey_failure_slow_link", Protocol::kAtlas, 1, 1,
       0xeb9168aa81e2d41dull, 0x2746004c4baa0372ull, 180},
      {"grey_failure_slow_link", Protocol::kAtlas, 1, 2,
       0x73c7639c4a89d379ull, 0x10a23fffc1ed8f74ull, 180},
      {"kill_one_replica", Protocol::kAtlas, 4, 1,
       0xbb15ffd623bccf22ull, 0x592961487383bb44ull, 180},
      {"kill_one_replica", Protocol::kAtlas, 4, 2,
       0x13776f8fa45e9419ull, 0xe304527e48dfbb20ull, 180},
      {"rolling_restarts", Protocol::kAtlas, 4, 1,
       0xa01d27d02c53a4caull, 0x8e23b5894d6157feull, 180},
      {"rolling_restarts", Protocol::kAtlas, 4, 2,
       0x8504b95b904f860dull, 0x0d2877f66655a650ull, 178},
      {"partition_region_mid_commit", Protocol::kAtlas, 4, 1,
       0xace044f92a5a137eull, 0xc9a8cf04226ce041ull, 180},
      {"partition_region_mid_commit", Protocol::kAtlas, 4, 2,
       0x99189f3dfa798d8cull, 0x83bdb40c4fc6715dull, 179},
      {"grey_failure_slow_link", Protocol::kAtlas, 4, 1,
       0x2c0eac964409c768ull, 0xca5762bc5da471a8ull, 180},
      {"grey_failure_slow_link", Protocol::kAtlas, 4, 2,
       0xd8712e409aef8ca1ull, 0xead1906b46f195a6ull, 180},
      {"kill_one_replica", Protocol::kEPaxos, 1, 1,
       0x387f80716a3bb705ull, 0x1b6c530b17744031ull, 169},
      {"kill_one_replica", Protocol::kEPaxos, 1, 2,
       0xdc39cf5a69fcac06ull, 0x849c937510228f52ull, 167},
      {"rolling_restarts", Protocol::kEPaxos, 1, 1,
       0xa20581880e2a0d24ull, 0xcf1d984331c1c593ull, 173},
      {"rolling_restarts", Protocol::kEPaxos, 1, 2,
       0xb9b11ac4ac7bcffeull, 0x280f46c1f7928980ull, 171},
      {"partition_region_mid_commit", Protocol::kEPaxos, 1, 1,
       0xacdeadd8b9414e27ull, 0x431c243bbeae0a50ull, 180},
      {"partition_region_mid_commit", Protocol::kEPaxos, 1, 2,
       0xc991e2a49af157bbull, 0xfda9be1b2765bfb5ull, 173},
      {"grey_failure_slow_link", Protocol::kEPaxos, 1, 1,
       0x1db10677f7ff631aull, 0x38f03849508d638eull, 173},
      {"grey_failure_slow_link", Protocol::kEPaxos, 1, 2,
       0xc882af90d41a9c0bull, 0x7083a128a35de151ull, 176},
      {"kill_one_replica", Protocol::kEPaxos, 4, 1,
       0x306dcabda06b5788ull, 0x27b82025cdbeecc0ull, 179},
      {"kill_one_replica", Protocol::kEPaxos, 4, 2,
       0x1b5d52aad46f0270ull, 0x8c5eb17a45977b37ull, 178},
      {"rolling_restarts", Protocol::kEPaxos, 4, 1,
       0x9ad6f3647e3668f7ull, 0x6e3b05028707d1b3ull, 180},
      {"rolling_restarts", Protocol::kEPaxos, 4, 2,
       0x655fef2070de56c1ull, 0x5c238782111ccc78ull, 169},
      {"partition_region_mid_commit", Protocol::kEPaxos, 4, 1,
       0x64f5d667bdc19ea3ull, 0x684707e9f41ce506ull, 180},
      {"partition_region_mid_commit", Protocol::kEPaxos, 4, 2,
       0xe97c141a8c4fa605ull, 0x3b5d46e267c7a5afull, 175},
      {"grey_failure_slow_link", Protocol::kEPaxos, 4, 1,
       0x796e698c0533bd0full, 0x6a7c424375c1e259ull, 180},
      {"grey_failure_slow_link", Protocol::kEPaxos, 4, 2,
       0x7108a233b1df8a89ull, 0xbb336e9468e56e01ull, 178},
  };
  for (const Pin& pin : kPins) {
    fault::RunSpec spec;
    spec.pack = pin.pack;
    spec.seed = pin.seed;
    spec.protocol = pin.protocol;
    spec.partitions = pin.partitions;
    spec.batch_window = pin.partitions > 1 ? 2 * common::kMillisecond : 0;
    fault::RunResult r = fault::RunScenario(spec);
    EXPECT_TRUE(r.pass) << fault::RerunCommand(spec);
    EXPECT_EQ(r.schedule_digest, pin.schedule_digest) << fault::RerunCommand(spec);
    EXPECT_EQ(r.store_digest, pin.store_digest) << fault::RerunCommand(spec);
    EXPECT_EQ(r.completed, pin.completed) << fault::RerunCommand(spec);
  }
}

}  // namespace
