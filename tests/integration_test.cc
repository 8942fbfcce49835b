// End-to-end integration tests: every protocol on a WAN cluster with closed-loop
// clients, validated against the SMR specification by the history checker
// (Validity/Integrity/Ordering + convergence => linearizability, per §3.4/§B).
#include <gtest/gtest.h>

#include <memory>

#include "src/harness/cluster.h"
#include "src/paxos/multipaxos.h"
#include "src/sim/regions.h"
#include "src/wl/workload.h"

namespace harness {
namespace {

using common::kMillisecond;
using common::kSecond;

struct ProtoParam {
  Protocol protocol;
  uint32_t f;
  bool nfr;
};

class ProtocolIntegrationTest : public ::testing::TestWithParam<ProtoParam> {};

TEST_P(ProtocolIntegrationTest, ConflictHeavyWorkloadSatisfiesSmrSpec) {
  const ProtoParam param = GetParam();
  ClusterOptions opts;
  opts.protocol = param.protocol;
  opts.f = param.f;
  opts.nfr = param.nfr;
  opts.site_regions = sim::ScaleOutSites(5);
  opts.seed = 31;
  opts.enable_checker = true;
  Cluster cluster(opts);
  auto hot = std::make_shared<wl::MicroWorkload>(0.5, 64);
  for (size_t r = 0; r < 5; r++) {
    ClientSpec spec;
    spec.region = opts.site_regions[r];
    spec.workload = hot;
    spec.max_ops = 20;
    cluster.AddClients(spec, 2);
  }
  cluster.Start();
  auto result = cluster.Finish();
  EXPECT_TRUE(result.ok) << result.Describe();
  EXPECT_EQ(cluster.total_completed(), 5u * 2 * 20);
  // All replicas converge to the same state.
  uint64_t digest = cluster.store(0).StateDigest();
  for (uint32_t p = 1; p < cluster.n(); p++) {
    EXPECT_EQ(cluster.store(p).StateDigest(), digest);
  }
}

TEST_P(ProtocolIntegrationTest, YcsbMixSatisfiesSmrSpec) {
  const ProtoParam param = GetParam();
  ClusterOptions opts;
  opts.protocol = param.protocol;
  opts.f = param.f;
  opts.nfr = param.nfr;
  opts.site_regions = sim::ScaleOutSites(5);
  opts.seed = 33;
  opts.enable_checker = true;
  Cluster cluster(opts);
  auto ycsb = std::make_shared<wl::YcsbWorkload>(100, 0.5, 64);  // tiny keyspace: hot
  for (size_t r = 0; r < 5; r++) {
    ClientSpec spec;
    spec.region = opts.site_regions[r];
    spec.workload = ycsb;
    spec.max_ops = 15;
    cluster.AddClients(spec, 2);
  }
  cluster.Start();
  auto result = cluster.Finish();
  EXPECT_TRUE(result.ok) << result.Describe();
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolIntegrationTest,
    ::testing::Values(ProtoParam{Protocol::kAtlas, 1, false},
                      ProtoParam{Protocol::kAtlas, 2, false},
                      ProtoParam{Protocol::kAtlas, 1, true},
                      ProtoParam{Protocol::kAtlas, 2, true},
                      ProtoParam{Protocol::kEPaxos, 2, false},
                      ProtoParam{Protocol::kEPaxos, 2, true},
                      ProtoParam{Protocol::kFPaxos, 1, false},
                      ProtoParam{Protocol::kFPaxos, 2, false},
                      ProtoParam{Protocol::kPaxos, 2, false},
                      ProtoParam{Protocol::kMencius, 2, false}),
    [](const ::testing::TestParamInfo<ProtoParam>& info) {
      std::string name = ProtocolName(info.param.protocol);
      name += "_f" + std::to_string(info.param.f);
      if (info.param.nfr) {
        name += "_nfr";
      }
      return name;
    });

// Seed sweep: Atlas under randomized jitter and both index modes must satisfy the
// spec for every seed (property-style schedule exploration).
class AtlasScheduleSweep : public ::testing::TestWithParam<int> {};

TEST_P(AtlasScheduleSweep, RandomSchedulesSatisfySpec) {
  for (smr::IndexMode mode : {smr::IndexMode::kCompressed, smr::IndexMode::kFull}) {
    ClusterOptions opts;
    opts.protocol = Protocol::kAtlas;
    opts.f = 2;
    opts.index_mode = mode;
    opts.site_regions = sim::ScaleOutSites(5);
    opts.seed = 1000 + static_cast<uint64_t>(GetParam());
    opts.jitter_frac = 0.5;  // violent jitter: many interleavings
    opts.enable_checker = true;
    Cluster cluster(opts);
    auto hot = std::make_shared<wl::MicroWorkload>(0.8, 16);
    for (size_t r = 0; r < 5; r++) {
      ClientSpec spec;
      spec.region = opts.site_regions[r];
      spec.workload = hot;
      spec.max_ops = 12;
      cluster.AddClients(spec, 2);
    }
    cluster.Start();
    auto result = cluster.Finish();
    EXPECT_TRUE(result.ok) << "seed " << opts.seed << ": " << result.Describe();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AtlasScheduleSweep, ::testing::Range(0, 16));

// Crash integration: coordinator site dies mid-load; survivors recover and the
// history stays valid (the Figure 8 scenario as a correctness test).
TEST(CrashIntegrationTest, AtlasSurvivesSiteCrash) {
  ClusterOptions opts;
  opts.protocol = Protocol::kAtlas;
  opts.f = 1;
  opts.site_regions = sim::ThreeSites();  // TW, FI, SC
  opts.seed = 77;
  opts.enable_checker = true;
  Cluster cluster(opts);
  auto shared = std::make_shared<wl::FixedKeyWorkload>(true, 32);
  auto unique = std::make_shared<wl::FixedKeyWorkload>(false, 32);
  for (size_t r = 0; r < 3; r++) {
    ClientSpec spec;
    spec.region = opts.site_regions[r];
    spec.workload = shared;
    cluster.AddClients(spec, 2);
    spec.workload = unique;
    cluster.AddClients(spec, 2);
  }
  cluster.ScheduleCrash(/*site=*/0, /*at=*/2 * kSecond,
                        /*detection_timeout=*/1 * kSecond);
  cluster.Start();
  cluster.RunFor(10 * kSecond);
  uint64_t before_drain = cluster.total_completed();
  EXPECT_GT(before_drain, 0u);
  auto result = cluster.Finish();
  EXPECT_TRUE(result.ok) << result.Describe();
  // Clients from the crashed site kept making progress after migration.
  const auto& ts1 = cluster.SiteThroughput(1);
  const auto& ts2 = cluster.SiteThroughput(2);
  uint64_t late = 0;
  for (common::Time t = 5 * kSecond; t < 10 * kSecond; t += kSecond) {
    late += ts1.At(t) + ts2.At(t);
  }
  EXPECT_GT(late, 0u) << "no progress after the crash";
}

TEST(CrashIntegrationTest, PaxosLeaderFailoverUnderLoad) {
  ClusterOptions opts;
  opts.protocol = Protocol::kPaxos;
  opts.f = 1;
  opts.site_regions = sim::ThreeSites();
  opts.leader = 0;  // TW leads, then dies
  opts.seed = 78;
  opts.enable_checker = true;
  Cluster cluster(opts);
  auto w = std::make_shared<wl::MicroWorkload>(0.2, 32);
  for (size_t r = 0; r < 3; r++) {
    ClientSpec spec;
    spec.region = opts.site_regions[r];
    spec.workload = w;
    cluster.AddClients(spec, 3);
  }
  cluster.ScheduleCrash(0, 2 * kSecond, 1 * kSecond);
  cluster.Start();
  cluster.RunFor(15 * kSecond);
  auto result = cluster.Finish();
  EXPECT_TRUE(result.ok) << result.Describe();
  // A new leader took over.
  bool leader_alive = false;
  for (uint32_t p = 1; p < 3; p++) {
    if (static_cast<paxos::PaxosEngine&>(cluster.replica(p).shard_engine(0))
            .IsLeader()) {
      leader_alive = true;
    }
  }
  EXPECT_TRUE(leader_alive);
}

// Non-FIFO stress: protocols must tolerate message reordering.
TEST(ReorderingIntegrationTest, AtlasToleratesNonFifoLinks) {
  ClusterOptions opts;
  opts.protocol = Protocol::kAtlas;
  opts.f = 2;
  opts.site_regions = sim::ScaleOutSites(5);
  opts.seed = 90;
  opts.fifo_links = false;
  opts.jitter_frac = 1.0;
  opts.enable_checker = true;
  Cluster cluster(opts);
  auto hot = std::make_shared<wl::MicroWorkload>(0.6, 16);
  for (size_t r = 0; r < 5; r++) {
    ClientSpec spec;
    spec.region = opts.site_regions[r];
    spec.workload = hot;
    spec.max_ops = 10;
    cluster.AddClients(spec, 2);
  }
  cluster.Start();
  auto result = cluster.Finish();
  EXPECT_TRUE(result.ok) << result.Describe();
}

}  // namespace
}  // namespace harness
