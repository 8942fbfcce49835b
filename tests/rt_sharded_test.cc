// Partition routing at the client edge of a sharded TCP replica: 3 nodes,
// P=4. A client command whose keys span two partitions cannot be ordered by
// one shard, so the node rejects it with a dropped reply instead of crashing
// the replica, and a routable command on the same connection still
// completes. (TCP == simulator parity at P=4 lives in rt_threaded_test.)
#include <gtest/gtest.h>

#include <unistd.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/rt/node.h"
#include "src/smr/deployment.h"
#include "src/smr/partitioner.h"

namespace rt {
namespace {

constexpr uint32_t kNodes = 3;
constexpr uint32_t kPartitions = 4;

smr::DeploymentOptions MakeOptions() {
  smr::DeploymentOptions d;
  d.protocol = smr::Protocol::kAtlas;
  d.n = kNodes;
  d.f = 1;
  d.partitions = kPartitions;
  return d;
}

// Cross-partition client commands cannot be ordered by one shard; the node must
// reject them cleanly (dropped reply) instead of crashing the replica.
TEST(RtShardedTest, UnroutableClientCommandIsRejected) {
  for (int attempt = 0; attempt < 5; attempt++) {
    uint16_t base =
        static_cast<uint16_t>(44000 + attempt * 16 + (getpid() % 512));
    std::vector<PeerAddress> addrs;
    for (uint32_t i = 0; i < kNodes; i++) {
      addrs.push_back(PeerAddress{"127.0.0.1", static_cast<uint16_t>(base + i)});
    }
    std::vector<std::unique_ptr<smr::Deployment>> replicas;
    std::vector<std::unique_ptr<Node>> nodes;
    bool bind_ok = true;
    for (uint32_t i = 0; i < kNodes; i++) {
      replicas.push_back(
          std::make_unique<smr::Deployment>(MakeOptions()));
      nodes.push_back(std::make_unique<Node>(i, addrs, replicas[i].get()));
      if (!nodes.back()->Listen()) {
        bind_ok = false;
        break;
      }
    }
    if (!bind_ok) {
      continue;
    }
    std::vector<std::thread> node_threads;
    for (uint32_t i = 0; i < kNodes; i++) {
      node_threads.emplace_back([&, i]() { nodes[i]->Run(); });
    }
    // Run all client calls first, then stop and join the node threads before any
    // assertion fires (a fatal failure with joinable threads would terminate).
    bool connected = false;
    bool split_ok = false;
    bool routable_ok = false;
    std::string split_result;
    std::string routable_result;
    std::string other;
    {
      Client client("127.0.0.1", addrs[0].port);
      for (int i = 0; i < 200 && !connected; i++) {
        connected = client.Connect();
        if (!connected) {
          usleep(20 * 1000);
        }
      }
      if (connected) {
        // Find two keys in different partitions and span them with one kMPut.
        smr::Partitioner part(kPartitions);
        for (int i = 0; other.empty() && i < 1000; i++) {
          std::string k = "x" + std::to_string(i);
          if (part.ShardOf(k) != part.ShardOf("base")) {
            other = k;
          }
        }
        smr::Command split = smr::MakePut(1, 1, "base", "v");
        split.op = smr::Op::kMPut;
        split.more_keys.push_back(other);
        split_ok = client.Call(split, &split_result);
        // The replica is still healthy: a routable command completes normally.
        routable_ok = client.Call(smr::MakePut(1, 2, "base", "v"), &routable_result);
      }
    }
    for (auto& node : nodes) {
      node->Stop();
    }
    for (auto& t : node_threads) {
      t.join();
    }
    ASSERT_TRUE(connected);
    ASSERT_FALSE(other.empty());
    ASSERT_TRUE(split_ok);
    EXPECT_EQ(split_result, "<dropped>");
    ASSERT_TRUE(routable_ok);
    EXPECT_EQ(routable_result, "");
    return;
  }
  FAIL() << "could not bind a port block after 5 attempts";
}

}  // namespace
}  // namespace rt
