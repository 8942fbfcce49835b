// Real-runtime example: a 3-replica Atlas KVS over actual TCP sockets (localhost),
// exercised by a client issuing reads and writes — the same replica assembly
// (smr::Deployment) that the simulator harness drives, run by the epoll runtime.
//
//   $ ./build/kvs_cluster                       # one engine (and worker) per node
//   $ ./build/kvs_cluster --partitions 4        # 4 engines per node, key-space sharded,
//                                               # one worker thread per shard
//   $ ./build/kvs_cluster --partitions 4 --batch-window-ms 5 --batch-max 32
//   $ ./build/kvs_cluster --data-dir /tmp/kvs   # durable: per-shard commit log +
//                                               # snapshots under <dir>/site-N/;
//                                               # rerun with the same dir to
//                                               # recover the store from disk
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/rt/node.h"
#include "src/smr/deployment.h"

int main(int argc, char** argv) {
  constexpr uint32_t kReplicas = 3;
  uint32_t partitions = 1;
  uint64_t batch_window_ms = 0;
  size_t batch_max = 64;
  std::string data_dir;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--partitions") == 0 && i + 1 < argc) {
      partitions = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--batch-window-ms") == 0 && i + 1 < argc) {
      batch_window_ms = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--batch-max") == 0 && i + 1 < argc) {
      batch_max = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--data-dir") == 0 && i + 1 < argc) {
      data_dir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--partitions N] [--batch-window-ms N] "
                   "[--batch-max N] [--data-dir DIR]\n",
                   argv[0]);
      return 2;
    }
  }
  if (partitions < 1 || partitions > smr::ShardedEngine::kMaxPartitions ||
      batch_max < 1) {
    std::fprintf(stderr, "--partitions must be 1..%u and --batch-max >= 1\n",
                 smr::ShardedEngine::kMaxPartitions);
    return 2;
  }

  const uint16_t base_port = static_cast<uint16_t>(39000 + (getpid() % 1000));
  std::vector<rt::PeerAddress> addrs;
  for (uint32_t i = 0; i < kReplicas; i++) {
    addrs.push_back(rt::PeerAddress{"127.0.0.1", static_cast<uint16_t>(base_port + i)});
  }

  // One Deployment per node: the same assembly layer the simulator harness uses,
  // so P>1 gives each node `partitions` independent Atlas engines with per-shard
  // stores and (optionally) submission batching — over real sockets.
  std::vector<std::unique_ptr<smr::Deployment>> replicas;
  std::vector<std::unique_ptr<rt::Node>> nodes;
  for (uint32_t i = 0; i < kReplicas; i++) {
    smr::DeploymentOptions d;
    d.protocol = smr::Protocol::kAtlas;
    d.n = kReplicas;
    d.f = 1;
    d.partitions = partitions;
    d.batch_window = batch_window_ms * common::kMillisecond;
    d.batch_max = batch_max;
    if (!data_dir.empty()) {
      // Durable replicas: every executed command is logged (batched fsync)
      // under <data_dir>/site-N/shard-M/ and snapshots bound replay length.
      // A rerun with the same --data-dir recovers the stores from disk before
      // joining the mesh.
      d.data_dir = data_dir + "/site-" + std::to_string(i);
    }
    replicas.push_back(std::make_unique<smr::Deployment>(std::move(d)));
    nodes.push_back(std::make_unique<rt::Node>(i, addrs, replicas[i].get()));
    if (!nodes.back()->Listen()) {
      std::fprintf(stderr, "failed to bind port %u\n", addrs[i].port);
      return 1;
    }
  }
  std::printf("3 ATLAS replicas (P=%u", partitions);
  if (!data_dir.empty()) {
    std::printf(", durable in %s", data_dir.c_str());
  }
  std::printf(") listening on 127.0.0.1:%u..%u\n", base_port,
              base_port + kReplicas - 1);

  std::vector<std::thread> threads;
  for (uint32_t i = 0; i < kReplicas; i++) {
    threads.emplace_back([&, i]() { nodes[i]->Run(); });
  }

  // Clients talk to different replicas; SMR keeps them linearizable.
  rt::Client alice("127.0.0.1", addrs[0].port);
  rt::Client bob("127.0.0.1", addrs[2].port);
  for (int attempt = 0; attempt < 100 && !alice.Connect(); attempt++) {
    usleep(20 * 1000);
  }
  if (!bob.Connect()) {
    std::fprintf(stderr, "client connect failed\n");
    return 1;
  }

  std::string result;
  auto call = [&](rt::Client& c, const char* who, const smr::Command& cmd) {
    if (!c.Call(cmd, &result)) {
      std::fprintf(stderr, "%s: call failed\n", who);
      exit(1);
    }
    std::printf("  %s: %-22s -> \"%s\"\n", who, cmd.ToString().c_str(), result.c_str());
  };

  std::printf("\nalice (replica 0) and bob (replica 2):\n");
  call(alice, "alice", smr::MakePut(1, 1, "tea", "green"));
  call(bob, "bob  ", smr::MakeGet(2, 1, "tea"));       // sees alice's write
  call(bob, "bob  ", smr::MakeRmw(2, 2, "tea", "+milk"));
  call(alice, "alice", smr::MakeGet(1, 2, "tea"));     // sees bob's update
  // Hit a few more keys so sharded runs touch several partitions.
  call(alice, "alice", smr::MakePut(1, 3, "coffee", "black"));
  call(bob, "bob  ", smr::MakePut(2, 3, "juice", "orange"));
  call(alice, "alice", smr::MakeGet(1, 4, "juice"));

  for (auto& node : nodes) {
    node->Stop();
  }
  for (auto& t : threads) {
    t.join();
  }
  std::printf("\nper-(replica, shard) digests:\n");
  for (uint32_t i = 0; i < kReplicas; i++) {
    std::printf("  replica %u:", i);
    for (uint32_t s = 0; s < partitions; s++) {
      std::printf(" %016llx",
                  static_cast<unsigned long long>(replicas[i]->store(s).StateDigest()));
    }
    std::printf("\n");
  }
  return 0;
}
