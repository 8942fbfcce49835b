// The benchmark's workloads: replica shape, data tier, key mix and load levels.
//
// Each workload stresses a different layer (see README.md for the reasoning):
//   micro_p1         unamortized per-command round: I/O tier, codec, Atlas fast path
//   micro_p4         shard workers, mailboxes and submission batching
//   micro_p4_durable micro_p4 plus src/dur (commit log, snapshots); the pair
//                    isolates what persistence costs
//   ycsb_n5          reads beside writes on zipfian hot keys with f=2, so the
//                    conflict index, dependency graph and slow path do work
#ifndef ATLASBENCH_WORKLOADS_H_
#define ATLASBENCH_WORKLOADS_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "src/smr/deployment.h"
#include "src/wl/workload.h"

namespace atlasbench {

// Client connections, one per replica 0..kConnections-1 (ycsb_n5 leaves
// replicas 3 and 4 without clients).
constexpr uint32_t kConnections = 3;
// Logical clients per connection in the open-loop phase, visited round-robin.
constexpr uint32_t kOpenClientsPerConn = 1024;
// Most open-loop requests in flight, all connections together. An arrival
// beyond it waits for a reply, and its latency still counts from its scheduled
// time. It is below kOpenClientsPerConn, so no logical client ever has two
// requests in flight, and it bounds what a shard inbox (8192 slots) must queue
// while the host lends the replicas less CPU than the offered load needs.
// Without it an inbox filled, the node's I/O tier dropped a protocol message
// after its bounded retry and the cluster wedged (ycsb_n5, one seed in seven).
constexpr size_t kOpenMaxOutstanding = 1024;
// Value size of every put, in bytes (paper §5.2).
constexpr size_t kValueSize = 100;

struct WorkloadSpec {
  const char* name;
  uint32_t n;
  uint32_t f;
  uint32_t partitions;
  bool durable;
  bool ycsb;
  double open_rate;         // Poisson arrivals per second, all connections together
  uint32_t closed_window;   // logical clients per connection in the closed loop
};

// The open rates keep the replicas busy on most of a 4-core host, where CPU
// time per command is steadiest (at half these rates wake-ups dominate it and
// it moves with the host). kOpenMaxOutstanding keeps them safe when the host
// lends less.
inline const WorkloadSpec kWorkloads[] = {
    {"micro_p1", 3, 1, 1, false, false, 50000, 16},
    {"micro_p4", 3, 1, 4, false, false, 100000, 64},
    {"micro_p4_durable", 3, 1, 4, true, false, 100000, 64},
    {"ycsb_n5", 5, 2, 1, false, true, 30000, 16},
};

inline const WorkloadSpec* FindWorkload(const char* name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (std::strcmp(w.name, name) == 0) {
      return &w;
    }
  }
  return nullptr;
}

// The command generator of a workload: the paper's §5.2 microbenchmark (2%
// of commands on one hot key per shard) or YCSB-A (1M records, zipf 0.99,
// 50% reads).
inline std::unique_ptr<wl::Workload> MakeGenerator(const WorkloadSpec& w) {
  if (w.ycsb) {
    return std::make_unique<wl::YcsbWorkload>(1000000, 0.5, kValueSize);
  }
  return std::make_unique<wl::PartitionedMicroWorkload>(w.partitions, 0.02,
                                                        kValueSize);
}

// Logical client ids: connection c owns [ClientBase(c), ClientBase(c) + 1024).
// Id 0 is reserved by the replicas for internal commands.
inline uint64_t ClientBase(uint32_t conn) {
  return 1 + static_cast<uint64_t>(conn) * kOpenClientsPerConn;
}

// The replica a client's connection is attached to (connection c -> replica c).
inline uint32_t HomeReplica(uint64_t client) {
  return static_cast<uint32_t>((client - 1) / kOpenClientsPerConn);
}

// The open-loop schedule visits connections round-robin, and the logical
// clients of a connection round-robin: the client of the i-th arrival.
inline uint64_t OpenLoopClient(uint64_t i) {
  auto conn = static_cast<uint32_t>(i % kConnections);
  return ClientBase(conn) + (i / kConnections) % kOpenClientsPerConn;
}

// Seed of an input stream: stream 0 draws the arrival times, stream `client`
// the commands of that logical client.
inline uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return seed * 1000003 + stream;
}

// Replica `replica`'s assembly. Only `threaded` differs between the TCP run
// and the traced simulator run. No workload sets executor_threads or
// pin_cores, so removing either option cannot move a number.
inline smr::DeploymentOptions DeploymentFor(const WorkloadSpec& w, uint32_t replica,
                                            const std::string& data_dir,
                                            bool threaded) {
  smr::DeploymentOptions d;
  d.protocol = smr::Protocol::kAtlas;
  d.n = w.n;
  d.f = w.f;
  d.partitions = w.partitions;
  // Ignored at P = 1; at P > 1 a shard drains its submission batch once per
  // window or at batch_max commands.
  d.batch_window = 1 * common::kMillisecond;
  d.batch_max = 64;
  d.threaded = threaded;
  if (w.durable) {
    d.data_dir = data_dir + "/site-" + std::to_string(replica);
    d.snapshot_every = 4096;
    d.fsync_mode = dur::FsyncMode::kBatch;
  }
  return d;
}

}  // namespace atlasbench

#endif  // ATLASBENCH_WORKLOADS_H_
