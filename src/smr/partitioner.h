// Key-space partitioner for sharded replicas.
//
// A sharded replica (smr::ShardedEngine) runs P independent protocol engines per
// node, each owning one partition of the key space. The partitioner is the single
// source of truth for key -> shard routing: a pure, deterministic function of the key
// bytes (stable FNV-1a hash mod P), identical at every replica and every layer
// (engine routing, harness store/checker wiring, partition-aware workloads). Single-
// key commands therefore route to exactly one shard everywhere.
//
// Commands whose keys span multiple partitions cannot be ordered by one shard alone;
// sharded deployments require shard-local commands (SingleShard reports violations,
// ShardOf CHECK-fails on them). At P=1 every command, noOps and multi-key commands
// included, is shard-local to shard 0. Cross-partition transactions are future work.
#ifndef SRC_SMR_PARTITIONER_H_
#define SRC_SMR_PARTITIONER_H_

#include <cstdint>
#include <string_view>

#include "src/smr/command.h"

namespace smr {

class Partitioner {
 public:
  explicit Partitioner(uint32_t partitions);

  uint32_t partitions() const { return partitions_; }

  // Stable 64-bit FNV-1a over the key bytes; shared by every layer that needs
  // key placement (never tied to std::hash, which may differ across platforms).
  static uint64_t HashKey(std::string_view key);

  uint32_t ShardOf(std::string_view key) const {
    return static_cast<uint32_t>(HashKey(key) % partitions_);
  }

  // Shard of a command's primary key. At P>1, CHECK-fails on multi-key commands
  // that span partitions and on noOps (which conflict with everything and are
  // created inside an engine, never routed across one).
  uint32_t ShardOf(const Command& cmd) const;

  // Returns true and sets *shard iff every key of cmd lives in one partition
  // (always shard 0 at P=1).
  bool SingleShard(const Command& cmd, uint32_t* shard) const;

 private:
  uint32_t partitions_;
};

}  // namespace smr

#endif  // SRC_SMR_PARTITIONER_H_
