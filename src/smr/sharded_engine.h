// Sharded replica: P independent protocol engines per node, multiplexed over one
// driver Context.
//
// The paper's Atlas replica (like EPaxos/FPaxos/Mencius) serializes every command
// through one engine — one dot space, one conflict index, one graph executor — so a
// replica's throughput is bounded by a single dependency-tracking pipeline.
// Compartmentalization (Whittaker et al.) and parallel SMR (Marandi et al.) both get
// past that wall the same way: partition the key space and give each partition its
// own independently-ordered instance. ShardedEngine does exactly that, reusing the
// sans-I/O Engine interface unchanged:
//
//   * a Partitioner routes every command to shard s = hash(key) % P;
//   * shard s runs its own inner Engine (any protocol) with its own dot space,
//     conflict index and executor — commands in different shards never conflict
//     (they share no key), so ordering them independently is safe;
//   * inner engines talk through per-shard Contexts that stamp msg::Message::shard,
//     and incoming messages are demultiplexed back to their shard;
//   * timer tokens are shard-tagged the same way (low bits), so one driver timer
//     wheel serves all partitions.
//
// Submission batching rides the same multiplexer: with a batch window configured,
// commands routed to one shard within the window coalesce into a single kBatch
// composite command (smr::Batcher) — one dot and one protocol round for the whole
// batch — which is what keeps cross-shard fan-out from multiplying message count.
// P=1 without batching is behaviour-identical to running the inner engine directly:
// smr::Deployment builds every replica this way, P=1 included, and the equivalence
// is pinned by tests.
#ifndef SRC_SMR_SHARDED_ENGINE_H_
#define SRC_SMR_SHARDED_ENGINE_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/common/types.h"
#include "src/msg/message.h"
#include "src/smr/batcher.h"
#include "src/smr/engine.h"
#include "src/smr/partitioner.h"

namespace smr {

struct ShardedOptions {
  uint32_t partitions = 1;  // 1..kMaxPartitions

  // Submission batching (smr::Batcher): 0 disables (every Submit goes straight
  // to its shard). Otherwise commands buffer per shard and flush as one kBatch
  // when the replica's window elapses or batch_max commands accumulate,
  // whichever comes first.
  common::Duration batch_window = 0;
  size_t batch_max = 64;
};

class ShardedEngine final : public Engine {
 public:
  // Timer tokens carry the shard in their low bits; 64 partitions is far beyond the
  // per-node core counts that make partitions useful.
  static constexpr uint32_t kShardBits = 6;
  static constexpr uint32_t kMaxPartitions = 1u << kShardBits;

  // `factory(shard)` builds the inner engine for one partition (same protocol and
  // config for every shard of a node; the shard argument is for tracing/tests).
  using EngineFactory = std::function<std::unique_ptr<Engine>(uint32_t shard)>;

  ShardedEngine(ShardedOptions opts, EngineFactory factory);
  ~ShardedEngine() override;

  void OnStart() override;
  void Submit(Command cmd) override;
  void OnMessage(common::ProcessId from, const msg::Message& m) override;
  void OnTimer(uint64_t token) override;
  void OnSuspect(common::ProcessId p) override;

  // Aggregate over all partitions (recomputed per call; snapshot-path only).
  EngineStats stats() const override;

  uint32_t partitions() const { return opts_.partitions; }
  const Partitioner& partitioner() const { return partitioner_; }
  Engine& shard(uint32_t s) { return *shards_[s]; }
  const Engine& shard(uint32_t s) const { return *shards_[s]; }

  // The partition whose inner engine delivered the latest Executed callback.
  // Read it on entry to the callback: dot spaces are per shard, so a driver
  // must admit and apply an executed command under the shard that executed it
  // (a recovery noOp carries no key to route by).
  uint32_t executing_shard() const { return executing_shard_; }

 private:
  class ShardContext;

  // Timer-token layout: bit 0 selects between the wrapper's own batch-drain timer
  // (0: token >> 1 is the arming generation) and inner-engine timers (1:
  // token >> 1 packs (inner_token << kShardBits) | shard).
  static uint64_t DrainToken(uint64_t generation) { return generation << 1; }
  static uint64_t InnerToken(uint64_t token, uint32_t shard) {
    return (((token << kShardBits) | shard) << 1) | 1;
  }

  ShardedOptions opts_;
  Partitioner partitioner_;
  std::vector<std::unique_ptr<Engine>> shards_;
  std::vector<std::unique_ptr<ShardContext>> contexts_;
  Batcher batcher_;  // over all shards: one drain timer per window at any P
  bool started_ = false;
  uint32_t executing_shard_ = 0;  // see executing_shard()
};

}  // namespace smr

#endif  // SRC_SMR_SHARDED_ENGINE_H_
