#include "src/smr/partitioner.h"

#include "src/common/check.h"

namespace smr {

Partitioner::Partitioner(uint32_t partitions) : partitions_(partitions) {
  CHECK_GE(partitions_, 1u);
}

uint64_t Partitioner::HashKey(std::string_view key) {
  // FNV-1a, 64-bit: tiny, allocation-free, and byte-stable across platforms.
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint32_t Partitioner::ShardOf(const Command& cmd) const {
  uint32_t shard = 0;
  CHECK(SingleShard(cmd, &shard));
  return shard;
}

bool Partitioner::SingleShard(const Command& cmd, uint32_t* shard) const {
  if (partitions_ == 1) {
    *shard = 0;  // one partition holds every key, and a noOp conflicts only there
    return true;
  }
  if (cmd.is_noop()) {
    return false;  // conflicts with every partition; not routable
  }
  uint32_t s = ShardOf(cmd.key);
  for (const auto& k : cmd.more_keys) {
    if (ShardOf(k) != s) {
      return false;
    }
  }
  *shard = s;
  return true;
}

}  // namespace smr
