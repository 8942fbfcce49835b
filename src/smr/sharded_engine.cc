#include "src/smr/sharded_engine.h"

#include <utility>

#include "src/common/check.h"

namespace smr {

// Per-shard driver context: stamps outgoing messages and timer tokens with the shard
// id and forwards everything else to the node's real Context. Commit/execute/drop
// notifications pass through unchanged — dots stay in the inner engine's per-shard
// dot space, so an Executed callback first records which shard is delivering it
// (executing_shard()): the driver applies by that shard, never by command key.
class ShardedEngine::ShardContext final : public Context {
 public:
  ShardContext(ShardedEngine* owner, uint32_t shard) : owner_(owner), shard_(shard) {}

  void Send(common::ProcessId to, msg::Message m) override {
    m.shard = shard_;
    owner_->ctx_->Send(to, std::move(m));
  }

  common::Time Now() const override { return owner_->ctx_->Now(); }

  void SetTimer(common::Duration delay, uint64_t token) override {
    owner_->ctx_->SetTimer(delay, InnerToken(token, shard_));
  }

  void Committed(const common::Dot& dot, const Command& cmd, bool fast_path) override {
    owner_->ctx_->Committed(dot, cmd, fast_path);
  }

  void Executed(const common::Dot& dot, const Command& cmd) override {
    owner_->executing_shard_ = shard_;
    owner_->ctx_->Executed(dot, cmd);
  }

  void Dropped(const common::Dot& dot, const Command& original) override {
    owner_->ctx_->Dropped(dot, original);
  }

 private:
  ShardedEngine* owner_;
  uint32_t shard_;
};

ShardedEngine::ShardedEngine(ShardedOptions opts, EngineFactory factory)
    : opts_(opts),
      partitioner_(opts.partitions),
      batcher_(opts.partitions, opts.batch_window, opts.batch_max,
               [this](uint32_t s, Command cmd) {
                 shards_[s]->Submit(std::move(cmd));
               }) {
  CHECK_LE(opts_.partitions, kMaxPartitions);
  CHECK(factory != nullptr);
  for (uint32_t s = 0; s < opts_.partitions; s++) {
    shards_.push_back(factory(s));
    CHECK(shards_.back() != nullptr);
  }
}

ShardedEngine::~ShardedEngine() = default;

void ShardedEngine::OnStart() {
  CHECK(!started_);
  started_ = true;
  // Bind happened on the wrapper; fan it out to the partitions, each behind its own
  // shard-tagging context. Inner engines see the same (self, n) identity.
  for (uint32_t s = 0; s < opts_.partitions; s++) {
    contexts_.push_back(std::make_unique<ShardContext>(this, s));
    shards_[s]->Bind(self_, n_, contexts_[s].get());
  }
  for (auto& shard : shards_) {
    shard->OnStart();
  }
}

void ShardedEngine::Submit(Command cmd) {
  CHECK(started_);
  uint32_t s = partitioner_.ShardOf(cmd);  // CHECKs shard-local keys
  if (uint64_t generation = batcher_.Add(s, std::move(cmd))) {
    ctx_->SetTimer(batcher_.window(), DrainToken(generation));
  }
}

void ShardedEngine::OnMessage(common::ProcessId from, const msg::Message& m) {
  if (m.shard >= opts_.partitions) {
    return;  // malformed/foreign tag; drop rather than crash (network input)
  }
  shards_[m.shard]->OnMessage(from, m);
}

void ShardedEngine::OnTimer(uint64_t token) {
  if ((token & 1) == 0) {
    batcher_.Expire(token >> 1);
    return;
  }
  uint64_t t = token >> 1;
  uint32_t s = static_cast<uint32_t>(t & (kMaxPartitions - 1));
  CHECK_LT(s, opts_.partitions);
  shards_[s]->OnTimer(t >> kShardBits);
}

void ShardedEngine::OnSuspect(common::ProcessId p) {
  for (auto& shard : shards_) {
    shard->OnSuspect(p);
  }
}

EngineStats ShardedEngine::stats() const {
  EngineStats agg;
  for (const auto& shard : shards_) {
    agg += shard->stats();
  }
  return agg;
}

}  // namespace smr
