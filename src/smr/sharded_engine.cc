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
    : opts_(opts), partitioner_(opts.partitions) {
  CHECK_GE(opts_.partitions, 1u);
  CHECK_LE(opts_.partitions, kMaxPartitions);
  CHECK_GE(opts_.batch_max, 1u);
  CHECK(factory != nullptr);
  for (uint32_t s = 0; s < opts_.partitions; s++) {
    shards_.push_back(factory(s));
    CHECK(shards_.back() != nullptr);
  }
  pending_.resize(opts_.partitions);
  batch_writers_.resize(opts_.partitions);
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
  CHECK(!cmd.is_batch());  // the wrapper owns batch composition
  uint32_t s = partitioner_.ShardOf(cmd);  // CHECKs shard-local keys
  if (opts_.batch_window == 0) {
    shards_[s]->Submit(std::move(cmd));
    return;
  }
  std::vector<Command>& buf = pending_[s];
  buf.push_back(std::move(cmd));
  if (buf.size() >= opts_.batch_max) {
    Flush(s);
    return;
  }
  if (!drain_armed_) {
    // First buffered command while no drain is scheduled: arm one window for the
    // whole replica. The fire drains every shard round-robin, so P shards share
    // one timer per window instead of arming one per shard per fresh batch
    // (whose uncancellable stale copies flushed partial batches early — the
    // simulated P=8 throughput regression). The generation makes stale timers
    // exact no-ops instead of early flushes.
    drain_armed_ = true;
    drain_generation_++;
    ctx_->SetTimer(opts_.batch_window, DrainToken(drain_generation_));
  }
}

void ShardedEngine::Flush(uint32_t shard) {
  std::vector<Command>& buf = pending_[shard];
  if (buf.empty()) {
    return;
  }
  if (buf.size() == 1) {
    // A batch of one skips the composite wrapper: identical wire cost to unbatched
    // submission, and per-command commit/drop semantics stay exact.
    shards_[shard]->Submit(std::move(buf[0]));
  } else {
    Command batch;
    MakeBatchInto(buf, batch_writers_[shard], batch, &batch_pool_);
    shards_[shard]->Submit(std::move(batch));
  }
  buf.clear();
}

void ShardedEngine::FlushAll() {
  for (uint32_t s = 0; s < opts_.partitions; s++) {
    Flush(s);
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
    if ((token >> 1) != drain_generation_ || !drain_armed_) {
      return;  // stale drain timer from an earlier arming; current one still runs
    }
    drain_armed_ = false;
    FlushAll();
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
