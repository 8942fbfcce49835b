#include "src/smr/deployment.h"

#include <utility>

#include "src/core/atlas.h"
#include "src/epaxos/epaxos.h"
#include "src/kvs/kvs.h"
#include "src/mencius/mencius.h"
#include "src/paxos/multipaxos.h"

namespace smr {

const char* ProtocolName(Protocol p) {
  switch (p) {
    case Protocol::kAtlas:
      return "Atlas";
    case Protocol::kEPaxos:
      return "EPaxos";
    case Protocol::kFPaxos:
      return "FPaxos";
    case Protocol::kPaxos:
      return "Paxos";
    case Protocol::kMencius:
      return "Mencius";
  }
  return "?";
}

namespace {

// The one place in the tree where protocol engines are constructed for a replica.
// Every partition of a node gets an identical configuration.
std::unique_ptr<Engine> MakeProtocolEngine(const DeploymentOptions& o) {
  switch (o.protocol) {
    case Protocol::kAtlas: {
      atlas::Config cfg;
      cfg.n = o.n;
      cfg.f = o.f;
      cfg.nfr = o.nfr;
      cfg.prune_slow_path = o.prune_slow_path;
      cfg.index_mode = o.index_mode;
      cfg.by_proximity = o.by_proximity;
      cfg.commit_timeout = o.commit_timeout;
      if (o.recovery_scan_interval > 0) {
        cfg.recovery_scan_interval = o.recovery_scan_interval;
      }
      if (o.recovery_retry_interval > 0) {
        cfg.recovery_retry_interval = o.recovery_retry_interval;
      }
      return std::make_unique<atlas::AtlasEngine>(cfg);
    }
    case Protocol::kEPaxos: {
      epaxos::Config cfg;
      cfg.n = o.n;
      cfg.nfr = o.nfr;
      cfg.index_mode = o.index_mode;
      cfg.by_proximity = o.by_proximity;
      cfg.commit_timeout = o.commit_timeout;
      if (o.recovery_scan_interval > 0) {
        cfg.recovery_scan_interval = o.recovery_scan_interval;
      }
      if (o.recovery_retry_interval > 0) {
        cfg.recovery_retry_interval = o.recovery_retry_interval;
      }
      return std::make_unique<epaxos::EPaxosEngine>(cfg);
    }
    case Protocol::kFPaxos:
    case Protocol::kPaxos: {
      paxos::Config cfg;
      cfg.n = o.n;
      cfg.f = o.f;
      cfg.mode = o.protocol == Protocol::kFPaxos ? paxos::QuorumMode::kFlexible
                                                 : paxos::QuorumMode::kClassic;
      cfg.initial_leader = o.leader != common::kInvalidProcess ? o.leader : 0;
      cfg.by_proximity = o.by_proximity;
      return std::make_unique<paxos::PaxosEngine>(cfg);
    }
    case Protocol::kMencius: {
      mencius::Config cfg;
      cfg.n = o.n;
      cfg.commit_timeout = o.commit_timeout;
      if (o.revoke_retry_interval > 0) {
        cfg.revoke_retry_interval = o.revoke_retry_interval;
      }
      return std::make_unique<mencius::MenciusEngine>(cfg);
    }
  }
  return nullptr;
}

}  // namespace

Deployment::Deployment(DeploymentOptions opts)
    : opts_(std::move(opts)),
      engine_(ShardedOptions{opts_.partitions, batch_window(), opts_.batch_max},
              [this](uint32_t) { return MakeProtocolEngine(opts_); }) {
  for (uint32_t s = 0; s < opts_.partitions; s++) {
    stores_.push_back(opts_.state_machine_factory != nullptr
                          ? opts_.state_machine_factory()
                          : std::make_unique<kvs::KvStore>());
    CHECK(stores_.back() != nullptr);
  }
  applied_counts_ = std::make_unique<std::atomic<uint64_t>[]>(opts_.partitions);
  for (uint32_t s = 0; s < opts_.partitions; s++) {
    applied_counts_[s].store(0, std::memory_order_relaxed);
  }

  if (!opts_.data_dir.empty()) {
    // Open per-shard persistence and recover whatever is on disk: snapshot
    // restore + log-tail replay re-derive the store state and applied counts
    // this incarnation starts from. The catch-up advert (frontiers + floors)
    // is captured here, before any live traffic, so the I/O thread can read
    // it race-free while shard workers run.
    catchup_advert_.shards.resize(opts_.partitions);
    for (uint32_t s = 0; s < opts_.partitions; s++) {
      dur::ShardDurability::Options dopts;
      dopts.log.fsync_mode = opts_.fsync_mode;
      dopts.snapshot_every = opts_.snapshot_every;
      auto d = std::make_unique<dur::ShardDurability>(
          opts_.data_dir + "/shard-" + std::to_string(s), dopts);
      CHECK(d->Open());
      if (d->had_state()) {
        recovered_ = true;
        uint64_t applied = d->Recover(*stores_[s]);
        applied_counts_[s].store(applied, std::memory_order_relaxed);
      }
      codec::Writer w;
      d->frontier().EncodeTo(w);
      catchup_advert_.shards[s].seq_floor = d->persisted_seq_floor();
      catchup_advert_.shards[s].frontier.assign(
          reinterpret_cast<const char*>(w.buffer().data()), w.buffer().size());
      durability_.push_back(std::move(d));
    }
  }
}

Deployment::~Deployment() = default;

std::vector<RestartHint> Deployment::RestartHints() const {
  std::vector<RestartHint> hints;
  hints.reserve(opts_.partitions);
  for (uint32_t s = 0; s < opts_.partitions; s++) {
    hints.push_back(shard_engine(s).restart_hint());
  }
  return hints;
}

void Deployment::ApplyRestartHints(const std::vector<RestartHint>& hints) {
  CHECK_EQ(hints.size(), static_cast<size_t>(opts_.partitions));
  for (uint32_t s = 0; s < opts_.partitions; s++) {
    shard_engine(s).ApplyRestartHint(hints[s]);
  }
}

void Deployment::NotifyRestore(common::ProcessId p,
                               const std::vector<RestartHint>& hints) {
  CHECK_EQ(hints.size(), static_cast<size_t>(opts_.partitions));
  for (uint32_t s = 0; s < opts_.partitions; s++) {
    shard_engine(s).OnRestore(p, hints[s].seq_floor);
  }
}

std::vector<RestartHint> Deployment::RecoveredRestartHints() const {
  std::vector<RestartHint> hints(opts_.partitions);
  for (uint32_t s = 0; s < opts_.partitions; s++) {
    hints[s] = RecoveredRestartHint(s);
  }
  return hints;
}

RestartHint Deployment::RecoveredRestartHint(uint32_t shard) const {
  RestartHint hint;
  if (shard < durability_.size()) {
    hint.seq_floor = durability_[shard]->persisted_seq_floor();
    // The recovered store reflects everything executed below this frontier
    // (snapshot restore + log-tail replay), so the engine may resume there;
    // slots between it and the crash frontier are re-learned from peers and
    // deduplicated by the durable admit filter.
    hint.exec_floor = durability_[shard]->persisted_exec_floor();
  }
  return hint;
}

bool Deployment::AdmitDurable(uint32_t shard, const common::Dot& dot,
                              const Command& cmd) {
  if (durability_.empty() || !dot.valid()) {
    return true;
  }
  if (!durability_[shard]->Admit(dot, cmd)) {
    return false;
  }
  // Keep the reserved sequence floor ahead of the live engine's counter so a
  // restart never re-mints a dot some peer already executed.
  durability_[shard]->NoteSeqFloor(shard_engine(shard).restart_hint().seq_floor);
  return true;
}

}  // namespace smr
