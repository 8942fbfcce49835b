// Replica assembly: one node's full protocol deployment, shared by every driver.
//
// The paper's methodology is one codebase where protocols differ only in the commit
// component. The sans-I/O engines honor that, but until this layer existed the
// *assembly* of a replica — which protocol engine to build, whether to shard it,
// how to wire per-shard stores, stats and submission batching — was duplicated
// between the simulator harness and the TCP runtime. Deployment is the single
// construction site:
//
//   * every replica is a smr::ShardedEngine multiplexing P per-partition engines,
//     each with its own dot space/conflict index/executor, plus per-shard service
//     replicas (kvs::KvStore by default), per-shard applied counts and submission
//     batching;
//   * P == 1 is one shard with no batching, behaviour-identical to the seeded
//     single-engine replica (the determinism pins rely on this).
//
// Drivers (sim::Simulator via harness::Cluster through engine(), rt::Node's shard
// workers over TCP through shard_engine(s), which each bind directly) talk to the
// assembled replica exclusively through the smr::Engine/Context interfaces, and
// use the unpack helpers here to demultiplex executed/committed/dropped commands
// — including kBatch composites — back to per-shard stores and per-client
// completions.
// Compartmentalization (Whittaker et al.) calls this decoupling of replica roles
// from deployment shape the enabler for deployment-side scaling; every future
// deployment feature (membership, reconnection, multi-backend storage) lands here
// once instead of per-driver.
#ifndef SRC_SMR_DEPLOYMENT_H_
#define SRC_SMR_DEPLOYMENT_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"
#include "src/dur/shard_durability.h"
#include "src/smr/command.h"
#include "src/smr/conflict_index.h"
#include "src/smr/engine.h"
#include "src/smr/partitioner.h"
#include "src/smr/sharded_engine.h"
#include "src/smr/state_machine.h"

namespace smr {

// The commit component this deployment runs; everything else is shared.
enum class Protocol {
  kAtlas,
  kEPaxos,
  kFPaxos,
  kPaxos,    // classic majority quorums
  kMencius,
};

const char* ProtocolName(Protocol p);

struct DeploymentOptions {
  Protocol protocol = Protocol::kAtlas;
  uint32_t n = 3;
  uint32_t f = 1;
  bool nfr = false;
  bool prune_slow_path = true;
  IndexMode index_mode = IndexMode::kCompressed;

  // Peers of this node ordered by increasing network distance (self excluded);
  // empty lets the engine fall back to id order.
  std::vector<common::ProcessId> by_proximity;

  // FPaxos/Paxos initial leader; kInvalidProcess defaults to process 0 (drivers
  // with a latency model pick the fairest site and pass it in).
  common::ProcessId leader = common::kInvalidProcess;

  // Recovery / fault-tolerance knobs forwarded to the protocol engines that support
  // them (Atlas, EPaxos, Mencius). 0 keeps each engine's own default — for
  // commit_timeout that means disabled, matching failure-free deployments.
  common::Duration commit_timeout = 0;
  common::Duration recovery_scan_interval = 0;
  common::Duration recovery_retry_interval = 0;
  common::Duration revoke_retry_interval = 0;  // Mencius revocation pacing

  // Partitioned replica: `partitions` independent engines behind a ShardedEngine,
  // with per-(node, partition) stores. 1 is the classic one-engine replica.
  uint32_t partitions = 1;
  // Submission batching on sharded replicas (ignored at partitions == 1, which
  // must stay identical to the unbatched seed; see Deployment::batch_window()).
  common::Duration batch_window = 0;
  size_t batch_max = 64;

  // Builds the per-shard service replica; nullptr defaults to kvs::KvStore.
  std::function<std::unique_ptr<StateMachine>()> state_machine_factory;

  // Ignored: rt::Node always runs each shard's engine on its own worker thread
  // (src/rt/shard_runtime.h). Kept only because the benchmark sources still
  // write it; it goes with the next benchmark change.
  bool threaded = false;

  // Persistence (src/dur): non-empty enables the per-shard commit log +
  // snapshot subsystem under <data_dir>/shard-N/. The Deployment constructor
  // recovers from whatever it finds there (snapshot restore + log-tail
  // replay), so restart-from-disk is just "construct with the same data_dir".
  // Empty (the default) keeps the deployment fully in-memory and
  // byte-identical to the seed — the determinism/alloc pins rely on this.
  std::string data_dir;
  // Appends between automatic per-shard snapshots (0: only explicit ones).
  uint64_t snapshot_every = 4096;
  dur::FsyncMode fsync_mode = dur::FsyncMode::kBatch;
};

class Deployment {
 public:
  explicit Deployment(DeploymentOptions opts);
  ~Deployment();

  // The replica's engine, a ShardedEngine at every P. Drivers Bind/OnStart/
  // Submit/OnMessage/OnTimer through this single object, which keeps the shard
  // tag on messages and timer tokens end-to-end.
  Engine& engine() { return engine_; }
  const Engine& engine() const { return engine_; }

  uint32_t partitions() const { return opts_.partitions; }
  Protocol protocol() const { return opts_.protocol; }
  const Partitioner& partitioner() const { return engine_.partitioner(); }
  const DeploymentOptions& options() const { return opts_; }

  // The submission batching window every driver of this replica uses: the
  // configured one at P > 1, and 0 at P = 1, which stays the unbatched seed.
  common::Duration batch_window() const {
    return opts_.partitions > 1 ? opts_.batch_window : 0;
  }

  // Per-shard service replica and its applied-command count (non-noop commands,
  // the per-shard executed_count used for digest comparability between replicas).
  // The counts are atomics because other threads poll them while shard
  // workers apply (tests wait for a replica to catch up this way); the apply
  // path pays one release add.
  StateMachine& store(uint32_t shard = 0) { return *stores_[shard]; }
  const StateMachine& store(uint32_t shard = 0) const { return *stores_[shard]; }
  uint64_t applied_count(uint32_t shard = 0) const {
    return applied_counts_[shard].load(std::memory_order_acquire);
  }

  // Engine stats: aggregate over the replica, and per partition. shard_engine
  // exposes the inner engine for protocol-specific introspection (downcasts in
  // benches/tests) and for the runtime's shard workers, which bind it directly.
  EngineStats stats() const { return engine_.stats(); }
  EngineStats shard_stats(uint32_t shard) const { return shard_engine(shard).stats(); }
  Engine& shard_engine(uint32_t shard) { return engine_.shard(shard); }
  const Engine& shard_engine(uint32_t shard) const { return engine_.shard(shard); }

  // Restart plumbing (crash/recovery drivers). RestartHints reads the per-shard
  // stable-storage floors off a dying replica; ApplyRestartHints seeds them into the
  // freshly built replacement (after Bind + OnStart); NotifyRestore tells a live
  // replica that peer `p` restarted with the given per-shard floors.
  std::vector<RestartHint> RestartHints() const;
  void ApplyRestartHints(const std::vector<RestartHint>& hints);
  void NotifyRestore(common::ProcessId p, const std::vector<RestartHint>& hints);

  // ---- Durability (only meaningful with a non-empty data_dir) ----

  bool durable() const { return !durability_.empty(); }

  // True when the constructor found and recovered prior on-disk state; the
  // driver must then ApplyRestartHints(RecoveredRestartHints()) after
  // Bind + OnStart, and should announce itself to peers for catch-up.
  bool HasRecoveredState() const { return recovered_; }
  std::vector<RestartHint> RecoveredRestartHints() const;
  // One shard's entry of RecoveredRestartHints(). It reads only that shard's
  // durability state, so a shard worker may call it while the others run.
  RestartHint RecoveredRestartHint(uint32_t shard) const;

  // What a restarted replica advertises to peers: per-shard executed-dot
  // frontiers (encoded) plus reserved sequence floors, captured immutably at
  // construction so any thread may read it without touching live shard state.
  struct CatchupAdvert {
    struct Shard {
      uint64_t seq_floor = 0;
      std::string frontier;  // dur::DotFrontier encoding
    };
    std::vector<Shard> shards;
  };
  const CatchupAdvert& catchup_advert() const { return catchup_advert_; }

  // Duplicate filter + commit-log append for an executed engine-level command.
  // True => first execution, caller applies it; false => the dot was already
  // executed (restart replay / catch-up re-delivery), skip the apply. Always
  // true when durability is off or the dot is invalid (timer-less drivers).
  // Also refreshes the shard's reserved sequence floor off the live engine.
  bool AdmitDurable(uint32_t shard, const common::Dot& dot, const Command& cmd);

  // The shard's durability facade (catch-up streaming), or nullptr.
  dur::ShardDurability* durability(uint32_t shard) const {
    return durability_.empty() ? nullptr : durability_[shard].get();
  }

  // ApplyExecutedShard for a driver of engine(), called from within its
  // Executed callback: the shard is the one the ShardedEngine reports as
  // delivering the callback, read once on entry. The deployment's
  // own unpack scratch is reused across calls.
  template <class Fn>
  void ApplyExecuted(const common::Dot& dot, const Command& cmd, Fn&& fn) {
    ApplyExecutedShard(engine_.executing_shard(), dot, cmd, exec_scratch_, fn);
  }

  // The one apply body. Applies a command executed by shard `shard`'s engine
  // to that shard's store — unpacking kBatch composites in encoded order into
  // `scratch` (allocation-free for warm capacities) and bumping the shard's
  // applied count — then invokes fn(shard, sub_command, result) per client
  // command (noOps included; they apply as no-ops and carry client 0). Every
  // sub-command belongs to that shard by construction (the submission path
  // routed it there), and so does a recovery noOp: dot spaces are per shard,
  // so the shard, never the command's key, also keys the durable log and its
  // dedup filter. `dot` is the executed command's identifier; pass an invalid
  // dot (default Dot{}) when durability is off. A shard worker that binds its
  // shard's engine directly passes its own scratch, so one thread per shard
  // may apply concurrently; applied_counts_[shard] is written by that thread
  // alone.
  template <class Fn>
  void ApplyExecutedShard(uint32_t shard, const common::Dot& dot,
                          const Command& cmd, std::vector<Command>& scratch,
                          Fn&& fn) {
    if (!AdmitDurable(shard, dot, cmd)) {
      return;
    }
    if (cmd.is_batch()) {
      CHECK(UnpackBatch(cmd, scratch));
      for (const Command& sub : scratch) {
        ApplyOneShard(shard, sub, fn);
      }
    } else {
      ApplyOneShard(shard, cmd, fn);
    }
    MaybeSnapshot(shard);
  }

  // Invokes fn(sub_command) for every client command a committed engine-level
  // command carries. Separate scratch from ApplyExecuted: the Committed hook fires
  // mid-ApplyCommit and the execute path may unpack later in the same call chain.
  template <class Fn>
  void ForEachCommitted(const Command& cmd, Fn&& fn) {
    if (cmd.is_batch()) {
      CHECK(UnpackBatch(cmd, commit_scratch_));
      for (const Command& sub : commit_scratch_) {
        fn(sub);
      }
      return;
    }
    fn(cmd);
  }

  // Invokes fn(sub_command) for every client command a dropped engine-level
  // command carried. Uses a fresh buffer, not the exec scratch: drop handlers
  // typically resubmit, which may reenter Submit -> batch -> unpack.
  template <class Fn>
  void ForEachDropped(const Command& orig, Fn&& fn) {
    if (orig.is_batch()) {
      std::vector<Command> subs;
      CHECK(UnpackBatch(orig, subs));
      for (const Command& sub : subs) {
        fn(sub);
      }
      return;
    }
    fn(orig);
  }

 private:
  // Snapshot trigger after an apply. The store is only ever touched by the
  // thread that runs the shard's engine, so restart_hint() is read on that
  // thread too, like the AdmitDurable floor refresh.
  void MaybeSnapshot(uint32_t shard) {
    if (durable() && durability_[shard]->SnapshotDue()) {
      durability_[shard]->WriteSnapshot(*stores_[shard],
                                       shard_engine(shard).restart_hint().exec_floor);
    }
  }

  template <class Fn>
  void ApplyOneShard(uint32_t shard, const Command& cmd, Fn&& fn) {
    std::string result = stores_[shard]->Apply(cmd);
    if (!cmd.is_noop()) {
      applied_counts_[shard].fetch_add(1, std::memory_order_release);
    }
    fn(shard, cmd, std::move(result));
  }

  DeploymentOptions opts_;
  ShardedEngine engine_;
  std::vector<std::unique_ptr<StateMachine>> stores_;
  std::unique_ptr<std::atomic<uint64_t>[]> applied_counts_;
  std::vector<Command> exec_scratch_;    // kBatch unpack reuse (execute path)
  std::vector<Command> commit_scratch_;  // ... commit-notification path
  // Per-shard persistence (empty when data_dir is empty).
  std::vector<std::unique_ptr<dur::ShardDurability>> durability_;
  bool recovered_ = false;
  CatchupAdvert catchup_advert_;
};

}  // namespace smr

#endif  // SRC_SMR_DEPLOYMENT_H_
