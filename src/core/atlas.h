// The Atlas protocol engine (the paper's core contribution).
//
// Implements Algorithm 4 (the full protocol: Algorithm 1 failure-free path + Algorithm 2
// recovery + Algorithm 3 execution) plus both §4 optimizations:
//   - slow-path dependency pruning (propose the f-threshold union to consensus);
//   - NFR: non-fault-tolerant reads over plain majority quorums.
//
// The engine is sans-I/O (src/smr/engine.h): drivers deliver messages/timers and receive
// sends/commit/execute notifications. Line references in comments are to Algorithm 4 in
// the paper's appendix.
#ifndef SRC_CORE_ATLAS_H_
#define SRC_CORE_ATLAS_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/common/dep_set.h"
#include "src/common/dot_map.h"
#include "src/common/quorum.h"
#include "src/common/types.h"
#include "src/core/config.h"
#include "src/exec/graph_executor.h"
#include "src/msg/message.h"
#include "src/smr/conflict_index.h"
#include "src/smr/decided_log.h"
#include "src/smr/engine.h"
#include "src/smr/recovery_scheduler.h"

namespace atlas {

class AtlasEngine final : public smr::Engine {
 public:
  explicit AtlasEngine(Config config);

  void OnStart() override;
  void Submit(smr::Command cmd) override;
  void OnMessage(common::ProcessId from, const msg::Message& m) override;
  void OnTimer(uint64_t token) override;
  void OnSuspect(common::ProcessId p) override;
  void OnRestore(common::ProcessId p, uint64_t seq_floor) override;
  smr::RestartHint restart_hint() const override;
  void ApplyRestartHint(const smr::RestartHint& hint) override;

  // Starts recovery of `dot` explicitly (tests / harness, and the recovery
  // scheduler's action). No-op returning false if already committed.
  bool Recover(const common::Dot& dot);

  const Config& config() const { return config_; }

  // Introspection for tests and benches.
  enum class Phase : uint8_t { kStart, kCollect, kRecover, kCommit, kExecute };
  Phase PhaseOf(const common::Dot& dot) const;
  common::DepSet CommittedDeps(const common::Dot& dot) const;
  size_t PendingExecution() const { return executor_.PendingCount(); }
  size_t MaxBatch() const { return executor_.MaxBatch(); }

 private:
  struct Info {
    Phase phase = Phase::kStart;
    smr::Command cmd;  // noOp until the payload is learned
    common::DepSet deps;
    common::Quorum quorum;  // fast quorum; empty if MCollect not seen
    common::Ballot bal = 0;
    common::Ballot abal = 0;
    bool nfr = false;  // processed via the NFR read path

    // Initial-coordinator state (collect phase).
    common::Quorum collect_acked;
    std::vector<common::DepSet> collect_deps;

    // Proposer state (slow path / recovery consensus at ballot `proposal_ballot`).
    common::Ballot proposal_ballot = 0;
    common::Quorum consensus_acked;

    // Recovery-coordinator state. rec_acks pairs each ack with its sender.
    common::Ballot rec_ballot = 0;
    common::Quorum rec_acked;
    std::vector<std::pair<common::ProcessId, msg::MRecAck>> rec_acks;
    smr::RecoveryMark mark;

    // Original submitted payload (set at the initial coordinator only), used to report
    // commands that recovery replaced with noOp.
    bool locally_submitted = false;
    smr::Command submitted_cmd;
  };

  // Message handlers (Algorithm 4 line references in the implementations).
  void HandleMCollect(common::ProcessId from, const msg::MCollect& m);
  void HandleMCollectAck(common::ProcessId from, const msg::MCollectAck& m);
  void HandleMConsensus(common::ProcessId from, const msg::MConsensus& m);
  void HandleMConsensusAck(common::ProcessId from, const msg::MConsensusAck& m);
  void HandleMCommit(common::ProcessId from, const msg::MCommit& m);
  void HandleMRec(common::ProcessId from, const msg::MRec& m);
  void HandleMRecAck(common::ProcessId from, const msg::MRecAck& m);

  void FinishCollect(const common::Dot& dot, Info& info);
  void ProposeConsensus(const common::Dot& dot, Info& info, const smr::Command& cmd,
                        common::DepSet deps, common::Ballot ballot);
  void CommitAndBroadcast(const common::Dot& dot, Info& info, const smr::Command& cmd,
                          const common::DepSet& deps, bool fast_path);
  void ApplyCommit(const common::Dot& dot, const smr::Command& cmd,
                   const common::DepSet& deps, bool fast_path);
  void OnExecuteFromGraph(const common::Dot& dot, const smr::Command& cmd);
  // The recovery scheduler's view of an Info: committed ones are never recovered.
  static bool Decided(const Info& info) {
    return info.phase == Phase::kCommit || info.phase == Phase::kExecute;
  }

  // DotMap references are invalidated by later inserts/erases (rehash moves slots);
  // handlers must not hold the returned reference across calls that may mutate
  // infos_ (see ApplyCommit's copy-into-scratch discipline).
  Info& GetInfo(const common::Dot& dot) { return infos_[dot]; }
  bool CommittedOrExecuted(const common::Dot& dot) const;

  common::Quorum PickFastQuorum(bool nfr_read) const;
  common::Quorum PickSlowQuorum() const;

  // True when the command must bypass dependency recording per NFR (§4).
  bool NfrRead(const smr::Command& cmd) const { return config_.nfr && cmd.is_read(); }

  Config config_;
  std::unique_ptr<smr::ConflictIndex> index_;
  exec::GraphExecutor executor_;
  // Reusable scratch for quorum-reply set algebra and conflict collection: the
  // steady-state submit/collect/commit path performs no heap allocation.
  common::DepScratch dep_scratch_;
  common::DepSet scratch_deps_;
  // Commit-path scratch: ApplyCommit's cmd/deps arguments may alias storage inside
  // infos_ (the slow-path/recovery flows pass info.cmd / info.deps), which a DotMap
  // rehash would move; the values are copied here first. Capacity is reused, so the
  // copies allocate nothing in steady state.
  smr::Command commit_cmd_scratch_;
  common::DepSet commit_deps_scratch_;
  // Emptied collect-ack vectors, reused by the next collects (Info::collect_deps).
  std::vector<std::vector<common::DepSet>> spare_collect_deps_;

  uint64_t next_seq_ = 1;
  // Open-addressed flat map (see dot_map.h): per-command protocol state was the last
  // per-command node allocation on the hot path.
  common::DotMap<Info> infos_;
  // When to recover a dot: suspicion, restarts, commit timeouts and watches.
  smr::RecoveryScheduler recovery_;

  // Decided (committed) values of the last smr::kDecidedHorizon client commands
  // (a kBatch counts its sub-commands), answering late MRec/MConsensus after the
  // command executed and its Info was reclaimed. Stability-based GC must wait for
  // snapshot install: a restarted replica re-learns dependency chains through these
  // answers. The log makes recovery of recently executed commands exact and falls
  // back to silence (the recoverer learns from another replica) beyond its horizon.
  smr::DecidedLog decided_;
};

}  // namespace atlas

#endif  // SRC_CORE_ATLAS_H_
