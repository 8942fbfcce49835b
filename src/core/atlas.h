// The Atlas protocol engine (the paper's core contribution).
//
// Implements Algorithm 4 (the full protocol: Algorithm 1 failure-free path + Algorithm 2
// recovery + Algorithm 3 execution) plus both §4 optimizations:
//   - slow-path dependency pruning (propose the f-threshold union to consensus);
//   - NFR: non-fault-tolerant reads over plain majority quorums.
//
// The engine is sans-I/O (src/smr/engine.h): drivers deliver messages/timers and receive
// sends/commit/execute notifications. Everything after the decision (commit fan-out,
// commit bookkeeping, execution, decided-log answers, recovery scheduling) is the
// commit half it shares with EPaxos (src/smr/dependency_engine.h). Line references in
// comments are to Algorithm 4 in the paper's appendix.
#ifndef SRC_CORE_ATLAS_H_
#define SRC_CORE_ATLAS_H_

#include <utility>
#include <vector>

#include "src/common/dep_set.h"
#include "src/common/quorum.h"
#include "src/common/types.h"
#include "src/core/config.h"
#include "src/msg/message.h"
#include "src/smr/dependency_engine.h"
#include "src/smr/recovery_scheduler.h"

namespace atlas {

enum class Phase : uint8_t { kStart, kCollect, kRecover, kCommit, kExecute };

// Per-command protocol state (the commit half's requirements: smr::DependencyEngine).
struct Info {
  static constexpr Phase kCommitted = Phase::kCommit;

  Phase phase = Phase::kStart;
  smr::Command cmd;  // noOp until the payload is learned
  common::DepSet deps;
  common::Quorum quorum;  // fast quorum; empty if MCollect not seen
  common::Ballot bal = 0;
  common::Ballot abal = 0;
  bool nfr = false;  // processed via the NFR read path

  // Initial-coordinator state (collect phase): the fast-quorum members that acked.
  common::Quorum quorum_acked;
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
  smr::Command submitted_cmd;
};

class AtlasEngine final
    : public smr::DependencyEngine<AtlasEngine, Info, msg::MCommit, msg::MRec> {
 public:
  using Phase = atlas::Phase;

  explicit AtlasEngine(Config config);

  void Submit(smr::Command cmd) override;
  void OnMessage(common::ProcessId from, const msg::Message& m) override;

  // Starts recovery of `dot` explicitly (tests / harness, and the recovery
  // scheduler's action). No-op returning false if already committed.
  bool Recover(const common::Dot& dot);

  const Config& config() const { return config_; }

  // Introspection for tests and benches.
  Phase PhaseOf(const common::Dot& dot) const;
  common::DepSet CommittedDeps(const common::Dot& dot) const;
  size_t MaxBatch() const { return executor_.MaxBatch(); }

 private:
  friend DependencyEngine;

  // Message handlers (Algorithm 4 line references in the implementations).
  void HandleMCollect(common::ProcessId from, const msg::MCollect& m);
  void HandleMCollectAck(common::ProcessId from, const msg::MCollectAck& m);
  void HandleMConsensus(common::ProcessId from, const msg::MConsensus& m);
  void HandleMConsensusAck(common::ProcessId from, const msg::MConsensusAck& m);
  void HandleMRec(common::ProcessId from, const msg::MRec& m);
  void HandleMRecAck(common::ProcessId from, const msg::MRecAck& m);

  void FinishCollect(const common::Dot& dot, Info& info);
  void ProposeConsensus(const common::Dot& dot, Info& info, const smr::Command& cmd,
                        common::DepSet deps, common::Ballot ballot);

  common::Quorum PickFastQuorum(bool nfr_read) const;
  common::Quorum PickSlowQuorum() const;

  Config config_;
  // Reusable scratch for quorum-reply set algebra and conflict collection: the
  // steady-state submit/collect/commit path performs no heap allocation.
  common::DepScratch dep_scratch_;
  common::DepSet scratch_deps_;
  // Emptied collect-ack vectors, reused by the next collects (Info::collect_deps).
  std::vector<std::vector<common::DepSet>> spare_collect_deps_;
};

}  // namespace atlas

#endif  // SRC_CORE_ATLAS_H_
