// Egalitarian Paxos (EPaxos) baseline [Moraru et al., SOSP'13].
//
// EPaxos shares the leaderless message flow of Atlas (§3.3 of the paper) but differs
// in the two dimensions Atlas innovates on:
//   - the fast quorum is sized for f = floor((n-1)/2) failures:
//     |FQ| = F + floor((F+1)/2) (command leader included), the ~3n/4-class quorum the
//     paper attributes to EPaxos;
//   - the fast path is taken only when all non-leader fast-quorum replies match exactly
//     (same dependencies and sequence number).
// Commands additionally carry sequence numbers; execution orders strongly connected
// components by (seq, id) via the shared graph executor.
//
// Recovery: this baseline implements a conservative explicit-prepare fail-over that is
// correct for slow-path-committed and committed commands and re-runs the Accept phase
// with the union of surviving dependencies otherwise. Full EPaxos fast-path recovery is
// intentionally out of scope: the paper (§3.3) cites it as "very complex" and recently
// shown to contain a bug [Sutra, IPL 2020]; none of the reproduced experiments exercise
// EPaxos under failures. When to recover a dot is decided by smr::RecoveryScheduler,
// the policy Atlas uses too: suspicion, restart orphans and grace, the submitter's
// commit timeout, and commit and gap watches, paced by one scan so lost Prepare rounds
// retry. A restarted replica (ApplyRestartHint) re-learns decided commands through the
// same scan; a decided-value log bounded in client commands (smr::DecidedLog, a
// batch weighing its sub-commands) answers Prepares for recently executed commands
// whose Info was reclaimed. When recovery replaces a command with a noOp, its leader
// reports it Dropped (smr::Context), so the client can resubmit at once.
//
// Everything after the decision (commit fan-out, commit bookkeeping, execution,
// decided-log answers, recovery scheduling) is the commit half shared with Atlas
// (src/smr/dependency_engine.h).
//
// The NFR read optimization (§4) applies to EPaxos too (the paper's "*EPaxos"): enabled
// via Config::nfr.
#ifndef SRC_EPAXOS_EPAXOS_H_
#define SRC_EPAXOS_EPAXOS_H_

#include <algorithm>
#include <memory>

#include "src/common/dep_set.h"
#include "src/common/dot_map.h"
#include "src/common/quorum.h"
#include "src/common/types.h"
#include "src/msg/message.h"
#include "src/smr/conflict_index.h"
#include "src/smr/dependency_engine.h"
#include "src/smr/recovery_scheduler.h"

namespace epaxos {

struct Config {
  uint32_t n = 3;
  bool nfr = false;
  smr::IndexMode index_mode = smr::IndexMode::kCompressed;
  // Recovery scheduling: quorum proximity, commit timeout, scan pacing.
  smr::RecoverySettings recovery;

  uint32_t F() const { return (n - 1) / 2; }
  // Fast quorum including the command leader: F + floor((F+1)/2), the optimized EPaxos
  // quorum (= ceil(3n/4) - 1 for odd n).
  size_t FastQuorumSize() const {
    size_t fq = F() + (F() + 1) / 2;
    return std::max(fq, static_cast<size_t>(n / 2 + 1));
  }
  size_t MajoritySize() const { return n / 2 + 1; }
};

enum class Phase : uint8_t { kNone, kPreAccepted, kAccepted, kCommitted };

// Running aggregate of one recovery round's prepare acks. Every criterion of
// the multi-criteria decision scan is incrementally computable, so acks are
// folded in on arrival and never stored (the old per-round ack vector was a
// ROADMAP known allocation). Heap-allocated per recovering Info — recovery is
// the cold path — and reset (not reallocated) on each round.
struct RecState {
  // Some ack reported kCommitted: its decided value (all such acks agree).
  bool committed = false;
  smr::Command committed_cmd;
  common::DepSet committed_deps;
  uint64_t committed_seqno = 0;
  // Highest-accepted-ballot kAccepted ack (first wins ties, arrival order).
  bool accepted = false;
  common::Ballot best_abal = 0;
  smr::Command accepted_cmd;
  common::DepSet accepted_deps;
  uint64_t accepted_seqno = 0;
  // kPreAccepted evidence: the coordinator-uncommitted proof, the first
  // non-coordinator reply's exact attributes (plus whether later peers
  // matched it), and the conservative union.
  bool any_preaccepted = false;
  bool coordinator_uncommitted = false;
  bool have_peer_pre = false;
  bool peers_identical = true;
  smr::Command peer_pre_cmd;
  common::DepSet peer_pre_deps;
  uint64_t peer_pre_seqno = 0;
  smr::Command pre_cmd;
  common::DepSet pre_union_deps;
  uint64_t pre_union_seqno = 0;
  // Majority-fresh conflict reports, unioned across every ack.
  common::DepSet fresh_deps;
  uint64_t fresh_seqno = 0;
};

// Per-command protocol state (the commit half's requirements:
// smr::DependencyEngine).
struct Info {
  static constexpr Phase kCommitted = Phase::kCommitted;

  Phase phase = Phase::kNone;
  smr::Command cmd;
  common::DepSet deps;
  uint64_t seqno = 0;
  common::Ballot bal = 0;
  common::Ballot abal = 0;
  bool nfr = false;

  // Command-leader state. Pre-accept acks are aggregated as they arrive —
  // the fast-path check needs only "every reply matched my (deps, seqno)",
  // the NFR/slow paths only the running union and max — so the leader stores
  // no ack vector (ROADMAP known hot-path allocation, pinned by alloc_test).
  common::Quorum quorum;
  common::Quorum quorum_acked;
  common::DepSet pre_union_deps;
  uint64_t pre_union_seqno = 0;
  bool pre_acks_match = true;
  common::Ballot proposal_ballot = 0;
  common::Quorum accept_acked;

  // Recovery state.
  common::Ballot rec_ballot = 0;
  common::Quorum rec_acked;
  std::unique_ptr<RecState> rec;
  smr::RecoveryMark mark;
  // The payload was learned from prepare acks (phase may still be kNone); lets the
  // next prepare round carry the command so repliers can report fresh conflicts.
  bool rec_cmd_known = false;

  // The command this leader submitted (a noOp elsewhere), reported Dropped if
  // recovery commits a noOp in its place.
  smr::Command submitted_cmd;
};

class EPaxosEngine final
    : public smr::DependencyEngine<EPaxosEngine, Info, msg::EpCommit, msg::EpPrepare> {
 public:
  explicit EPaxosEngine(Config config);

  void Submit(smr::Command cmd) override;
  void OnMessage(common::ProcessId from, const msg::Message& m) override;

 private:
  friend DependencyEngine;

  void HandlePreAccept(common::ProcessId from, const msg::EpPreAccept& m);
  void HandlePreAcceptAck(common::ProcessId from, const msg::EpPreAcceptAck& m);
  void HandleAccept(common::ProcessId from, const msg::EpAccept& m);
  void HandleAcceptAck(common::ProcessId from, const msg::EpAcceptAck& m);
  void HandlePrepare(common::ProcessId from, const msg::EpPrepare& m);
  void HandlePrepareAck(common::ProcessId from, const msg::EpPrepareAck& m);

  void RunAcceptPhase(const common::Dot& dot, Info& info, const smr::Command& cmd,
                      common::DepSet deps, uint64_t seqno, common::Ballot ballot);

  // The recovery scheduler's action: explicit prepare for a known, uncommitted dot.
  // Returns false (nothing to recover) if it committed or its Info was reclaimed.
  bool Recover(const common::Dot& dot);
  void StartRecovery(const common::Dot& dot, Info& info);

  // Records the command in the conflict index and its sequence number in seqnos_.
  void RecordConflicts(const common::Dot& dot, const smr::Command& cmd, uint64_t seqno);
  // Highest sequence number among recorded commands conflicting with cmd.
  uint64_t MaxConflictSeq(const common::DepSet& deps) const;

  Config config_;
  // seq numbers of every known command, for the max-conflict-seq computation.
  common::DotMap<uint64_t> seqnos_;
};

}  // namespace epaxos

#endif  // SRC_EPAXOS_EPAXOS_H_
