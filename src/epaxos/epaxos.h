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
// whose Info was reclaimed.
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
#include "src/exec/graph_executor.h"
#include "src/msg/message.h"
#include "src/smr/conflict_index.h"
#include "src/smr/decided_log.h"
#include "src/smr/engine.h"
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

class EPaxosEngine final : public smr::Engine {
 public:
  explicit EPaxosEngine(Config config);

  void OnStart() override;
  void Submit(smr::Command cmd) override;
  void OnMessage(common::ProcessId from, const msg::Message& m) override;
  void OnTimer(uint64_t token) override;
  void OnSuspect(common::ProcessId p) override;
  void OnRestore(common::ProcessId p, uint64_t seq_floor) override;
  smr::RestartHint restart_hint() const override;
  void ApplyRestartHint(const smr::RestartHint& hint) override;

  size_t PendingExecution() const { return executor_.PendingCount(); }

 private:
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

  struct Info {
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
    common::Quorum preaccept_acked;
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
  };

  void HandlePreAccept(common::ProcessId from, const msg::EpPreAccept& m);
  void HandlePreAcceptAck(common::ProcessId from, const msg::EpPreAcceptAck& m);
  void HandleAccept(common::ProcessId from, const msg::EpAccept& m);
  void HandleAcceptAck(common::ProcessId from, const msg::EpAcceptAck& m);
  void HandleCommit(common::ProcessId from, const msg::EpCommit& m);
  void HandlePrepare(common::ProcessId from, const msg::EpPrepare& m);
  void HandlePrepareAck(common::ProcessId from, const msg::EpPrepareAck& m);

  void RunAcceptPhase(const common::Dot& dot, Info& info, const smr::Command& cmd,
                      common::DepSet deps, uint64_t seqno, common::Ballot ballot);
  void CommitAndBroadcast(const common::Dot& dot, Info& info, bool fast_path);
  void ApplyCommit(const common::Dot& dot, const smr::Command& cmd,
                   const common::DepSet& deps, uint64_t seqno, bool fast_path);

  // The recovery scheduler's action: explicit prepare for a known, uncommitted dot.
  // Returns false (nothing to recover) if it committed or its Info was reclaimed.
  bool Recover(const common::Dot& dot);
  void StartRecovery(const common::Dot& dot, Info& info);
  // The recovery scheduler's view of an Info: committed ones are never recovered.
  static bool Decided(const Info& info) { return info.phase == Phase::kCommitted; }

  // Highest sequence number among recorded commands conflicting with cmd.
  uint64_t MaxConflictSeq(const common::DepSet& deps) const;

  // DotMap references are invalidated by later inserts/erases (rehash and
  // backward-shift deletion move slots); handlers must not hold an Info& across a
  // call that can insert into or erase from infos_ — see HandlePrepareAck's
  // copy-into-locals before ApplyCommit.
  Info& GetInfo(const common::Dot& dot) { return infos_[dot]; }
  bool NfrRead(const smr::Command& cmd) const { return config_.nfr && cmd.is_read(); }

  Config config_;
  std::unique_ptr<smr::ConflictIndex> index_;
  exec::GraphExecutor executor_;

  uint64_t next_seq_ = 1;
  // Flat dot-keyed maps (ROADMAP known-allocation: the last engine still on
  // hash-map nodes): per-command state allocates only on amortized table growth,
  // not per command. alloc_test pins the steady-state behaviour.
  common::DotMap<Info> infos_;
  // seq numbers of every known command, for the max-conflict-seq computation.
  common::DotMap<uint64_t> seqnos_;
  // A bare commit's payload, copied out of its Info (capacity reused).
  smr::Command commit_cmd_scratch_;
  // When to recover a dot: suspicion, restarts, commit timeouts and watches.
  smr::RecoveryScheduler recovery_;

  // Decided (committed) values, answering Prepares for commands whose Info the
  // execute callback already erased (e.g. a restarted replica re-learning a
  // dependency the rest of the cluster executed long ago).
  smr::DecidedLog decided_;
};

}  // namespace epaxos

#endif  // SRC_EPAXOS_EPAXOS_H_
