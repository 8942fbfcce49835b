// The commit half shared by the dependency-based engines (Atlas, EPaxos).
//
// Atlas (paper §3.3) shares EPaxos's leaderless message flow; the two differ in how
// they decide a dot (quorum sizes, the fast-path rule, EPaxos's sequence numbers),
// not in what happens once it is decided. DependencyEngine owns that second half:
//   - the per-dot state (a DotMap of the engine's Info), the conflict index, the
//     dependency-graph executor, the recovery scheduler and the decided log;
//   - the commit fan-out: bare (no payload) to the fast-quorum members that acked
//     when the dot's own coordinator decides at its initial ballot, full otherwise;
//   - the bare-commit receive, which fetches a payload it no longer holds;
//   - the decided-log answer to a request for an already-decided dot;
//   - the commit bookkeeping, in one order, and the execute step;
//   - the recovery scheduler's entry points (suspicion, restore, timers, restart).
// Each engine keeps its collect or pre-accept rule, its consensus/accept and
// recovery decisions, its message types and its phases.
//
// An engine derives from DependencyEngine<Engine, Info, Commit, Fetch> (CRTP: no
// virtual call beyond smr::Engine's own), where
//   Info    is the per-dot state, with members phase, cmd, deps, quorum (the fast
//           quorum; non-empty once the coordinator's proposal arrived and its
//           payload was stored), quorum_acked (the members of `quorum` that acked),
//           proposal_ballot, submitted_cmd (the coordinator's submitted command;
//           a noOp elsewhere), mark (smr::RecoveryMark), `seqno` when Commit
//           carries one, and a `static constexpr kCommitted` phase;
//   Commit  is the commit message: dot, cmd, deps, has_cmd, and optionally seqno;
//   Fetch   is the request whose ballot-0 form asks a committer for the full commit;
// and the engine provides `bool Recover(const common::Dot&)` (the scheduler's
// action) and a `config_` with n. It may hide RecordConflicts to record more than
// the conflict index (EPaxos records the sequence number too).
#ifndef SRC_SMR_DEPENDENCY_ENGINE_H_
#define SRC_SMR_DEPENDENCY_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "src/common/check.h"
#include "src/common/dep_set.h"
#include "src/common/dot_map.h"
#include "src/common/quorum.h"
#include "src/common/types.h"
#include "src/exec/graph_executor.h"
#include "src/smr/conflict_index.h"
#include "src/smr/decided_log.h"
#include "src/smr/engine.h"
#include "src/smr/recovery_scheduler.h"

namespace smr {

namespace internal {
template <typename M, typename = void>
struct HasSeqno : std::false_type {};
template <typename M>
struct HasSeqno<M, std::void_t<decltype(M::seqno)>> : std::true_type {};
}  // namespace internal

template <typename Derived, typename Info, typename Commit, typename Fetch>
class DependencyEngine : public Engine {
 public:
  void OnStart() override {
    CHECK_EQ(derived().config_.n, n_);
    recovery_.Start(ctx_, self_, n_);
  }
  void OnSuspect(common::ProcessId p) override {
    recovery_.OnSuspect(p, infos_, &Decided, RecoverFn());
  }
  void OnRestore(common::ProcessId p, uint64_t seq_floor) override {
    recovery_.OnRestore(p, seq_floor, infos_, &Decided);
  }
  void OnTimer(uint64_t token) override {
    recovery_.OnTimer(token, infos_, &Decided, RecoverFn());
  }
  RestartHint restart_hint() const override { return RestartHint{next_seq_, 0}; }
  void ApplyRestartHint(const RestartHint& hint) override {
    next_seq_ = std::max(next_seq_, hint.seq_floor);
    recovery_.Restarted(next_seq_);
  }

  size_t PendingExecution() const { return executor_.PendingCount(); }

 protected:
  // Commit messages that carry a sequence number carry it through the decided log,
  // the Info and the executor; the others pass 0.
  static constexpr bool kSeqnos = internal::HasSeqno<Commit>::value;

  template <typename Config>
  DependencyEngine(exec::BatchOrder order, const Config& config)
      : nfr_(config.nfr),
        index_(MakeKeyIndex(config.index_mode)),
        executor_(order,
                  [this](const common::Dot& dot, const Command& cmd) {
                    stats_.executed++;
                    infos_.Erase(dot);  // phase tracked by the executor from here on
                    ctx_->Executed(dot, cmd);
                  }),
        recovery_(config.recovery) {}

  // The recovery scheduler's view of an Info: committed ones are never recovered.
  static bool Decided(const Info& info) { return info.phase == Info::kCommitted; }

  // DotMap references are invalidated by later inserts/erases (rehash and
  // backward-shift deletion move slots); handlers must not hold an Info& across a
  // call that can insert into or erase from infos_ (ApplyCommit copies its
  // arguments out first for that reason).
  Info& GetInfo(const common::Dot& dot) { return infos_[dot]; }

  // True when the command bypasses dependency recording per NFR (§4).
  bool NfrRead(const Command& cmd) const { return nfr_ && cmd.is_read(); }

  // Records a committed or accepted command in the conflict index.
  void RecordConflicts(const common::Dot& dot, const Command& cmd, uint64_t seqno) {
    index_->Record(dot, cmd);
  }

  // Commits `dot` with (cmd, deps, seqno) here and tells every other process. The
  // dot's own coordinator deciding at its initial ballot (fast path, or a slow path
  // it proposed itself) commits without the payload to the fast-quorum members that
  // acked its proposal: each stored `cmd` then. That stays the decided command for
  // as long as the member keeps the Info, because a value decided at the initial
  // ballot is the value every higher ballot proposes (any recovery quorum meets the
  // fast quorum and the slow path's acceptors). A member that lost its Info (a
  // restart) asks for the full commit (HandleCommit). Recovery-decided commits and
  // the decided-log answers stay full.
  void CommitAndBroadcast(const common::Dot& dot, Info& info, const Command& cmd,
                          const common::DepSet& deps, uint64_t seqno, bool fast_path) {
    Commit commit;
    commit.dot = dot;
    commit.cmd = cmd;
    commit.deps = deps;
    const bool initial =
        dot.proc == self_ &&
        (fast_path || info.proposal_ballot == common::InitialBallot(self_));
    Commit bare;
    if (initial) {
      bare.dot = dot;
      bare.deps = deps;
      bare.has_cmd = false;
    }
    if constexpr (kSeqnos) {
      commit.seqno = seqno;
      bare.seqno = seqno;
    }
    for (common::ProcessId p = 0; p < n_; p++) {
      if (p != self_) {
        SendTo(p, initial && info.quorum_acked.Contains(p) ? bare : commit);
      }
    }
    // `info` may be invalidated by self-commit (execution erases entries); apply last.
    ApplyCommit(dot, cmd, deps, seqno, fast_path);
  }

  void HandleCommit(common::ProcessId from, const Commit& m) {
    uint64_t seqno = 0;
    if constexpr (kSeqnos) {
      seqno = m.seqno;
    }
    if (m.has_cmd) {
      ApplyCommit(m.dot, m.cmd, m.deps, seqno, /*fast_path=*/false);
      return;
    }
    if (executor_.IsCommitted(m.dot)) {
      return;
    }
    // A bare commit: the payload is the one this process stored from the
    // coordinator's proposal (a non-empty quorum marks that). ApplyCommit copies it
    // out of the Info.
    const Info* info = infos_.Find(m.dot);
    if (info != nullptr && !info->quorum.empty()) {
      ApplyCommit(m.dot, info->cmd, m.deps, seqno, /*fast_path=*/false);
      return;
    }
    // The stored payload is gone (a restart wiped infos_): ask the committer for the
    // full commit with a ballot-0 Fetch. A process that decided the dot answers from
    // its decided log; any other fails the ballot precondition and drops it. Until
    // then the dot is pending here like any other, so the watch and the recovery
    // scan still cover a lost reply.
    recovery_.Watch(m.dot, GetInfo(m.dot).mark);
    Fetch fetch;
    fetch.dot = m.dot;
    SendTo(from, fetch);
  }

  // A request for `dot` (a recovery or consensus proposal, or a fetch) from `from`:
  // if the dot is decided here, answers with its full commit from the decided log
  // and returns true. Beyond the log's horizon it stays silent: the requester
  // learns the value from a replica that still holds it.
  bool AnswerIfDecided(common::ProcessId from, const common::Dot& dot) {
    if (!executor_.IsCommitted(dot)) {
      return false;
    }
    Commit commit;
    uint64_t* seqno = nullptr;
    if constexpr (kSeqnos) {
      seqno = &commit.seqno;
    }
    if (decided_.Find(dot, &commit.cmd, &commit.deps, seqno)) {
      commit.dot = dot;
      SendTo(from, commit);
    }
    return true;
  }

  void ApplyCommit(const common::Dot& dot, const Command& cmd, const common::DepSet& deps,
                   uint64_t seqno, bool fast_path) {
    if (executor_.IsCommitted(dot)) {
      return;
    }
    // Copy into scratch before touching infos_: callers pass references into Info
    // storage, which the flat map moves on rehash. The scratch reuses its capacity,
    // so this allocates nothing in steady state.
    commit_cmd_scratch_ = cmd;
    commit_deps_scratch_ = deps;
    Info& info = GetInfo(dot);
    info.phase = Info::kCommitted;
    info.cmd = commit_cmd_scratch_;
    info.deps = commit_deps_scratch_;
    if constexpr (kSeqnos) {
      info.seqno = seqno;
    }
    decided_.Record(dot, commit_cmd_scratch_, commit_deps_scratch_, seqno);
    // Commands learned only at commit time still enter the conflict index: later
    // conflicts() calls must report them. NFR reads are never tracked.
    if (!NfrRead(commit_cmd_scratch_)) {
      derived().RecordConflicts(dot, commit_cmd_scratch_, seqno);
    }
    stats_.committed++;
    if (commit_cmd_scratch_.is_noop()) {
      stats_.noops_committed++;
    }
    ctx_->Committed(dot, commit_cmd_scratch_, fast_path);
    if (commit_cmd_scratch_.is_noop() && !info.submitted_cmd.is_noop()) {
      // Recovery replaced our submitted command with noOp before any process saw its
      // payload: it will never execute under this dot. The client may resubmit.
      ctx_->Dropped(dot, info.submitted_cmd);
    }
    // Dependency tracking and the gap watch. Inserting may rehash infos_, so `info`
    // is dead from here on.
    recovery_.OnCommit(dot, commit_deps_scratch_, infos_,
                       [this](const common::Dot& d) { return executor_.IsCommitted(d); });
    // This call may execute `dot` (and others), erasing their infos_ entries.
    executor_.Commit(dot, commit_cmd_scratch_, commit_deps_scratch_, seqno);
  }

  const bool nfr_;
  std::unique_ptr<ConflictIndex> index_;
  exec::GraphExecutor executor_;
  uint64_t next_seq_ = 1;
  // Open-addressed flat map (see dot_map.h): per-command state allocates only on
  // amortized table growth, not per command.
  common::DotMap<Info> infos_;
  // When to recover a dot: suspicion, restarts, commit timeouts and watches.
  RecoveryScheduler recovery_;
  // Decided (committed) values of the last kDecidedHorizon client commands,
  // answering requests for commands whose Info the execute step already erased
  // (e.g. a restarted replica re-learning a dependency the rest of the cluster
  // executed long ago).
  DecidedLog decided_;

 private:
  Derived& derived() { return static_cast<Derived&>(*this); }
  auto RecoverFn() {
    return [this](const common::Dot& d) { return derived().Recover(d); };
  }

  Command commit_cmd_scratch_;
  common::DepSet commit_deps_scratch_;
};

}  // namespace smr

#endif  // SRC_SMR_DEPENDENCY_ENGINE_H_
