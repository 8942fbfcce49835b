#include "src/epaxos/epaxos.h"

#include <algorithm>

#include "src/common/check.h"

namespace epaxos {

using common::Ballot;
using common::DepSet;
using common::Dot;
using common::ProcessId;
using common::Quorum;

EPaxosEngine::EPaxosEngine(Config config)
    : DependencyEngine(exec::BatchOrder::kSeqDot, config), config_(config) {
  CHECK_GE(config_.n, 3u);
}

void EPaxosEngine::RecordConflicts(const Dot& dot, const smr::Command& cmd,
                                   uint64_t seqno) {
  index_->Record(dot, cmd);
  seqnos_[dot] = seqno;
}

uint64_t EPaxosEngine::MaxConflictSeq(const DepSet& deps) const {
  uint64_t max_seq = 0;
  for (const Dot& d : deps) {
    const uint64_t* s = seqnos_.Find(d);
    if (s != nullptr) {
      max_seq = std::max(max_seq, *s);
    }
  }
  return max_seq;
}

void EPaxosEngine::Submit(smr::Command cmd) {
  stats_.submitted++;
  Dot dot{self_, next_seq_++};
  GetInfo(dot).submitted_cmd = cmd;
  bool nfr = NfrRead(cmd);
  size_t fq_size = nfr ? config_.MajoritySize() : config_.FastQuorumSize();
  Quorum q = recovery_.PickQuorum(fq_size);

  msg::EpPreAccept pre;
  pre.dot = dot;
  pre.cmd = std::move(cmd);
  index_->CollectInto(pre.cmd, dot, pre.deps);
  pre.seqno = MaxConflictSeq(pre.deps) + 1;
  pre.quorum = q;
  pre.nfr = nfr;
  SendToQuorum(q, pre);
  recovery_.ArmCommitTimeout(dot);
}

void EPaxosEngine::HandlePreAccept(ProcessId from, const msg::EpPreAccept& m) {
  if (executor_.IsCommitted(m.dot)) {
    return;  // duplicate delivery after the command was decided locally
  }
  Info& info = GetInfo(m.dot);
  if (info.phase != Phase::kNone || info.bal != 0) {
    return;  // already moved past pre-accept (e.g. recovery touched this id)
  }
  if (m.dot.proc != self_) {
    // Watch for the commit so a lost EpCommit (or a partitioned leader) cannot
    // leave this command pending here forever.
    recovery_.Watch(m.dot, info.mark);
  }
  // Merge the leader's deps/seq with the local view, straight into the per-command
  // state (no temporary set).
  index_->CollectInto(m.cmd, m.dot, info.deps);
  info.deps.UnionWith(m.deps);
  uint64_t seqno = std::max(m.seqno, MaxConflictSeq(info.deps) + 1);
  if (!m.nfr) {
    RecordConflicts(m.dot, m.cmd, seqno);
  }
  info.phase = Phase::kPreAccepted;
  info.cmd = m.cmd;
  info.seqno = seqno;
  info.quorum = m.quorum;
  info.nfr = m.nfr;
  msg::EpPreAcceptAck ack;
  ack.dot = m.dot;
  ack.deps = info.deps;
  ack.seqno = seqno;
  SendTo(from, ack);
}

void EPaxosEngine::HandlePreAcceptAck(ProcessId from, const msg::EpPreAcceptAck& m) {
  Info* found = infos_.Find(m.dot);
  if (found == nullptr) {
    return;
  }
  Info& info = *found;
  if (m.dot.proc != self_ || info.phase != Phase::kPreAccepted ||
      !info.quorum.Contains(from) || info.quorum_acked.Contains(from)) {
    return;
  }
  if (info.bal != 0) {
    // A recovery Prepare touched this identifier: our implicit ballot-0 proposal is
    // dead. Committing (fast or slow) here could contradict the recoverer's choice.
    return;
  }
  // Fold the ack into the running aggregates instead of storing it: the decision
  // below needs only the union / max over all acks and whether every reply matched
  // the leader's own (deps, seqno) — which are fixed for the whole collection (set
  // when the leader processed its own EpPreAccept, mutated again only after the
  // decision). Storing the acks was the leader-side per-command allocation.
  info.quorum_acked.Add(from);
  info.pre_union_deps.UnionWith(m.deps);
  info.pre_union_seqno = std::max(info.pre_union_seqno, m.seqno);
  if (m.deps != info.deps || m.seqno != info.seqno) {
    info.pre_acks_match = false;
  }
  if (info.quorum_acked != info.quorum) {
    return;
  }

  if (info.nfr) {
    // NFR read: commit after one round trip to a majority with the union of deps.
    info.deps = std::move(info.pre_union_deps);
    info.seqno = info.pre_union_seqno;
    stats_.fast_paths++;
    CommitAndBroadcast(m.dot, info, info.cmd, info.deps, info.seqno, /*fast_path=*/true);
    return;
  }

  // EPaxos fast-path condition: every reply matches the leader's own (deps, seq)
  // exactly. The leader processed its own EpPreAccept inline first, so its stored
  // (deps, seqno) are its own contribution; all replies must equal it.
  if (info.pre_acks_match) {
    stats_.fast_paths++;
    CommitAndBroadcast(m.dot, info, info.cmd, info.deps, info.seqno, /*fast_path=*/true);
    return;
  }
  // Slow path: union deps, max seq, then Paxos-Accept with a majority. The
  // aggregates are dead after this (further acks are blocked by preaccept_acked),
  // so the union set is moved out, not copied.
  stats_.slow_paths++;
  RunAcceptPhase(m.dot, info, info.cmd, std::move(info.pre_union_deps),
                 info.pre_union_seqno, common::InitialBallot(self_));
}

void EPaxosEngine::RunAcceptPhase(const Dot& dot, Info& info, const smr::Command& cmd,
                                  DepSet deps, uint64_t seqno, Ballot ballot) {
  info.proposal_ballot = ballot;
  info.accept_acked = Quorum();
  msg::EpAccept acc;
  acc.dot = dot;
  acc.cmd = cmd;
  acc.deps = std::move(deps);
  acc.seqno = seqno;
  acc.ballot = ballot;
  // A majority acknowledgement suffices; send to the closest responsive majority.
  SendToQuorum(recovery_.PickQuorum(config_.MajoritySize()), acc);
}

void EPaxosEngine::HandleAccept(ProcessId from, const msg::EpAccept& m) {
  if (executor_.IsCommitted(m.dot)) {
    return;  // already decided locally; never re-accept (duplicates, stale recovery)
  }
  Info& info = GetInfo(m.dot);
  if (info.phase == Phase::kCommitted || info.bal > m.ballot) {
    return;
  }
  info.phase = Phase::kAccepted;
  info.cmd = m.cmd;
  info.deps = m.deps;
  info.seqno = m.seqno;
  info.bal = m.ballot;
  info.abal = m.ballot;
  if (!NfrRead(m.cmd)) {
    RecordConflicts(m.dot, m.cmd, m.seqno);
  }
  msg::EpAcceptAck ack;
  ack.dot = m.dot;
  ack.ballot = m.ballot;
  SendTo(from, ack);
}

void EPaxosEngine::HandleAcceptAck(ProcessId from, const msg::EpAcceptAck& m) {
  Info* found = infos_.Find(m.dot);
  if (found == nullptr) {
    return;
  }
  Info& info = *found;
  if (info.proposal_ballot != m.ballot || info.bal != m.ballot ||
      info.accept_acked.Contains(from)) {
    return;
  }
  info.accept_acked.Add(from);
  if (info.accept_acked.size() == config_.MajoritySize()) {
    CommitAndBroadcast(m.dot, info, info.cmd, info.deps, info.seqno, /*fast_path=*/false);
  }
}

bool EPaxosEngine::Recover(const Dot& dot) {
  if (executor_.IsCommitted(dot)) {
    return false;
  }
  Info* found = infos_.Find(dot);
  if (found == nullptr) {
    return false;  // reclaimed (e.g. restart); the recovery scan owns it now
  }
  StartRecovery(dot, *found);
  return true;
}

void EPaxosEngine::StartRecovery(const Dot& dot, Info& info) {
  stats_.recoveries_started++;
  Ballot b = common::NextRecoveryBallot(self_, std::max(info.bal, info.rec_ballot), n_);
  info.rec_ballot = b;
  info.rec_acked = Quorum();
  // One aggregate per recovering Info, allocated lazily (recovery is cold) and
  // reset in place for each ballot round.
  if (info.rec == nullptr) {
    info.rec = std::make_unique<RecState>();
  } else {
    *info.rec = RecState();
  }
  recovery_.Defer(info.mark);
  msg::EpPrepare prep;
  prep.dot = dot;
  prep.ballot = b;
  if (info.phase != Phase::kNone || info.rec_cmd_known) {
    prep.cmd = info.cmd;
    prep.has_cmd = true;
  }
  SendAll(prep);
}

void EPaxosEngine::HandlePrepare(ProcessId from, const msg::EpPrepare& m) {
  if (AnswerIfDecided(from, m.dot)) {
    // Beyond the decided log's horizon this stays silent rather than claim
    // ignorance: a kNone reply for an executed command could let recovery commit a
    // noOp in its place.
    return;
  }
  Info& info = GetInfo(m.dot);
  if (info.phase != Phase::kCommitted && info.bal >= m.ballot) {
    return;
  }
  if (info.phase != Phase::kCommitted) {
    info.bal = m.ballot;
  }
  msg::EpPrepareAck ack;
  ack.dot = m.dot;
  ack.cmd = info.cmd;
  ack.deps = info.deps;
  ack.seqno = info.seqno;
  ack.phase = static_cast<uint8_t>(info.phase);
  ack.accepted_ballot = info.abal;
  ack.ballot = m.ballot;
  ack.was_initial_coordinator_reply = (m.dot.proc == self_);
  if (m.has_cmd && !NfrRead(m.cmd)) {
    // Report our *current* conflicts against the payload. A free-choice recovery
    // must take deps from a majority — any majority intersects the quorum that
    // (pre)accepted every conflicting commit, so the union below cannot miss an
    // ordering edge the way the recoverer's local index can (e.g. a commit whose
    // EpCommit to the recoverer was lost in a partition).
    index_->CollectInto(m.cmd, m.dot, ack.fresh_deps);
    ack.fresh_seqno = MaxConflictSeq(ack.fresh_deps) + 1;
  }
  SendTo(from, ack);
}

void EPaxosEngine::HandlePrepareAck(ProcessId from, const msg::EpPrepareAck& m) {
  Info* found = infos_.Find(m.dot);
  if (found == nullptr) {
    return;
  }
  Info& info = *found;
  if (info.rec_ballot != m.ballot || info.rec_acked.Contains(from)) {
    return;
  }
  if (info.rec == nullptr) {
    return;  // no recovery round live for this ballot (defensive; rec_ballot gated)
  }
  info.rec_acked.Add(from);
  // Fold the ack into this round's running aggregates (RecState) instead of
  // storing it: every criterion of the decision below — adopt-any-committed,
  // highest-ballot accepted, the coordinator-uncommitted proof, the first
  // non-coordinator pre-accept and whether later peers matched it, the
  // conservative union, and the majority-fresh conflict union — is computable
  // one ack at a time. (Ties in accepted_ballot keep first-arrival, matching the
  // old scan's strict `>` over arrival order.)
  RecState& rec = *info.rec;
  switch (static_cast<Phase>(m.phase)) {
    case Phase::kCommitted:
      // All committed reports for one dot carry the same decided value.
      rec.committed = true;
      rec.committed_cmd = m.cmd;
      rec.committed_deps = m.deps;
      rec.committed_seqno = m.seqno;
      break;
    case Phase::kAccepted:
      if (!rec.accepted || m.accepted_ballot > rec.best_abal) {
        rec.accepted = true;
        rec.best_abal = m.accepted_ballot;
        rec.accepted_cmd = m.cmd;
        rec.accepted_deps = m.deps;
        rec.accepted_seqno = m.seqno;
      }
      break;
    case Phase::kPreAccepted:
      if (!rec.any_preaccepted) {
        rec.any_preaccepted = true;
        rec.pre_cmd = m.cmd;  // same payload in every pre-accept of one dot
      }
      rec.pre_union_deps.UnionWith(m.deps);
      rec.pre_union_seqno = std::max(rec.pre_union_seqno, m.seqno);
      if (m.was_initial_coordinator_reply) {
        rec.coordinator_uncommitted = true;
      } else if (!rec.have_peer_pre) {
        rec.have_peer_pre = true;
        rec.peer_pre_cmd = m.cmd;
        rec.peer_pre_deps = m.deps;
        rec.peer_pre_seqno = m.seqno;
      } else if (m.deps != rec.peer_pre_deps || m.seqno != rec.peer_pre_seqno) {
        rec.peers_identical = false;
      }
      break;
    case Phase::kNone:
      break;
  }
  rec.fresh_deps.UnionWith(m.fresh_deps);
  rec.fresh_seqno = std::max(rec.fresh_seqno, m.fresh_seqno);
  if (info.rec_acked.size() != config_.MajoritySize()) {
    // Decide exactly once per ballot, on the first majority. A late ack must not
    // re-run the choice: that could propose a second, different value at the same
    // ballot, and mixed-value accept acks would then be counted together.
    return;
  }
  // Committed anywhere -> adopt. Accepted -> re-run Accept with the highest-ballot
  // value. Pre-accepted only -> conservative: union deps / max seq, Accept phase.
  if (rec.committed) {
    // Move out of the RecState first: ApplyCommit can execute the command
    // immediately, and the executed callback erases infos_[dot] — destroying the
    // Info (and the RecState it owns) the aggregates live in.
    msg::EpCommit commit;
    commit.dot = m.dot;
    commit.cmd = std::move(rec.committed_cmd);
    commit.deps = std::move(rec.committed_deps);
    commit.seqno = rec.committed_seqno;
    ApplyCommit(m.dot, commit.cmd, commit.deps, commit.seqno, /*fast_path=*/false);
    SendToOthers(commit);  // let others know too
    return;
  }
  if (rec.accepted) {
    RunAcceptPhase(m.dot, info, rec.accepted_cmd, std::move(rec.accepted_deps),
                   rec.accepted_seqno, m.ballot);
    return;
  }
  if (rec.any_preaccepted) {
    // Split the pre-accept evidence. The original coordinator replying kPreAccepted
    // proves nothing was committed (the coordinator commits first on both paths), so
    // the value choice is free. Without that proof, identical non-coordinator
    // pre-accepts may be the surviving trace of a fast commit — adopt their
    // attributes exactly, never widened. Only when the choice is provably free do we
    // fold in our current conflict index: a command that stalled through a partition
    // must pick up dependencies on everything committed since, or it would execute
    // unordered against those commands on some replicas.
    if (rec.have_peer_pre && rec.peers_identical && !rec.coordinator_uncommitted) {
      RunAcceptPhase(m.dot, info, rec.peer_pre_cmd, std::move(rec.peer_pre_deps),
                     rec.peer_pre_seqno, m.ballot);
      return;
    }
    // Locals, not references into the RecState: StartRecovery below resets it.
    DepSet deps = std::move(rec.pre_union_deps);
    uint64_t seqno = rec.pre_union_seqno;
    smr::Command cmd = std::move(rec.pre_cmd);
    if (info.phase == Phase::kNone && !info.rec_cmd_known) {
      // This prepare round ran without the payload (we only just learned it from
      // the acks above), so no replier could report fresh conflicts against it.
      // Choosing a value from stale pre-accept deps alone can miss an ordering
      // edge; stash the command and re-prepare at a higher ballot carrying it.
      info.cmd = std::move(cmd);
      info.rec_cmd_known = true;
      StartRecovery(m.dot, info);
      return;
    }
    if (!NfrRead(cmd)) {
      // Majority-fresh dependency collection: every ack carries the replier's
      // current conflicts of the payload, and the recovery majority intersects the
      // quorum behind every conflicting commit — so some ack contributes the edge
      // even when our own index never saw that commit.
      deps.UnionWith(rec.fresh_deps);
      seqno = std::max(seqno, rec.fresh_seqno);
      DepSet local;  // CollectInto clears its output set; union via a scratch
      index_->CollectInto(cmd, m.dot, local);
      deps.UnionWith(local);
      seqno = std::max(seqno, MaxConflictSeq(deps) + 1);
    }
    RunAcceptPhase(m.dot, info, cmd, std::move(deps), seqno, m.ballot);
    return;
  }
  // Nobody saw the command: commit a noOp in its place.
  RunAcceptPhase(m.dot, info, smr::MakeNoOp(), DepSet(), 0, m.ballot);
}

void EPaxosEngine::OnMessage(ProcessId from, const msg::Message& m) {
  if (auto* v = msg::get_if<msg::EpPreAccept>(&m)) {
    HandlePreAccept(from, *v);
  } else if (auto* v = msg::get_if<msg::EpPreAcceptAck>(&m)) {
    HandlePreAcceptAck(from, *v);
  } else if (auto* v = msg::get_if<msg::EpAccept>(&m)) {
    HandleAccept(from, *v);
  } else if (auto* v = msg::get_if<msg::EpAcceptAck>(&m)) {
    HandleAcceptAck(from, *v);
  } else if (auto* v = msg::get_if<msg::EpCommit>(&m)) {
    HandleCommit(from, *v);
  } else if (auto* v = msg::get_if<msg::EpPrepare>(&m)) {
    HandlePrepare(from, *v);
  } else if (auto* v = msg::get_if<msg::EpPrepareAck>(&m)) {
    HandlePrepareAck(from, *v);
  }
}

}  // namespace epaxos
