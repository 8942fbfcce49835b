#include "src/core/atlas.h"

#include "src/common/check.h"

namespace atlas {

using common::Ballot;
using common::DepSet;
using common::Dot;
using common::ProcessId;
using common::Quorum;

AtlasEngine::AtlasEngine(Config config)
    : DependencyEngine(exec::BatchOrder::kDot, config), config_(config) {
  config_.Validate();
}

Quorum AtlasEngine::PickFastQuorum(bool nfr_read) const {
  // Fast quorum: self plus the closest responsive peers, size floor(n/2)+f (line 4),
  // or a plain majority for NFR reads (§4).
  size_t size = nfr_read ? config_.MajoritySize() : config_.FastQuorumSize();
  return recovery_.PickQuorum(size);
}

Quorum AtlasEngine::PickSlowQuorum() const {
  return recovery_.PickQuorum(config_.SlowQuorumSize());
}

Phase AtlasEngine::PhaseOf(const Dot& dot) const {
  if (executor_.IsExecuted(dot)) {
    return Phase::kExecute;
  }
  if (executor_.IsCommitted(dot)) {
    return Phase::kCommit;
  }
  const Info* info = infos_.Find(dot);
  return info == nullptr ? Phase::kStart : info->phase;
}

DepSet AtlasEngine::CommittedDeps(const Dot& dot) const {
  DepSet deps;
  decided_.Find(dot, nullptr, &deps);
  return deps;
}

// ---------------------------------------------------------------------------
// Start + collect phases (lines 1-19)
// ---------------------------------------------------------------------------

void AtlasEngine::Submit(smr::Command cmd) {
  stats_.submitted++;
  Dot dot{self_, next_seq_++};  // line 2
  bool nfr = NfrRead(cmd);

  GetInfo(dot).submitted_cmd = cmd;

  Quorum q = PickFastQuorum(nfr);  // line 4

  msg::MCollect collect;
  collect.dot = dot;
  collect.cmd = std::move(cmd);
  index_->CollectInto(collect.cmd, dot, collect.past);  // line 3
  collect.quorum = q;
  collect.nfr = nfr;
  // Line 5: send MCollect to the fast quorum (self-delivery is inline and runs the
  // MCollect handler below, which stores the command and acks).
  SendToQuorum(q, collect);
  recovery_.ArmCommitTimeout(dot);
}

void AtlasEngine::HandleMCollect(ProcessId from, const msg::MCollect& m) {
  Info& info = GetInfo(m.dot);
  if (info.phase != Phase::kStart) {  // precondition, line 7
    return;
  }
  if (m.dot.proc != self_) {
    // Fast-quorum member: watch for the commit so a lost MCommit (or a partitioned
    // coordinator) cannot leave this command pending here forever.
    recovery_.Watch(m.dot, info.mark);
  }
  // Line 8: dep[id] <- conflicts(c) ∪ past, collected straight into the per-command
  // state (no temporary set).
  index_->CollectInto(m.cmd, m.dot, info.deps);
  info.deps.UnionWith(m.past);
  // NFR reads are excluded from dependency tracking (they can never block a later
  // command), so they are not recorded in the conflict index (§4).
  if (!m.nfr) {
    index_->Record(m.dot, m.cmd);
  }
  info.cmd = m.cmd;          // line 9
  info.quorum = m.quorum;
  info.nfr = m.nfr;
  info.phase = Phase::kCollect;  // line 10
  msg::MCollectAck ack;
  ack.dot = m.dot;
  ack.deps = info.deps;
  SendTo(from, ack);  // line 11
}

void AtlasEngine::HandleMCollectAck(ProcessId from, const msg::MCollectAck& m) {
  Info* found = infos_.Find(m.dot);
  if (found == nullptr) {
    return;
  }
  Info& info = *found;
  // Preconditions (line 13): still in collect phase at the coordinator, ack from a fast
  // quorum member, not a duplicate.
  if (info.phase != Phase::kCollect || m.dot.proc != self_ ||
      !info.quorum.Contains(from) || info.quorum_acked.Contains(from)) {
    return;
  }
  info.quorum_acked.Add(from);
  if (info.collect_deps.capacity() == 0 && !spare_collect_deps_.empty()) {
    info.collect_deps = std::move(spare_collect_deps_.back());
    spare_collect_deps_.pop_back();
  }
  info.collect_deps.push_back(m.deps);
  if (info.quorum_acked == info.quorum) {  // "from all j in Q"
    FinishCollect(m.dot, info);
  }
}

void AtlasEngine::FinishCollect(const Dot& dot, Info& info) {
  // NFR (§4): commit immediately after one round trip to a majority, taking the plain
  // union of the reported dependencies. Otherwise (line 15): fast path iff every
  // reported dependency was reported by >= f quorum members (∪Q dep == ∪fQ dep).
  const bool fast_path =
      info.nfr || common::FastPathCondition(info.collect_deps, config_.f, dep_scratch_);
  if (fast_path || !config_.prune_slow_path) {
    common::UnionInto(info.collect_deps, scratch_deps_);  // line 14
  } else if (config_.index_mode == smr::IndexMode::kFull) {
    // Slow path with the §4 pruning optimization: the coordinator proposes ∪fQ dep,
    // dropping dependencies reported by fewer than f quorum members. The paper's
    // per-identifier counting is only sound when conflicts() reports every
    // conflicting identifier (full index); under dependency compression quorum
    // members may report different aliases of one conflict chain, so the counting
    // must be per originating process instead (see ThresholdUnionByProc and
    // DESIGN.md §7).
    common::ThresholdUnionInto(info.collect_deps, config_.f, dep_scratch_,
                               scratch_deps_);
  } else {
    common::ThresholdUnionByProcInto(info.collect_deps, config_.f, dep_scratch_,
                                     scratch_deps_);
  }
  // The acks are consumed: hand the vector's capacity to the next collect, so the
  // steady-state round allocates nothing for them.
  info.collect_deps.clear();
  spare_collect_deps_.push_back(std::move(info.collect_deps));
  if (fast_path) {
    stats_.fast_paths++;
    // Line 16.
    CommitAndBroadcast(dot, info, info.cmd, scratch_deps_, /*seqno=*/0,
                       /*fast_path=*/true);
    return;
  }
  stats_.slow_paths++;  // lines 17-19
  ProposeConsensus(dot, info, info.cmd, scratch_deps_, common::InitialBallot(self_));
}

// ---------------------------------------------------------------------------
// Consensus (slow path + recovery proposals, lines 20-27)
// ---------------------------------------------------------------------------

void AtlasEngine::ProposeConsensus(const Dot& dot, Info& info, const smr::Command& cmd,
                                   DepSet deps, Ballot ballot) {
  info.proposal_ballot = ballot;
  info.consensus_acked = Quorum();
  msg::MConsensus prop;
  prop.dot = dot;
  prop.cmd = cmd;
  prop.deps = std::move(deps);
  prop.ballot = ballot;
  if (ballot == common::InitialBallot(self_)) {
    // Initial coordinator: Paxos phase 2 to a slow quorum of f+1 (line 18-19).
    SendToQuorum(PickSlowQuorum(), prop);
  } else {
    // Recovery proposals go to all (lines 48-53): any f+1 acceptors suffice and the
    // recoverer does not know which processes are reachable.
    SendAll(prop);
  }
}

void AtlasEngine::HandleMConsensus(ProcessId from, const msg::MConsensus& m) {
  if (AnswerIfDecided(from, m.dot)) {
    return;  // already decided: tell the proposer directly (mirrors lines 34-36)
  }
  Info& info = GetInfo(m.dot);
  if (info.bal > m.ballot) {  // precondition, line 21
    return;
  }
  info.cmd = m.cmd;  // line 22
  info.deps = m.deps;
  info.bal = m.ballot;  // line 23
  info.abal = m.ballot;
  msg::MConsensusAck ack;
  ack.dot = m.dot;
  ack.ballot = m.ballot;
  SendTo(from, ack);  // line 24
}

void AtlasEngine::HandleMConsensusAck(ProcessId from, const msg::MConsensusAck& m) {
  Info* found = infos_.Find(m.dot);
  if (found == nullptr) {
    return;
  }
  Info& info = *found;
  // Precondition (line 26): the ack matches my outstanding proposal and nothing with a
  // higher ballot has preempted me.
  if (info.proposal_ballot != m.ballot || info.bal != m.ballot ||
      info.consensus_acked.Contains(from)) {
    return;
  }
  info.consensus_acked.Add(from);
  if (info.consensus_acked.size() == config_.SlowQuorumSize()) {  // |Q| = f+1
    // Line 27.
    CommitAndBroadcast(m.dot, info, info.cmd, info.deps, /*seqno=*/0,
                       /*fast_path=*/false);
  }
}

// Commit (lines 28-30) is the shared commit half: smr::DependencyEngine's
// CommitAndBroadcast, HandleCommit and ApplyCommit.

// ---------------------------------------------------------------------------
// Recovery (Algorithm 2, lines 31-53)
// ---------------------------------------------------------------------------

bool AtlasEngine::Recover(const Dot& dot) {
  if (executor_.IsCommitted(dot)) {
    return false;
  }
  Info& info = GetInfo(dot);
  stats_.recoveries_started++;
  Ballot b = common::NextRecoveryBallot(self_, info.bal, n_);  // line 32
  info.rec_ballot = b;
  info.rec_acked = Quorum();
  info.rec_acks.clear();
  recovery_.Defer(info.mark);
  msg::MRec rec;
  rec.dot = dot;
  rec.cmd = info.cmd;  // noOp unless this process saw the payload
  rec.ballot = b;
  SendAll(rec);  // line 33
  return true;
}

void AtlasEngine::HandleMRec(ProcessId from, const msg::MRec& m) {
  // Lines 34-36: already decided, short-circuit with MCommit.
  if (AnswerIfDecided(from, m.dot)) {
    return;
  }
  Info& info = GetInfo(m.dot);
  if (info.bal >= m.ballot) {  // precondition, line 38
    return;
  }
  if (info.bal == 0 && info.phase == Phase::kStart) {  // line 39
    index_->CollectInto(m.cmd, m.dot, info.deps);  // line 40
    info.cmd = m.cmd;                              // line 41
    if (!NfrRead(m.cmd)) {
      index_->Record(m.dot, m.cmd);
    }
  }
  info.bal = m.ballot;           // line 42
  info.phase = Phase::kRecover;  // line 43
  msg::MRecAck ack;              // line 44
  ack.dot = m.dot;
  ack.cmd = info.cmd;
  ack.deps = info.deps;
  ack.quorum = info.quorum;
  ack.accepted_ballot = info.abal;
  ack.ballot = m.ballot;
  SendTo(from, ack);
}

void AtlasEngine::HandleMRecAck(ProcessId from, const msg::MRecAck& m) {
  Info* found = infos_.Find(m.dot);
  if (found == nullptr) {
    return;
  }
  Info& info = *found;
  // Precondition (line 46): acks for my outstanding recovery ballot, not preempted.
  if (info.rec_ballot != m.ballot || info.bal != m.ballot ||
      info.rec_acked.Contains(from)) {
    return;
  }
  info.rec_acked.Add(from);
  info.rec_acks.emplace_back(from, m);
  if (info.rec_acked.size() < config_.RecoveryQuorumSize()) {  // |Q| = n - f
    return;
  }

  const Ballot b = m.ballot;
  // Case 1 (lines 47-49): some process accepted a consensus proposal; by Paxos rules
  // adopt the one accepted at the highest ballot.
  const msg::MRecAck* best = nullptr;
  for (const auto& [sender, ack] : info.rec_acks) {
    if (ack.accepted_ballot != 0 &&
        (best == nullptr || ack.accepted_ballot > best->accepted_ballot)) {
      best = &ack;
    }
  }
  if (best != nullptr) {
    ProposeConsensus(m.dot, info, best->cmd, best->deps, b);
    return;
  }
  // Case 2 (lines 50-52): nobody accepted a proposal, but some process saw the fast
  // quorum (and hence the payload).
  const msg::MRecAck* with_quorum = nullptr;
  for (const auto& [sender, ack] : info.rec_acks) {
    if (!ack.quorum.empty()) {
      with_quorum = &ack;
      break;
    }
  }
  if (with_quorum != nullptr) {
    const ProcessId initial = m.dot.proc;
    Quorum selected;
    if (info.rec_acked.Contains(initial)) {
      // Line 51, first case: the initial coordinator replied, so it never took (and
      // will never take) the fast path; the union over all n-f >= floor(n/2)+1 ackers
      // is a valid choice by Property 1.
      selected = info.rec_acked;
    } else {
      // Line 51, second case: the initial coordinator may have taken the fast path.
      // Q' = Q ∩ Q0 contains at least floor(n/2) fast-quorum members; by Property 2
      // the union of their reported dependencies reconstructs any fast-path proposal.
      selected = info.rec_acked.Intersect(with_quorum->quorum);
    }
    DepSet deps;
    for (const auto& [sender, ack] : info.rec_acks) {
      if (selected.Contains(sender)) {
        deps.UnionWith(ack.deps);
      }
    }
    ProposeConsensus(m.dot, info, with_quorum->cmd, std::move(deps), b);  // line 52
    return;
  }
  // Case 3 (line 53): nobody saw the payload; replace the command with noOp.
  ProposeConsensus(m.dot, info, smr::MakeNoOp(), DepSet(), b);
}

// ---------------------------------------------------------------------------

void AtlasEngine::OnMessage(ProcessId from, const msg::Message& m) {
  switch (m.index()) {
    case 0:
      HandleMCollect(from, msg::get<msg::MCollect>(m));
      break;
    case 1:
      HandleMCollectAck(from, msg::get<msg::MCollectAck>(m));
      break;
    case 2:
      HandleMConsensus(from, msg::get<msg::MConsensus>(m));
      break;
    case 3:
      HandleMConsensusAck(from, msg::get<msg::MConsensusAck>(m));
      break;
    case 4:
      HandleCommit(from, msg::get<msg::MCommit>(m));
      break;
    case 5:
      HandleMRec(from, msg::get<msg::MRec>(m));
      break;
    case 6:
      HandleMRecAck(from, msg::get<msg::MRecAck>(m));
      break;
    default:
      break;  // not an Atlas message
  }
}

}  // namespace atlas
