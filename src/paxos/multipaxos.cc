#include "src/paxos/multipaxos.h"

#include <algorithm>

#include "src/common/check.h"

namespace paxos {

using common::Ballot;
using common::Dot;
using common::ProcessId;
using common::Quorum;

namespace {
// Synthetic process id used in execution Dots for log-ordered protocols (the checker
// keys on (client, seq), the Dot is informational).
constexpr ProcessId kLogProc = 30;
}  // namespace

PaxosEngine::PaxosEngine(Config config) : config_(config) {
  CHECK_GE(config_.n, 3u);
  CHECK_GE(config_.f, 1u);
  CHECK_LE(config_.f, (config_.n - 1) / 2);
}

void PaxosEngine::OnStart() {
  CHECK_EQ(config_.n, n_);
  if (config_.by_proximity.empty()) {
    for (ProcessId p = 0; p < n_; p++) {
      if (p != self_) {
        config_.by_proximity.push_back(p);
      }
    }
  }
  if (self_ == config_.initial_leader) {
    leading_ = true;
    ballot_ = common::InitialBallot(self_);
    promised_ = ballot_;
  } else {
    promised_ = common::InitialBallot(config_.initial_leader);
  }
}

ProcessId PaxosEngine::CurrentLeader() const {
  return promised_ == 0 ? config_.initial_leader : common::BallotOwner(promised_, n_);
}

Quorum PaxosEngine::Phase2Quorum() const {
  Quorum q;
  q.Add(self_);
  // Closest responsive acceptors first; fall back to suspected ones when fewer than
  // Phase2Size responsive processes remain.
  for (ProcessId p : config_.by_proximity) {
    if (q.size() >= config_.Phase2Size()) {
      return q;
    }
    if (suspected_.count(p) == 0) {
      q.Add(p);
    }
  }
  for (ProcessId p : config_.by_proximity) {
    if (q.size() >= config_.Phase2Size()) {
      break;
    }
    q.Add(p);
  }
  return q;
}

void PaxosEngine::Submit(smr::Command cmd) {
  stats_.submitted++;
  if (leading_) {
    ProposeInSlot(next_slot_++, cmd);
    return;
  }
  msg::PxForward fwd;
  fwd.cmd = std::move(cmd);
  ProcessId leader = CurrentLeader();
  if (leader == self_) {
    // Shouldn't happen (leading_ false but owning the promised ballot); drop into
    // election instead of looping forever.
    StartElection();
    return;
  }
  SendTo(leader, fwd);
}

void PaxosEngine::HandleForward(ProcessId from, const msg::PxForward& m) {
  if (leading_) {
    ProposeInSlot(next_slot_++, m.cmd);
  } else {
    // Re-forward to the current leader (e.g. leadership moved).
    ProcessId leader = CurrentLeader();
    if (leader != self_) {
      SendTo(leader, m);
    }
  }
}

void PaxosEngine::ProposeInSlot(uint64_t slot, const smr::Command& cmd) {
  SlotState& s = log_[slot];
  s.cmd = cmd;
  s.accepted_ballot = ballot_;
  s.proposed_by_me = true;
  s.acked = Quorum();
  msg::PxAccept acc;
  acc.slot = slot;
  acc.ballot = ballot_;
  acc.cmd = cmd;
  SendToQuorum(Phase2Quorum(), acc);
}

void PaxosEngine::HandleAccept(ProcessId from, const msg::PxAccept& m) {
  if (m.ballot < promised_) {
    return;
  }
  promised_ = m.ballot;
  if (leading_ && common::BallotOwner(m.ballot, n_) != self_) {
    leading_ = false;  // preempted
  }
  SlotState& s = log_[m.slot];
  if (s.committed) {
    // Already decided (e.g. a new leader re-proposing a slot the old leader committed):
    // short-circuit with the decision so the proposer does not stall on our ack.
    msg::PxCommit commit;
    commit.slot = m.slot;
    commit.cmd = s.cmd;
    SendTo(from, commit);
    return;
  }
  s.cmd = m.cmd;
  s.accepted_ballot = m.ballot;
  msg::PxAccepted ack;
  ack.slot = m.slot;
  ack.ballot = m.ballot;
  SendTo(from, ack);
}

void PaxosEngine::HandleAccepted(ProcessId from, const msg::PxAccepted& m) {
  if (!leading_ || m.ballot != ballot_) {
    return;
  }
  auto it = log_.find(m.slot);
  if (it == log_.end() || it->second.committed) {
    return;
  }
  SlotState& s = it->second;
  if (s.acked.Contains(from)) {
    return;
  }
  s.acked.Add(from);
  if (s.acked.size() >= config_.Phase2Size()) {
    msg::PxCommit commit;
    commit.slot = m.slot;
    commit.cmd = s.cmd;
    SendToOthers(commit);
    CommitSlot(m.slot, s.cmd);
  }
}

void PaxosEngine::HandleCommit(ProcessId from, const msg::PxCommit& m) {
  CommitSlot(m.slot, m.cmd);
}

void PaxosEngine::CommitSlot(uint64_t slot, const smr::Command& cmd) {
  SlotState& s = log_[slot];
  if (s.committed) {
    return;
  }
  s.committed = true;
  s.cmd = cmd;
  stats_.committed++;
  ctx_->Committed(Dot{kLogProc, slot}, cmd, /*fast_path=*/false);
  if (leading_) {
    next_slot_ = std::max(next_slot_, slot + 1);
  }
  TryExecute();
}

void PaxosEngine::TryExecute() {
  while (true) {
    auto it = log_.find(execute_upto_);
    if (it == log_.end() || !it->second.committed) {
      return;
    }
    stats_.executed++;
    ctx_->Executed(Dot{kLogProc, execute_upto_}, it->second.cmd);
    execute_upto_++;
  }
}

// ---------------------------------------------------------------------------
// Fail-over: Paxos phase 1 over the phase-1 quorum.
// ---------------------------------------------------------------------------

void PaxosEngine::OnSuspect(ProcessId p) {
  if (p == self_) {
    return;
  }
  suspected_.insert(p);
  if (p != CurrentLeader() || leading_) {
    return;
  }
  StartElection();
}

void PaxosEngine::StartElection() {
  electing_ = true;
  ballot_ = common::NextRecoveryBallot(self_, std::max(promised_, ballot_), n_);
  promises_ = Quorum();
  promise_msgs_.clear();
  election_from_slot_ = execute_upto_;
  msg::PxPrepare prep;
  prep.ballot = ballot_;
  prep.from_slot = election_from_slot_;
  SendAll(prep);
  ctx_->SetTimer(config_.election_retry, kElectionRetryToken);
}

void PaxosEngine::OnTimer(uint64_t token) {
  if (token == kElectionRetryToken && electing_) {
    StartElection();  // retry with a higher ballot
  }
}

void PaxosEngine::HandlePrepare(ProcessId from, const msg::PxPrepare& m) {
  if (m.ballot <= promised_) {
    return;
  }
  promised_ = m.ballot;
  if (leading_ && common::BallotOwner(m.ballot, n_) != self_) {
    leading_ = false;
  }
  // Fill the reusable scratch in place: entries in the stable prefix are overwritten
  // (their command strings reuse capacity) and the vector itself never re-grows below
  // its high-water mark (resize keeps capacity; entries above `count` are re-created
  // empty if a later prepare is longer). The copy into the send envelope is a single
  // sized allocation instead of a growth sequence per prepare.
  msg::PxPromise& promise = promise_scratch_;
  promise.ballot = m.ballot;
  size_t count = 0;
  for (const auto& [slot, s] : log_) {
    if (slot >= m.from_slot && s.accepted_ballot != 0) {
      if (count == promise.accepted.size()) {
        promise.accepted.emplace_back();
      }
      msg::PxPromiseEntry& e = promise.accepted[count++];
      e.slot = slot;
      e.ballot = s.committed ? ~Ballot{0} : s.accepted_ballot;  // committed wins
      e.cmd = s.cmd;
    }
  }
  promise.accepted.resize(count);
  SendTo(from, promise);
}

void PaxosEngine::HandlePromise(ProcessId from, const msg::PxPromise& m) {
  if (!electing_ || m.ballot != ballot_ || promises_.Contains(from)) {
    return;
  }
  promises_.Add(from);
  promise_msgs_.push_back(m);
  if (promises_.size() < config_.Phase1Size()) {
    return;
  }
  electing_ = false;
  leading_ = true;
  promised_ = ballot_;

  // Adopt the highest-ballot accepted value per slot; fill gaps with noOp.
  std::map<uint64_t, std::pair<Ballot, smr::Command>> adopted;
  for (const auto& promise : promise_msgs_) {
    for (const auto& e : promise.accepted) {
      auto it = adopted.find(e.slot);
      if (it == adopted.end() || e.ballot > it->second.first) {
        adopted[e.slot] = {e.ballot, e.cmd};
      }
    }
  }
  uint64_t max_slot = election_from_slot_;
  if (!adopted.empty()) {
    max_slot = std::max(max_slot, adopted.rbegin()->first + 1);
  }
  next_slot_ = max_slot;
  for (uint64_t slot = election_from_slot_; slot < max_slot; slot++) {
    auto it = adopted.find(slot);
    const smr::Command cmd = it != adopted.end() ? it->second.second : smr::MakeNoOp();
    auto lit = log_.find(slot);
    if (lit != log_.end() && lit->second.committed) {
      continue;
    }
    ProposeInSlot(slot, cmd);
  }
}

void PaxosEngine::OnMessage(ProcessId from, const msg::Message& m) {
  if (auto* v = msg::get_if<msg::PxForward>(&m)) {
    HandleForward(from, *v);
  } else if (auto* v = msg::get_if<msg::PxAccept>(&m)) {
    HandleAccept(from, *v);
  } else if (auto* v = msg::get_if<msg::PxAccepted>(&m)) {
    HandleAccepted(from, *v);
  } else if (auto* v = msg::get_if<msg::PxCommit>(&m)) {
    HandleCommit(from, *v);
  } else if (auto* v = msg::get_if<msg::PxPrepare>(&m)) {
    HandlePrepare(from, *v);
  } else if (auto* v = msg::get_if<msg::PxPromise>(&m)) {
    HandlePromise(from, *v);
  }
}

}  // namespace paxos
