#include "src/mencius/mencius.h"

#include <algorithm>

#include "src/common/check.h"

namespace mencius {

using common::ProcessId;

namespace {
// Timer tokens: low two bits select the type.
constexpr uint64_t kRetryToken = 1;             // revocation retry scan
constexpr uint64_t kCommitTimeoutType = 2;      // (slot << 2) | 2
constexpr uint64_t kFrontierWatchType = 3;      // (slot << 2) | 3, see ArmFrontierWatch
}  // namespace

MenciusEngine::MenciusEngine(Config config) : config_(config) {
  CHECK_GE(config_.n, 3u);
}

void MenciusEngine::OnStart() {
  CHECK_EQ(config_.n, n_);
  next_own_slot_ = self_;
}

smr::RestartHint MenciusEngine::restart_hint() const {
  return smr::RestartHint{next_own_slot_, execute_upto_};
}

void MenciusEngine::ApplyRestartHint(const smr::RestartHint& hint) {
  next_own_slot_ = std::max(next_own_slot_, hint.seq_floor);
  execute_upto_ = std::max(execute_upto_, hint.exec_floor);
  // Outcomes below the floor stay unknown: the history holds only slots executed
  // since the restart, so the skipped-over ones read as unknown.
  restarted_ = true;
  MaybeRecoverBlocked();
}

void MenciusEngine::Submit(smr::Command cmd) {
  stats_.submitted++;
  // Our next own slot may already have been decided without us: a peer's revocation
  // can skip (or re-commit) a lagging slot of ours, and that does not advance
  // next_own_slot_. Proposing into a decided slot would strand a kProposed entry
  // below the execution frontier, where every "already decided" answer is discarded
  // and its commit-timeout retries forever.
  uint64_t slot = next_own_slot_;
  while (true) {
    if (slot < execute_upto_) {
      slot += n_;
      continue;
    }
    auto decided = log_.find(slot);
    if (decided != log_.end()) {
      const Slot& d = decided->second;
      // Decided slots are unusable, and so are slots carrying Paxos acceptor
      // state: proposing is an implicit self-accept at ballot 0, which must not
      // clobber a promise (or an accepted revocation value) at a higher ballot —
      // a revoker whose prepare majority meets the accept majority only here
      // would see cmd@0 instead of the accepted skip and decide a command for a
      // slot other replicas already executed as a skip.
      if (d.state == SlotState::kCommitted || d.state == SlotState::kSkipped ||
          d.promised > 0 || d.vkind != 0) {
        slot += n_;
        continue;
      }
    }
    break;
  }
  next_own_slot_ = slot;
  next_own_slot_ += n_;
  Slot& s = log_[slot];
  s.state = SlotState::kProposed;
  s.cmd = cmd;
  s.acked = common::Quorum();
  s.acked.Add(self_);
  s.vkind = 1;  // the proposal is an implicit self-accept at ballot 0
  s.vbal = 0;
  msg::MnPropose prop;
  prop.slot = slot;
  prop.cmd = std::move(cmd);
  prop.own_next = next_own_slot_;
  SendToOthers(prop);
  if (config_.commit_timeout > 0) {
    ctx_->SetTimer(config_.commit_timeout, (slot << 2) | kCommitTimeoutType);
  }
  if (n_ == 1) {
    TryExecute();
  }
}

bool MenciusEngine::AnswerIfDecided(ProcessId from, uint64_t slot) {
  uint64_t what = 0;  // 0 = unknown, 1 = command, 2 = skip
  const smr::Command* cmd = nullptr;
  smr::Command executed;
  if (slot < execute_upto_) {
    // A miss leaves `what` unknown.
    history_.Find(common::Dot{OwnerOf(slot), slot}, &executed, nullptr, &what);
    cmd = &executed;
  } else {
    auto it = log_.find(slot);
    if (it != log_.end()) {
      if (it->second.state == SlotState::kCommitted) {
        what = 1;
        cmd = &it->second.cmd;
      } else if (it->second.state == SlotState::kSkipped) {
        what = 2;
      }
    }
  }
  if (what == 1) {
    msg::MnCommit c;
    c.slot = slot;
    c.cmd = *cmd;
    SendTo(from, c);
    return true;
  }
  if (what == 2) {
    msg::MnRevokeSkip sk;
    sk.slot = slot;
    SendTo(from, sk);
    return true;
  }
  return false;
}

void MenciusEngine::HandlePropose(ProcessId from, const msg::MnPropose& m) {
  max_seen_slot_ = std::max(max_seen_slot_, std::max(m.slot, m.own_next));
  // Free our own lagging slots so the proposer's slot can eventually execute.
  SkipOwnSlotsBelow(m.slot);
  if (m.slot < execute_upto_) {
    // Already executed here: a retransmission (e.g. after the proposer healed).
    // Answer from retained history if we still know the outcome.
    AnswerIfDecided(from, m.slot);
    return;
  }
  Slot& s = log_[m.slot];
  if (s.state == SlotState::kCommitted || s.state == SlotState::kSkipped) {
    AnswerIfDecided(from, m.slot);
    return;
  }
  if (s.promised > 0) {
    // We promised a revocation ballot: the ballot-0 proposal can no longer be
    // accepted here (the revoker may decide a skip).
    return;
  }
  if (s.state == SlotState::kEmpty) {
    s.state = SlotState::kProposed;
    s.cmd = m.cmd;
  }
  s.vkind = 1;  // accepted at ballot 0
  s.vbal = 0;
  msg::MnAck ack;
  ack.slot = m.slot;
  ack.own_next = next_own_slot_;
  SendTo(from, ack);
}

void MenciusEngine::SkipOwnSlotsBelow(uint64_t bound) {
  if (next_own_slot_ >= bound) {
    return;
  }
  uint64_t from = next_own_slot_;
  MarkSkipped(self_, from, bound);
  // Advance to the smallest owned slot >= bound.
  uint64_t steps = (bound - next_own_slot_ + n_ - 1) / n_;
  next_own_slot_ += steps * n_;
  msg::MnSkipRange skip;
  skip.owner = self_;
  skip.from = from;
  skip.to = bound;
  SendToOthers(skip);
  TryExecute();
}

void MenciusEngine::MarkSkipped(ProcessId owner, uint64_t from, uint64_t to) {
  // Owned slots of `owner` in [from, to).
  uint64_t first = from;
  uint64_t rem = first % n_;
  if (rem != owner) {
    first += (owner + n_ - rem) % n_;
  }
  for (uint64_t slot = first; slot < to; slot += n_) {
    if (slot < execute_upto_) {
      continue;  // already executed; do not recreate stale entries (dup delivery)
    }
    Slot& s = log_[slot];
    if (s.state == SlotState::kEmpty) {
      s.state = SlotState::kSkipped;
    }
  }
}

bool MenciusEngine::AckSetComplete(const Slot& s) const {
  // The ack set must form a majority so it intersects any revocation majority (a
  // committed command can then never be revoked into a skip), and must cover every
  // non-suspected replica (Mencius runs at the speed of the slowest live replica).
  if (s.acked.size() * 2 <= n_) {
    return false;
  }
  for (ProcessId p = 0; p < n_; p++) {
    if (!s.acked.Contains(p) && suspected_.count(p) == 0) {
      return false;
    }
  }
  return true;
}

void MenciusEngine::CommitOwnSlot(uint64_t slot, Slot& s) {
  s.state = SlotState::kCommitted;
  stats_.committed++;
  ctx_->Committed(common::Dot{self_, slot}, s.cmd, /*fast_path=*/false);
  msg::MnCommit commit;
  commit.slot = slot;
  commit.cmd = s.cmd;
  SendToOthers(commit);
  TryExecute();  // may erase the slot; `s` must not be touched afterwards
}

void MenciusEngine::MaybeCommitOwn() {
  std::vector<uint64_t> ready;
  for (auto& [slot, s] : log_) {
    if (OwnerOf(slot) == self_ && s.state == SlotState::kProposed &&
        AckSetComplete(s)) {
      ready.push_back(slot);
    }
  }
  for (uint64_t slot : ready) {
    auto it = log_.find(slot);
    if (it != log_.end() && it->second.state == SlotState::kProposed) {
      CommitOwnSlot(slot, it->second);
    }
  }
}

void MenciusEngine::HandleAck(ProcessId from, const msg::MnAck& m) {
  max_seen_slot_ = std::max(max_seen_slot_, m.own_next);
  auto it = log_.find(m.slot);
  if (it == log_.end() || OwnerOf(m.slot) != self_) {
    return;
  }
  Slot& s = it->second;
  if (s.state != SlotState::kProposed || s.acked.Contains(from)) {
    return;
  }
  s.acked.Add(from);
  if (AckSetComplete(s)) {
    CommitOwnSlot(m.slot, s);
  }
}

void MenciusEngine::HandleCommit(ProcessId from, const msg::MnCommit& m) {
  max_seen_slot_ = std::max(max_seen_slot_, m.slot);
  if (m.slot < execute_upto_) {
    return;  // duplicate delivery of an already-executed slot
  }
  Slot& s = log_[m.slot];
  if (s.state == SlotState::kCommitted || s.state == SlotState::kSkipped) {
    return;
  }
  s.state = SlotState::kCommitted;
  s.cmd = m.cmd;
  stats_.committed++;
  ctx_->Committed(common::Dot{OwnerOf(m.slot), m.slot}, s.cmd, /*fast_path=*/false);
  TryExecute();
}

void MenciusEngine::HandleSkipRange(ProcessId from, const msg::MnSkipRange& m) {
  max_seen_slot_ = std::max(max_seen_slot_, m.to);
  MarkSkipped(m.owner, m.from, m.to);
  TryExecute();
}

void MenciusEngine::HandleRevoke(ProcessId from, const msg::MnRevoke& m) {
  if (AnswerIfDecided(from, m.slot)) {
    return;
  }
  if (m.slot < execute_upto_) {
    return;  // executed but outcome unknown (post-restart amnesia): abstain
  }
  Slot& s = log_[m.slot];
  if (m.ballot <= s.promised) {
    return;
  }
  s.promised = m.ballot;
  msg::MnRevokePromise p;
  p.slot = m.slot;
  p.ballot = m.ballot;
  p.vbal = s.vbal;
  p.vkind = s.vkind;
  if (s.vkind == 1) {
    p.cmd = s.cmd;
  }
  SendTo(from, p);
}

void MenciusEngine::HandleRevokePromise(ProcessId from,
                                        const msg::MnRevokePromise& m) {
  auto it = log_.find(m.slot);
  if (it == log_.end()) {
    return;
  }
  Slot& s = it->second;
  if (s.rev_phase != 1 || m.ballot != s.rev_ballot ||
      s.rev_promised.Contains(from)) {
    return;
  }
  s.rev_promised.Add(from);
  if (m.vkind != 0 && (s.rev_choice == 0 || m.vbal > s.rev_best_vbal)) {
    s.rev_best_vbal = m.vbal;
    s.rev_choice = m.vkind;
    s.rev_cmd = m.cmd;
  }
  if (s.rev_promised.size() * 2 > n_) {
    s.rev_phase = 2;
    if (s.rev_choice == 0) {
      s.rev_choice = 2;  // no majority member accepted anything: decide skip
    }
    msg::MnRevokeAccept a;
    a.slot = m.slot;
    a.ballot = s.rev_ballot;
    a.choice = s.rev_choice;
    if (s.rev_choice == 1) {
      a.cmd = s.rev_cmd;
    }
    SendAll(a);
  }
}

void MenciusEngine::HandleRevokeAccept(ProcessId from,
                                       const msg::MnRevokeAccept& m) {
  if (AnswerIfDecided(from, m.slot)) {
    return;
  }
  if (m.slot < execute_upto_) {
    return;
  }
  Slot& s = log_[m.slot];
  if (m.ballot < s.promised) {
    return;
  }
  s.promised = m.ballot;
  s.vbal = m.ballot;
  s.vkind = m.choice;
  if (m.choice == 1) {
    s.cmd = m.cmd;
    if (s.state == SlotState::kEmpty) {
      s.state = SlotState::kProposed;
    }
  }
  msg::MnRevokeAccepted a;
  a.slot = m.slot;
  a.ballot = m.ballot;
  SendTo(from, a);
}

void MenciusEngine::HandleRevokeAccepted(ProcessId from,
                                         const msg::MnRevokeAccepted& m) {
  auto it = log_.find(m.slot);
  if (it == log_.end()) {
    return;
  }
  Slot& s = it->second;
  if (s.rev_phase != 2 || m.ballot != s.rev_ballot ||
      s.rev_accepted.Contains(from)) {
    return;
  }
  s.rev_accepted.Add(from);
  if (s.rev_accepted.size() * 2 > n_) {
    // Decided. Copy out before broadcasting: the inline self-delivery executes and
    // erases the slot entry.
    uint8_t choice = s.rev_choice;
    smr::Command cmd = s.rev_cmd;
    s.rev_phase = 0;
    if (choice == 1) {
      msg::MnCommit c;
      c.slot = m.slot;
      c.cmd = std::move(cmd);
      SendAll(c);
    } else {
      msg::MnRevokeSkip sk;
      sk.slot = m.slot;
      SendAll(sk);
    }
  }
}

void MenciusEngine::HandleRevokeSkip(ProcessId from, const msg::MnRevokeSkip& m) {
  if (m.slot < execute_upto_) {
    return;
  }
  Slot& s = log_[m.slot];
  if (s.state == SlotState::kCommitted) {
    return;
  }
  if (s.state == SlotState::kProposed && OwnerOf(m.slot) == self_) {
    // Our own in-flight proposal was revoked into a skip: the payload is lost under
    // this slot; tell the client to resubmit.
    ctx_->Dropped(common::Dot{self_, m.slot}, s.cmd);
  }
  s.state = SlotState::kSkipped;
  TryExecute();
}

void MenciusEngine::TryExecute() {
  while (true) {
    auto it = log_.find(execute_upto_);
    if (it == log_.end()) {
      break;
    }
    Slot& s = it->second;
    if (s.state == SlotState::kCommitted) {
      stats_.executed++;
      const common::Dot dot{OwnerOf(execute_upto_), execute_upto_};
      ctx_->Executed(dot, s.cmd);
      history_.Record(dot, s.cmd, common::DepSet{}, 1);
    } else if (s.state == SlotState::kSkipped) {
      history_.Record(common::Dot{OwnerOf(execute_upto_), execute_upto_},
                      smr::MakeNoOp(), common::DepSet{}, 2);
    } else {
      break;
    }
    log_.erase(it);
    execute_upto_++;
  }
  if (!suspected_.empty() || restarted_) {
    MaybeRecoverBlocked();
  }
  ArmFrontierWatch();
}

void MenciusEngine::ArmFrontierWatch() {
  if (config_.commit_timeout <= 0 || execute_upto_ >= max_seen_slot_) {
    return;  // nothing decided (or even seen) beyond the frontier
  }
  auto it = log_.find(execute_upto_);
  if (it != log_.end() && (it->second.state == SlotState::kCommitted ||
                           it->second.state == SlotState::kSkipped)) {
    return;  // decided; TryExecute will advance
  }
  if (frontier_watch_slot_ == execute_upto_) {
    return;  // already watched
  }
  frontier_watch_slot_ = execute_upto_;
  ctx_->SetTimer(config_.commit_timeout,
                 (execute_upto_ << 2) | kFrontierWatchType);
}

void MenciusEngine::ArmRetryTimer() {
  if (retry_timer_armed_ || config_.revoke_retry_interval == 0) {
    return;
  }
  retry_timer_armed_ = true;
  ctx_->SetTimer(config_.revoke_retry_interval, kRetryToken);
}

void MenciusEngine::StartRevoke(uint64_t slot) {
  Slot& s = log_[slot];
  if (s.state == SlotState::kCommitted || s.state == SlotState::kSkipped) {
    return;
  }
  s.rev_ballot = common::NextRecoveryBallot(
      self_, std::max(s.promised, s.rev_ballot), n_);
  s.rev_phase = 1;
  s.rev_promised = common::Quorum();
  s.rev_accepted = common::Quorum();
  s.rev_best_vbal = 0;
  s.rev_choice = 0;
  s.rev_cmd = smr::Command();
  stats_.recoveries_started++;
  msg::MnRevoke m;
  m.slot = slot;
  m.ballot = s.rev_ballot;
  SendAll(m);
}

void MenciusEngine::MaybeRecoverBlocked() {
  common::Time now = ctx_->Now();
  // Catch-up burst: a restarted replica far behind the cluster revokes a window of
  // stale slots at once; peers short-circuit decided slots from retained history.
  if (restarted_ && execute_upto_ + n_ < max_seen_slot_) {
    uint64_t end = std::min(execute_upto_ + 32, max_seen_slot_);
    for (uint64_t slot = execute_upto_; slot < end; slot++) {
      Slot& s = log_[slot];
      if (s.state == SlotState::kCommitted || s.state == SlotState::kSkipped) {
        continue;
      }
      if (now >= s.next_revoke_at) {
        s.next_revoke_at = now + config_.revoke_retry_interval;
        StartRevoke(slot);
      }
    }
    ArmRetryTimer();
    return;
  }
  uint64_t slot = execute_upto_;
  auto it = log_.find(slot);
  // Idle frontier: nothing known about this slot and no traffic decided beyond it.
  // There is nothing to recover — revoking here would skip empty future slots
  // forever (a restarted replica stays restarted_, so the retry timer would never
  // quiesce and the run could not drain).
  if ((it == log_.end() ||
       (it->second.state == SlotState::kEmpty && it->second.rev_phase == 0)) &&
      execute_upto_ >= max_seen_slot_) {
    return;
  }
  Slot& s = log_[slot];
  if (s.state == SlotState::kCommitted || s.state == SlotState::kSkipped) {
    return;  // decided; TryExecute will advance
  }
  bool eligible = restarted_ || suspected_.count(OwnerOf(slot)) > 0 ||
                  s.rev_phase != 0;
  if (!eligible) {
    return;
  }
  if (s.next_revoke_at == 0) {
    // Grace period: the slot may simply be in flight; revoke only if it is still
    // undecided when the retry timer fires.
    s.next_revoke_at = now + config_.revoke_retry_interval;
    ArmRetryTimer();
    return;
  }
  if (now < s.next_revoke_at) {
    ArmRetryTimer();
    return;
  }
  s.next_revoke_at = now + config_.revoke_retry_interval;
  StartRevoke(slot);
  ArmRetryTimer();
}

void MenciusEngine::OnTimer(uint64_t token) {
  if (token == kRetryToken) {
    retry_timer_armed_ = false;
    if (!suspected_.empty() || restarted_) {
      MaybeRecoverBlocked();
      return;
    }
    // A revocation may still be in flight on the frontier (own-slot commit timeout).
    auto it = log_.find(execute_upto_);
    if (it != log_.end() && it->second.rev_phase != 0) {
      MaybeRecoverBlocked();
    }
    return;
  }
  if ((token & 3) == kCommitTimeoutType) {
    uint64_t slot = token >> 2;
    auto it = log_.find(slot);
    if (it != log_.end() && it->second.state == SlotState::kProposed &&
        OwnerOf(slot) == self_) {
      // Commit timeout: learn (or force) the outcome of our own slot via
      // revocation — if any majority member acked, the command is re-proposed;
      // otherwise it is skipped and the client told to resubmit.
      StartRevoke(slot);
      ctx_->SetTimer(config_.commit_timeout, token);  // per-slot retry
    }
    return;
  }
  if ((token & 3) == kFrontierWatchType) {
    uint64_t slot = token >> 2;
    if (frontier_watch_slot_ == slot) {
      frontier_watch_slot_ = ~uint64_t{0};
    }
    if (execute_upto_ != slot) {
      return;  // frontier advanced; a new watch was armed if still blocked
    }
    auto it = log_.find(slot);
    if (it != log_.end() && (it->second.state == SlotState::kCommitted ||
                             it->second.state == SlotState::kSkipped)) {
      return;
    }
    // Frontier stuck a full commit timeout with traffic decided beyond it: the
    // slot's outcome was lost on the wire. Revoke it — if anyone accepted the
    // owner's proposal, revocation re-commits it; otherwise the slot is skipped.
    StartRevoke(slot);
    frontier_watch_slot_ = slot;
    ctx_->SetTimer(config_.commit_timeout, token);
    return;
  }
}

void MenciusEngine::OnSuspect(ProcessId p) {
  if (p == self_) {
    return;
  }
  if (!suspected_.insert(p).second) {
    return;
  }
  MaybeCommitOwn();
  MaybeRecoverBlocked();
}

void MenciusEngine::OnRestore(ProcessId p, uint64_t seq_floor) {
  (void)seq_floor;
  suspected_.erase(p);
  // Re-offer pending proposals the restarted process never acked: its fresh
  // incarnation lost any in-flight MnPropose, and commit needs its ack.
  for (auto& [slot, s] : log_) {
    if (OwnerOf(slot) == self_ && s.state == SlotState::kProposed &&
        !s.acked.Contains(p)) {
      msg::MnPropose prop;
      prop.slot = slot;
      prop.cmd = s.cmd;
      prop.own_next = next_own_slot_;
      SendTo(p, prop);
    }
  }
}

void MenciusEngine::OnMessage(ProcessId from, const msg::Message& m) {
  if (auto* v = msg::get_if<msg::MnPropose>(&m)) {
    HandlePropose(from, *v);
  } else if (auto* v = msg::get_if<msg::MnAck>(&m)) {
    HandleAck(from, *v);
  } else if (auto* v = msg::get_if<msg::MnCommit>(&m)) {
    HandleCommit(from, *v);
  } else if (auto* v = msg::get_if<msg::MnSkipRange>(&m)) {
    HandleSkipRange(from, *v);
  } else if (auto* v = msg::get_if<msg::MnRevoke>(&m)) {
    HandleRevoke(from, *v);
  } else if (auto* v = msg::get_if<msg::MnRevokePromise>(&m)) {
    HandleRevokePromise(from, *v);
  } else if (auto* v = msg::get_if<msg::MnRevokeAccept>(&m)) {
    HandleRevokeAccept(from, *v);
  } else if (auto* v = msg::get_if<msg::MnRevokeAccepted>(&m)) {
    HandleRevokeAccepted(from, *v);
  } else if (auto* v = msg::get_if<msg::MnRevokeSkip>(&m)) {
    HandleRevokeSkip(from, *v);
  }
}

}  // namespace mencius
