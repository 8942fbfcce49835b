// Mencius baseline [Mao et al., OSDI'08]: rotating slot ownership.
//
// The log is partitioned round-robin: process i owns slots {i, i+n, i+2n, ...}. A
// command submitted at i is proposed in i's next owned slot and broadcast to everyone;
// it commits once every non-suspected replica acknowledges (so the protocol runs at
// the speed of the slowest replica — the behaviour Figures 5 and 6 show), with the
// additional requirement that the ack set forms a majority. When a replica observes a
// proposal for a slot beyond its own frontier it "skips" its owned slots below that
// point, broadcasting an MnSkipRange so every replica can fill the gaps and keep
// in-order execution progressing.
//
// Failure handling (revocation): the owner's MnPropose doubles as a Paxos accept at
// ballot 0. When a slot's owner is suspected (or a restarted replica needs to re-learn
// decided slots), any replica can revoke the slot by running classic single-decree
// Paxos at a higher ballot: Prepare/Promise surface any ballot-0 accept — if some
// majority member saw the owner's command it is re-proposed, otherwise the slot is
// decided as a skip. The majority-ack commit rule intersects every revocation
// majority, so a committed command can never be revoked into a skip and vice versa.
// Without stable storage this is sound under the usual crash-recovery assumption that
// at most f replicas are down (or amnesiac) at any instant.
#ifndef SRC_MENCIUS_MENCIUS_H_
#define SRC_MENCIUS_MENCIUS_H_

#include <map>
#include <set>

#include "src/common/quorum.h"
#include "src/common/types.h"
#include "src/msg/message.h"
#include "src/smr/decided_log.h"
#include "src/smr/engine.h"

namespace mencius {

struct Config {
  uint32_t n = 3;
  // When > 0, each locally proposed slot arms a timer; if the slot is still
  // undecided when it fires, the proposer revokes its own slot to learn (or force)
  // the outcome. 0 disables (failure-free deployments).
  common::Duration commit_timeout = 0;
  // Pacing between revocation attempts for a blocked execution frontier. Timers are
  // only armed while some process is suspected, after a restart, or while a
  // revocation is in flight — failure-free runs never arm them.
  common::Duration revoke_retry_interval = 100 * common::kMillisecond;
};

class MenciusEngine final : public smr::Engine {
 public:
  explicit MenciusEngine(Config config);

  void OnStart() override;
  void Submit(smr::Command cmd) override;
  void OnMessage(common::ProcessId from, const msg::Message& m) override;
  void OnTimer(uint64_t token) override;
  void OnSuspect(common::ProcessId p) override;
  void OnRestore(common::ProcessId p, uint64_t seq_floor) override;
  smr::RestartHint restart_hint() const override;
  void ApplyRestartHint(const smr::RestartHint& hint) override;

  uint64_t ExecutedUpto() const { return execute_upto_; }

 private:
  enum class SlotState : uint8_t { kEmpty, kProposed, kCommitted, kSkipped };

  struct Slot {
    SlotState state = SlotState::kEmpty;
    smr::Command cmd;
    common::Quorum acked;  // proposer-side

    // Paxos acceptor state (the owner's MnPropose is an implicit accept at ballot 0).
    common::Ballot promised = 0;
    common::Ballot vbal = 0;
    uint8_t vkind = 0;  // 0 = nothing accepted, 1 = cmd, 2 = skip

    // Revoker state (this process running Prepare/Accept for the slot).
    uint8_t rev_phase = 0;  // 0 idle, 1 prepare, 2 accept
    common::Ballot rev_ballot = 0;
    common::Quorum rev_promised;
    common::Quorum rev_accepted;
    common::Ballot rev_best_vbal = 0;
    uint8_t rev_choice = 0;
    smr::Command rev_cmd;
    common::Time next_revoke_at = 0;
  };

  void HandlePropose(common::ProcessId from, const msg::MnPropose& m);
  void HandleAck(common::ProcessId from, const msg::MnAck& m);
  void HandleCommit(common::ProcessId from, const msg::MnCommit& m);
  void HandleSkipRange(common::ProcessId from, const msg::MnSkipRange& m);
  void HandleRevoke(common::ProcessId from, const msg::MnRevoke& m);
  void HandleRevokePromise(common::ProcessId from, const msg::MnRevokePromise& m);
  void HandleRevokeAccept(common::ProcessId from, const msg::MnRevokeAccept& m);
  void HandleRevokeAccepted(common::ProcessId from, const msg::MnRevokeAccepted& m);
  void HandleRevokeSkip(common::ProcessId from, const msg::MnRevokeSkip& m);

  // Skips own slots < bound and announces the range (no-op if none pending).
  void SkipOwnSlotsBelow(uint64_t bound);
  void MarkSkipped(common::ProcessId owner, uint64_t from, uint64_t to);
  void TryExecute();

  // True when the decided outcome of `slot` is already known locally; replies to
  // `from` with MnCommit / MnRevokeSkip accordingly (catch-up short-circuit).
  bool AnswerIfDecided(common::ProcessId from, uint64_t slot);
  // Commits an own proposed slot once its ack set is complete (all non-suspected
  // replicas) and forms a majority.
  bool AckSetComplete(const Slot& s) const;
  void CommitOwnSlot(uint64_t slot, Slot& s);
  void MaybeCommitOwn();
  // If the execution frontier is blocked on a slot whose owner is suspected (or after
  // a restart, or with a revocation already in flight), start / retry revocation.
  void MaybeRecoverBlocked();
  void StartRevoke(uint64_t slot);
  void ArmRetryTimer();
  // Commit-outcome watch: when traffic exists beyond an undecided frontier slot and
  // commit timeouts are configured, arm a timer that revokes the slot if it is still
  // undecided when the timer fires — no suspicion required (lost MnCommit, grey
  // link). No-op with commit_timeout == 0, so failure-free runs are unaffected.
  void ArmFrontierWatch();

  common::ProcessId OwnerOf(uint64_t slot) const {
    return static_cast<common::ProcessId>(slot % n_);
  }

  Config config_;
  std::map<uint64_t, Slot> log_;
  uint64_t next_own_slot_ = 0;  // smallest unused slot owned by this process
  uint64_t execute_upto_ = 0;
  uint64_t max_seen_slot_ = 0;  // highest slot observed in traffic (catch-up bound)
  // What each executed slot resolved to, kept so retransmitted proposals and
  // revocations of old slots can be answered authoritatively (catch-up path). Keyed
  // by Dot{OwnerOf(slot), slot}: a committed slot holds its command with seqno 1, a
  // skip a noOp with seqno 2. Bounded like the Atlas/EPaxos decided logs, in client
  // commands; evicted, never-filled and pre-restart slots read as unknown.
  smr::DecidedLog history_;
  std::set<common::ProcessId> suspected_;
  bool restarted_ = false;
  bool retry_timer_armed_ = false;
  // Slot with a pending frontier-watch timer (~0 = none); see ArmFrontierWatch.
  uint64_t frontier_watch_slot_ = ~uint64_t{0};
};

}  // namespace mencius

#endif  // SRC_MENCIUS_MENCIUS_H_
