// When to recover a command, shared by the dependency-based engines (Atlas, EPaxos).
//
// Atlas (Algorithm 2) and EPaxos (explicit prepare) differ in *how* they recover a
// dot, but not in *when*. RecoveryScheduler owns that policy:
//   - suspicion: every pending dot owned by a suspected process is recovered;
//   - restart orphans: dots below a restarted peer's sequence floor belong to its
//     dead incarnation and stay recoverable after suspicion clears;
//   - restart grace: a restarted engine recovers every pending dot that is not one
//     of its own new commands, after a grace period (it may simply be in flight);
//   - commit timeout: a submitter recovers its own command if it has not committed;
//   - commit watch: a replica that saw a dot (collect, dependency, bare commit)
//     recovers it if its commit has not arrived;
//   - gap watch: committing q:s watches every unknown identifier of q below s.
// Recoveries of eligible dots are paced by one scan timer, and each dot waits
// recovery_retry_interval between attempts. The engine keeps one RecoveryMark per
// dot and supplies, at compile time (no virtual call), which Infos count as decided
// and the recover action itself.
#ifndef SRC_SMR_RECOVERY_SCHEDULER_H_
#define SRC_SMR_RECOVERY_SCHEDULER_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/dep_set.h"
#include "src/common/dot_map.h"
#include "src/common/quorum.h"
#include "src/common/types.h"
#include "src/smr/engine.h"

namespace smr {

// The recovery knobs of a dependency-based engine's configuration.
struct RecoverySettings {
  // Peers of this process ordered by increasing network distance (self excluded).
  // Quorums are chosen greedily from this list; when empty, id order is used.
  std::vector<common::ProcessId> by_proximity;
  // When > 0, a submitter that cannot commit its own command within this delay
  // recovers it, and every replica watches the commits it waits on (lost messages,
  // partitioned coordinators). 0 disables both, so failure-free runs set no timer.
  common::Duration commit_timeout = 0;
  // How often eligible dots are re-scanned, and the per-dot gap between attempts.
  common::Duration recovery_scan_interval = 500 * common::kMillisecond;
  common::Duration recovery_retry_interval = 1 * common::kSecond;
};

// Per-dot scheduling state, one field of each engine's per-command Info.
struct RecoveryMark {
  // No new recovery attempt before this time (0: never attempted, no grace yet).
  common::Time next_recovery_at = 0;
  // Owned by a dead incarnation of a since-restarted process: stays eligible for
  // the scan even though its owner is no longer suspected.
  bool orphaned = false;
  // A commit watch timer is pending for this dot.
  bool watched = false;
};

// The engine-specific hooks the templates below take:
//   Info       per-dot state with a `RecoveryMark mark` member, in a DotMap;
//   decided    bool(const Info&): the Info's phase is committed or later;
//   committed  bool(const Dot&): the dot has committed here (Info may be gone);
//   recover    bool(const Dot&): start a recovery round for the dot; false when
//              there was nothing to recover, which leaves a firing timer unarmed.
class RecoveryScheduler {
 public:
  explicit RecoveryScheduler(RecoverySettings settings)
      : settings_(std::move(settings)) {}

  // Binds the scheduler to its engine's identity and driver (Engine::OnStart).
  // Fills the id-order proximity default.
  void Start(Context* ctx, common::ProcessId self, uint32_t n);

  // Self plus the closest non-suspected peers, up to `size`; suspected peers fill
  // in when fewer responsive ones remain (the protocol then blocks, the documented
  // behaviour when more than f sites are unreachable).
  common::Quorum PickQuorum(size_t size) const;

  // Arms the commit timeout for a command this process just submitted.
  void ArmCommitTimeout(const common::Dot& own);
  // Arms a commit watch for a dot this process knows about but did not coordinate,
  // once per dot.
  void Watch(const common::Dot& dot, RecoveryMark& mark);
  // The dot waits recovery_retry_interval before its next recovery attempt (set on
  // each attempt, and as the restart grace period).
  void Defer(RecoveryMark& mark) const {
    mark.next_recovery_at = ctx_->Now() + settings_.recovery_retry_interval;
  }
  // The engine restarted; its own dots from `own_floor` on are new commands.
  void Restarted(uint64_t own_floor);

  // Engine::OnSuspect: recovers p's pending dots and keeps the scan armed while
  // any remain.
  template <typename Info, typename Decided, typename Recover>
  void OnSuspect(common::ProcessId p, common::DotMap<Info>& infos, Decided decided,
                 Recover recover);
  // Engine::OnRestore: clears p's suspicion; p's known dots below its floor
  // become orphans the scan keeps recovering.
  template <typename Info, typename Decided>
  void OnRestore(common::ProcessId p, uint64_t seq_floor, common::DotMap<Info>& infos,
                 Decided decided);
  // Engine::OnTimer: runs the scan, or recovers the dot a commit timeout or watch
  // names, re-arming that timer while recover() reports work.
  template <typename Info, typename Decided, typename Recover>
  void OnTimer(uint64_t token, common::DotMap<Info>& infos, Decided decided,
               Recover recover);
  // The commit path's step: tracks `dot`'s uncommitted dependencies (watch, and
  // scan them if their owner is suspected, orphaned, or this engine restarted) and
  // watches the identifier gap below `dot`. Allocates nothing.
  template <typename Info, typename Committed>
  void OnCommit(const common::Dot& dot, const common::DepSet& deps,
                common::DotMap<Info>& infos, Committed committed);

 private:
  static constexpr uint64_t kScanToken = 1;
  static constexpr uint64_t kCommitTimeoutToken = 2;  // low bits of per-dot timers
  // Watch timers pack the full dot: ((proc << 44) | seq) << 2 | kWatchToken.
  static constexpr uint64_t kWatchToken = 3;

  void ArmScanTimer();
  // The dot a commit-timeout or watch token names; false for any other token.
  bool TimerDot(uint64_t token, common::Dot* dot) const;
  // Recovers every eligible dot that is due, in dot order. Returns true while
  // eligible dots remain (the scan timer then stays armed).
  template <typename Info, typename Decided, typename Recover>
  bool Scan(common::DotMap<Info>& infos, Decided decided, Recover recover);

  RecoverySettings settings_;
  Context* ctx_ = nullptr;
  common::ProcessId self_ = common::kInvalidProcess;
  common::Quorum suspected_;
  bool scan_timer_armed_ = false;
  // Restart bookkeeping: a restarted engine re-learns decided commands through the
  // recovery path; every pending dot except its own from restart_floor_ on is
  // scan-eligible. peer_floors_[p] is restarted peer p's highest sequence floor.
  bool restarted_ = false;
  uint64_t restart_floor_ = 0;
  bool any_orphaned_ = false;
  std::vector<uint64_t> peer_floors_;
  // Highest committed identifier seen per process; commits above the horizon
  // watch every unknown identifier in the gap.
  std::vector<uint64_t> commit_horizon_;
};

template <typename Info, typename Decided, typename Recover>
void RecoveryScheduler::OnSuspect(common::ProcessId p, common::DotMap<Info>& infos,
                                  Decided decided, Recover recover) {
  if (p == self_ || suspected_.Contains(p)) {
    return;
  }
  suspected_.Add(p);
  if (Scan(infos, decided, recover)) {
    ArmScanTimer();
  }
}

template <typename Info, typename Decided>
void RecoveryScheduler::OnRestore(common::ProcessId p, uint64_t seq_floor,
                                  common::DotMap<Info>& infos, Decided decided) {
  if (p == self_) {
    return;
  }
  suspected_.Remove(p);
  uint64_t& floor = peer_floors_[p];
  floor = std::max(floor, seq_floor);
  // Dots below the floor belong to the dead incarnation: it will never finish them,
  // and p is no longer suspected, so mark them to keep the scan interested.
  std::vector<common::Dot> stale;
  infos.ForEach([&](const common::Dot& dot, const Info& info) {
    if (dot.proc == p && dot.seq < floor && !info.mark.orphaned && !decided(info)) {
      stale.push_back(dot);
    }
  });
  for (const common::Dot& dot : stale) {
    infos[dot].mark.orphaned = true;
    any_orphaned_ = true;
  }
  if (!stale.empty()) {
    ArmScanTimer();
  }
}

template <typename Info, typename Decided, typename Recover>
void RecoveryScheduler::OnTimer(uint64_t token, common::DotMap<Info>& infos,
                                Decided decided, Recover recover) {
  if (token == kScanToken) {
    scan_timer_armed_ = false;
    if (Scan(infos, decided, recover)) {
      ArmScanTimer();
    }
    return;
  }
  // A commit timeout or watch fired: the commit outcome never reached us in time,
  // so recover the dot (safe against a live coordinator: recovery runs at a higher
  // ballot and its quorum intersects every quorum that could have decided).
  common::Dot dot;
  if (TimerDot(token, &dot) && recover(dot)) {
    ctx_->SetTimer(settings_.commit_timeout, token);
  }
}

template <typename Info, typename Committed>
void RecoveryScheduler::OnCommit(const common::Dot& dot, const common::DepSet& deps,
                                 common::DotMap<Info>& infos, Committed committed) {
  // Every dependency must eventually commit for `dot` to execute; track unknown ones
  // so the scan can find them if their coordinator fails. Inserting may rehash
  // `infos`, so the caller holds no Info reference across this call.
  for (const common::Dot& dep : deps) {
    if (committed(dep)) {
      continue;
    }
    RecoveryMark& mark = infos[dep].mark;
    // A committed command is blocked on this dependency; if its commit never
    // arrives (lost on the wire), the watch recovers it without requiring the
    // coordinator to be suspected.
    Watch(dep, mark);
    bool needs_scan = suspected_.Contains(dep.proc);
    if (dep.seq < peer_floors_[dep.proc]) {
      // Dependency owned by a dead incarnation: nobody will finish it for us.
      mark.orphaned = true;
      any_orphaned_ = true;
      needs_scan = true;
    }
    if (restarted_) {
      if (mark.next_recovery_at == 0) {
        // Grace before this engine recovers it: the dep may simply be in flight.
        Defer(mark);
      }
      needs_scan = true;
    }
    if (needs_scan) {
      ArmScanTimer();
    }
  }
  // Identifier-space gap watch: per-process identifiers are dense, so committing q:s
  // while earlier identifiers of q are unknown here means their commits were lost
  // (e.g. dropped across a partition). Watch them all *now* — compressed dependency
  // sets only reveal the newest missing identifier, so waiting for dep chains would
  // recover one identifier per commit_timeout and wedge the executor for
  // gap × timeout (tens of seconds after a few seconds of partition).
  if (settings_.commit_timeout > 0 && dot.proc != self_) {
    uint64_t& horizon = commit_horizon_[dot.proc];
    for (uint64_t s = dot.seq; s > horizon + 1;) {
      common::Dot missing{dot.proc, --s};
      if (!committed(missing)) {
        Watch(missing, infos[missing].mark);
      }
    }
    horizon = std::max(horizon, dot.seq);
  }
}

template <typename Info, typename Decided, typename Recover>
bool RecoveryScheduler::Scan(common::DotMap<Info>& infos, Decided decided,
                             Recover recover) {
  if (suspected_.empty() && !restarted_ && !any_orphaned_) {
    return false;
  }
  // Recover every known uncommitted command coordinated by a suspected process (or
  // orphaned by a restart; or, on a restarted engine, any pending identifier that is
  // not one of our own new commands). New ballots are only started if the previous
  // attempt has had time to finish.
  std::vector<common::Dot> to_recover;
  std::vector<common::Dot> grace;
  bool any_pending = false;
  const common::Time now = ctx_->Now();
  infos.ForEach([&](const common::Dot& dot, const Info& info) {
    if (decided(info)) {
      return;
    }
    const bool direct = suspected_.Contains(dot.proc) || info.mark.orphaned;
    if (!direct && !(restarted_ && !(dot.proc == self_ && dot.seq >= restart_floor_))) {
      return;
    }
    any_pending = true;
    if (!direct && info.mark.next_recovery_at == 0) {
      // Restart-driven eligibility gets a grace period: the command may simply be
      // in flight at its live coordinator.
      grace.push_back(dot);
      return;
    }
    if (info.mark.next_recovery_at > now) {
      return;
    }
    to_recover.push_back(dot);
  });
  for (const common::Dot& dot : grace) {
    infos[dot].mark.next_recovery_at = now + settings_.recovery_retry_interval;
  }
  // Flat-map iteration order depends on the table layout; recover in canonical dot
  // order so seeded crash runs stay reproducible across map implementations.
  std::sort(to_recover.begin(), to_recover.end());
  for (const common::Dot& dot : to_recover) {
    recover(dot);
  }
  return any_pending;
}

}  // namespace smr

#endif  // SRC_SMR_RECOVERY_SCHEDULER_H_
