#include "src/smr/recovery_scheduler.h"

#include "src/common/check.h"

namespace smr {

using common::Dot;
using common::ProcessId;
using common::Quorum;

void RecoveryScheduler::Start(Context* ctx, ProcessId self, uint32_t n) {
  ctx_ = ctx;
  self_ = self;
  if (settings_.by_proximity.empty()) {
    for (ProcessId p = 0; p < n; p++) {
      if (p != self) {
        settings_.by_proximity.push_back(p);
      }
    }
  }
  CHECK_EQ(settings_.by_proximity.size(), static_cast<size_t>(n) - 1);
  peer_floors_.assign(n, 0);
  commit_horizon_.assign(n, 0);
}

Quorum RecoveryScheduler::PickQuorum(size_t size) const {
  Quorum q;
  q.Add(self_);
  for (ProcessId p : settings_.by_proximity) {
    if (q.size() >= size) {
      return q;
    }
    if (!suspected_.Contains(p)) {
      q.Add(p);
    }
  }
  for (ProcessId p : settings_.by_proximity) {
    if (q.size() >= size) {
      break;
    }
    q.Add(p);
  }
  return q;
}

void RecoveryScheduler::ArmCommitTimeout(const Dot& own) {
  if (settings_.commit_timeout > 0) {
    ctx_->SetTimer(settings_.commit_timeout, (own.seq << 2) | kCommitTimeoutToken);
  }
}

void RecoveryScheduler::Watch(const Dot& dot, RecoveryMark& mark) {
  if (settings_.commit_timeout <= 0 || mark.watched) {
    return;
  }
  CHECK_LT(dot.seq, uint64_t{1} << 44);
  mark.watched = true;
  ctx_->SetTimer(settings_.commit_timeout,
                 (((static_cast<uint64_t>(dot.proc) << 44) | dot.seq) << 2) |
                     kWatchToken);
}

void RecoveryScheduler::Restarted(uint64_t own_floor) {
  restart_floor_ = own_floor;
  restarted_ = true;
  // Old commands resurface as dependencies of new commits; the scan recovers them.
  ArmScanTimer();
}

void RecoveryScheduler::ArmScanTimer() {
  if (!scan_timer_armed_) {
    scan_timer_armed_ = true;
    ctx_->SetTimer(settings_.recovery_scan_interval, kScanToken);
  }
}

bool RecoveryScheduler::TimerDot(uint64_t token, Dot* dot) const {
  switch (token & 3) {
    case kCommitTimeoutToken:
      *dot = Dot{self_, token >> 2};
      return true;
    case kWatchToken: {
      const uint64_t packed = token >> 2;
      *dot = Dot{static_cast<ProcessId>(packed >> 44),
                 packed & ((uint64_t{1} << 44) - 1)};
      return true;
    }
    default:
      return false;
  }
}

}  // namespace smr
