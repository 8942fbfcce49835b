// Sans-I/O protocol engine interface.
//
// A protocol engine is a pure state machine: inputs are Submit / OnMessage / OnTimer /
// OnSuspect calls; outputs (sends, timers, commit and execute notifications) flow
// through the Context interface provided by a driver. The same engine code runs on the
// discrete-event simulator (src/sim, all benchmarks and deterministic tests) and on the
// epoll/TCP runtime (src/rt). This mirrors the paper's methodology of sharing one
// codebase across protocols that differ only in the commit component.
#ifndef SRC_SMR_ENGINE_H_
#define SRC_SMR_ENGINE_H_

#include <cstdint>
#include <string>

#include "src/common/quorum.h"
#include "src/common/types.h"
#include "src/msg/message.h"
#include "src/smr/command.h"

namespace smr {

// Cumulative per-engine counters exposed to harnesses and benches.
struct EngineStats {
  uint64_t submitted = 0;
  uint64_t committed = 0;
  uint64_t executed = 0;
  uint64_t fast_paths = 0;      // commands this engine coordinated that took the fast path
  uint64_t slow_paths = 0;      // ... the slow path
  uint64_t recoveries_started = 0;
  uint64_t noops_committed = 0;
  uint64_t messages_sent = 0;

  // Single aggregation point (sharded engines, harness snapshots): a new counter
  // added above only needs to be summed here.
  EngineStats& operator+=(const EngineStats& o) {
    submitted += o.submitted;
    committed += o.committed;
    executed += o.executed;
    fast_paths += o.fast_paths;
    slow_paths += o.slow_paths;
    recoveries_started += o.recoveries_started;
    noops_committed += o.noops_committed;
    messages_sent += o.messages_sent;
    return *this;
  }
};

class Context {
 public:
  virtual ~Context() = default;

  // Queues m for delivery to `to`. Self-sends are legal but engines normally
  // short-circuit them (the paper assumes immediate self-delivery).
  virtual void Send(common::ProcessId to, msg::Message m) = 0;

  virtual common::Time Now() const = 0;

  // Requests an OnTimer(token) callback after `delay`. Timers cannot be cancelled;
  // engines must tolerate stale tokens.
  virtual void SetTimer(common::Duration delay, uint64_t token) = 0;

  // A command became committed at this process (its final dependencies/slot are known).
  virtual void Committed(const common::Dot& dot, const Command& cmd, bool fast_path) {}

  // A command must be applied to the local service replica, in the exact call order.
  virtual void Executed(const common::Dot& dot, const Command& cmd) = 0;

  // A locally submitted command was replaced by noOp during recovery (its payload was
  // never seen by any surviving process); it will not execute under this identifier.
  // The client may safely resubmit.
  virtual void Dropped(const common::Dot& dot, const Command& original) {}
};

// The minimal stable storage a crash-stop replica carries across a restart: floors
// below which the new incarnation must not reuse identifiers. In the paper's model
// every process persists at least its sequence counter; snapshots/log persistence are
// out of scope, so a restarted replica re-learns committed state via the protocols'
// recovery paths instead of local replay.
struct RestartHint {
  uint64_t seq_floor = 0;   // first locally-owned sequence number / slot safe to use
  uint64_t exec_floor = 0;  // execution frontier at crash time (protocol-specific)
};

class Engine {
 public:
  virtual ~Engine() = default;

  // Binds the engine to its identity and driver. Must be called exactly once,
  // before any other call.
  void Bind(common::ProcessId self, uint32_t n, Context* ctx) {
    self_ = self;
    n_ = n;
    ctx_ = ctx;
  }

  // Invoked once after Bind, when the cluster is ready (leaders start heartbeats etc.).
  virtual void OnStart() {}

  // Client command submission at this replica (the paper's submit(c)).
  virtual void Submit(Command cmd) = 0;

  virtual void OnMessage(common::ProcessId from, const msg::Message& m) = 0;

  virtual void OnTimer(uint64_t token) {}

  // Failure-detector hint: process p is suspected to have crashed.
  virtual void OnSuspect(common::ProcessId p) {}

  // Failure-detector hint: a previously suspected process restarted (with the given
  // sequence floor) and is reachable again. Engines clear suspicion state and take
  // over recovery of the old incarnation's abandoned identifiers below the floor.
  virtual void OnRestore(common::ProcessId p, uint64_t seq_floor) {}

  // Reads the dying engine's stable-storage floors (called on the old engine right
  // before teardown) / seeds them into a freshly built replacement (called after
  // Bind + OnStart, so protocol OnStart initialization cannot clobber the floors).
  virtual RestartHint restart_hint() const { return {}; }
  virtual void ApplyRestartHint(const RestartHint& hint) {}

  // Returned by value: composite engines (smr::ShardedEngine) aggregate over their
  // inner engines on each call, so a reference would alias the recomputation buffer
  // and make successive snapshots compare equal. Not a hot path (harness snapshots).
  virtual EngineStats stats() const { return stats_; }
  common::ProcessId self() const { return self_; }
  uint32_t n() const { return n_; }

 protected:
  // Self-addressed messages are processed inline (immediately), per §3.2.
  void SendTo(common::ProcessId to, const msg::Message& m) {
    if (to == self_) {
      OnMessage(self_, m);
    } else {
      stats_.messages_sent++;
      ctx_->Send(to, m);
    }
  }

  // Sends to every member of the cluster; remote processes first, self last, so that
  // nested self-handling observes a fully issued broadcast.
  void SendAll(const msg::Message& m) {
    SendToOthers(m);
    SendTo(self_, m);
  }

  // Sends to every member of q in the same order: remote members first, self last.
  void SendToQuorum(const common::Quorum& q, const msg::Message& m) {
    for (common::ProcessId p : q) {
      if (p != self_) {
        SendTo(p, m);
      }
    }
    if (q.Contains(self_)) {
      SendTo(self_, m);
    }
  }

  // Sends to every process but self, in id order.
  void SendToOthers(const msg::Message& m) {
    for (common::ProcessId p = 0; p < n_; p++) {
      if (p != self_) {
        SendTo(p, m);
      }
    }
  }

  common::ProcessId self_ = common::kInvalidProcess;
  uint32_t n_ = 0;
  Context* ctx_ = nullptr;
  EngineStats stats_;
};

}  // namespace smr

#endif  // SRC_SMR_ENGINE_H_
