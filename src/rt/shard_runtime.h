// Thread-per-shard worker tier of the real runtime.
//
// Multiplexing all P shard engines of a deployment over one epoll thread never
// turned the simulated shard speedup into real parallelism (and P=8 regressed
// from driver contention). ShardRuntime splits a replica into the two tiers
// that parallel SMR designs (Marandi et al.'s P-SMR, Whittaker et al.'s
// compartmentalization) arrive at, and it is rt::Node's only mode — P=1 runs
// one worker:
//
//   * the I/O tier (rt::Node's epoll thread) owns sockets: it decodes frames,
//     routes them by the envelope's shard tag into per-shard inboxes without
//     copying payloads, and batches outbound writes per socket across shards;
//   * one worker thread per shard owns that shard's protocol engine, store
//     slice, submission batching and timer wheel, and applies the shard's
//     executed commands inline, in the engine's emission order. Workers never
//     touch a socket, a lock, or another shard's state.
//
// Edges between the tiers are bounded SPSC mailboxes (src/rt/mailbox.h): one
// inbox per (I/O -> shard) and one outbox per (shard -> I/O), each bounded at
// kMailboxCapacity items. Mailbox storage grows in blocks up to that bound,
// allocating only when an edge reaches a new occupancy high, so a shard's
// set-up and resident memory follow its real queue depth. Cross-shard
// edges are not instantiated — shard engines share no keys and never talk to
// each other (cross-shard commands would add (shard -> shard) mailboxes to
// this same topology). Idle workers park on an
// eventfd doorbell with a timeout derived from their own timer wheel, so an
// idle replica burns no CPU.
//
// The simulator path is untouched: threading is a runtime-only property, and
// the engines driven here are the same sans-I/O objects the simulator drives
// single-threadedly (the determinism pins and P=1 byte-identity do not move).
#ifndef SRC_RT_SHARD_RUNTIME_H_
#define SRC_RT_SHARD_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/msg/message.h"
#include "src/rt/mailbox.h"
#include "src/smr/command.h"
#include "src/smr/deployment.h"

namespace rt {

// One item on an (I/O -> shard) inbox edge. Slots are resident in the mailbox's
// blocks; pushing moves the decoded message/command in, so slot string
// capacity is recycled across messages (no per-message heap allocation once a
// depth has been reached).
struct ShardInput {
  enum class Kind : uint8_t {
    kNone,
    kMessage,
    kSubmit,
    kCatchupReq,    // peer `from` restarted: stream it what it is missing
    kCatchupEntry,  // one (dot, cmd) a peer streamed to us; apply idempotently
  };
  Kind kind = Kind::kNone;
  common::ProcessId from = 0;  // kMessage/kCatchupReq: sending peer
  msg::Message m;              // kMessage
  smr::Command cmd;            // kSubmit/kCatchupEntry
  common::Dot dot;             // kCatchupEntry
  uint64_t seq_floor = 0;      // kCatchupReq: requester's reserved floor
  std::string blob;            // kCatchupReq: requester's encoded DotFrontier
};

// One item on a (shard -> I/O) outbox edge.
struct ShardOutput {
  enum class Kind : uint8_t { kNone, kPeerSend, kReply, kCatchup };
  Kind kind = Kind::kNone;
  common::ProcessId to = 0;  // kPeerSend/kCatchup: destination peer
  msg::Message m;            // kPeerSend
  uint64_t client = 0;       // kReply: completed client command
  uint64_t seq = 0;
  std::string value;         // kReply: result; kCatchup: encoded entries frame
  bool dropped = false;
};

// Consumes drained worker output on the I/O thread. Implementations queue
// frames per connection and flush each touched socket once per drain, so one
// drain pass writes each socket at most once no matter how many shards fed it.
class ShardOutputSink {
 public:
  virtual ~ShardOutputSink() = default;
  virtual void OnPeerSend(common::ProcessId to, msg::Message& m) = 0;
  virtual void OnClientReply(uint64_t client, uint64_t seq, std::string&& value,
                             bool dropped) = 0;
  // Catch-up entries frame for peer `to` (payload: varint shard, varint count,
  // count x (dot, cmd)). Default drop: only the durable TCP node serves these.
  virtual void OnCatchupFrame(common::ProcessId to, std::string&& payload) {}
};

// Items each inbox and outbox edge holds before it pushes back. The bound
// only decides when backpressure and drops start: mailbox storage grows with
// occupancy, so an edge that never gets deep never pays for these slots.
inline constexpr size_t kMailboxCapacity = 8192;

class ShardRuntime {
 public:
  // The deployment is borrowed and must outlive the runtime. Its per-shard
  // engines/stores are owned by the workers between Start() and Stop(): no
  // other thread may touch them (including stats()) until the workers join.
  explicit ShardRuntime(smr::Deployment* deployment);
  ~ShardRuntime();

  // `fn` is invoked from worker threads after every output pushed to an outbox,
  // and while a worker waits on a full one; it must be thread-safe and cheap.
  // rt::Node rings a Doorbell, which costs one atomic exchange while the I/O
  // thread is awake and writes its eventfd only when it is parked. Set before
  // Start().
  void set_output_notify(std::function<void()> fn) { output_notify_ = std::move(fn); }

  // Spawns one worker per shard; each binds and starts its engine on its own
  // thread, then serves its inbox/timers until Stop().
  void Start(common::ProcessId self, uint32_t n);
  // Signals every worker and joins them. Idempotent; safe if never started.
  void Stop();
  // Joins a single shard's worker (fault drill: a dead shard thread must not
  // deadlock the node — its inbox fills and further input is dropped). Returns
  // false if already stopped.
  bool StopOne(uint32_t shard);

  // The I/O thread's one entry point: moves `in` into the shard's inbox and
  // wakes its worker. On a full inbox it leaves `in` untouched and returns
  // false — the caller drains outboxes (freeing worker progress) and retries
  // the same item or drops it. A stopped shard swallows its input, as a
  // crashed replica would. `shard` must be < partitions(): callers validate
  // tags a peer sent before routing.
  //
  // The worker hands kMessage to its engine and batches kSubmit. On durable
  // deployments, kCatchupReq (a restarted peer's reserved floor + encoded
  // frontier) OnRestore()s the engine and streams the missing log records back
  // as kCatchup outputs, and kCatchupEntry (one streamed record) applies
  // through the normal Executed path, whose durable admit filter makes
  // re-delivery idempotent.
  bool Route(uint32_t shard, ShardInput& in);

  // Drains every outbox into the sink (I/O thread only). Returns items drained.
  size_t DrainOutputs(ShardOutputSink& sink);
  // True if any outbox holds output (I/O-thread recheck after re-arming).
  bool HasOutput() const;

  uint32_t partitions() const { return partitions_; }
  bool started() const { return started_; }
  // Client commands applied across all shards (atomic; readable any time).
  uint64_t applied_ops() const {
    return applied_ops_.load(std::memory_order_acquire);
  }
  // Inputs dropped on full/stopped shard inboxes (monitoring; atomic).
  uint64_t inputs_dropped() const {
    return inputs_dropped_.load(std::memory_order_relaxed);
  }
  void CountDroppedInput() {
    inputs_dropped_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  class Worker;

  smr::Deployment* deployment_;
  uint32_t partitions_;
  std::function<void()> output_notify_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<uint64_t> applied_ops_{0};
  std::atomic<uint64_t> inputs_dropped_{0};
  bool started_ = false;
};

}  // namespace rt

#endif  // SRC_RT_SHARD_RUNTIME_H_
