// Thread-per-shard worker tier of the real runtime.
//
// A replica runs one worker thread per shard (P=1 runs one worker), the
// split that parallel SMR designs (Marandi et al.'s P-SMR, Whittaker et al.'s
// compartmentalization) arrive at. A worker owns its shard's protocol engine,
// store slice, submission batching, timer heap and peer sockets (one TCP
// connection per (peer, shard) pair), and runs to completion over them: peer
// frames decode straight into the engine, smr::Context::Send encodes straight
// into the target connection's write buffer, each dirty connection is
// flushed once per loop pass, and a pass ends in one epoll_wait over the
// inbox doorbell and the sockets, timed by the worker's timer heap. Protocol
// traffic never leaves the shard's thread, so no mailbox can drop it: a slow
// peer fills TCP buffers, and output its socket will not take waits in the
// connection for EPOLLOUT.
//
// The bounded SPSC mailboxes to rt::Node's I/O thread (src/rt/mailbox.h) carry
// only what is not per shard. The inbox brings client submits and
// established peer sockets (with any bytes read past the hello); the outbox
// returns client replies and lost-peer notices. Per command that is two
// crossings, both at the node that took the request.
//
// A worker starts its engine once it holds all n-1 peers of its shard and
// only then watches their sockets, so earlier frames wait in the kernel. A
// restarted durable worker then sends its shard's executed-dot frontier to
// each peer, whose worker streams back the records it lacks; they apply
// through the normal executed path.
//
// The simulator path is untouched: the engines driven here are the same
// sans-I/O objects the simulator drives single-threadedly (the determinism
// pins and P=1 byte-identity do not move).
#ifndef SRC_RT_SHARD_RUNTIME_H_
#define SRC_RT_SHARD_RUNTIME_H_

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/codec/codec.h"
#include "src/common/check.h"
#include "src/common/types.h"
#include "src/rt/mailbox.h"
#include "src/smr/command.h"
#include "src/smr/deployment.h"

namespace rt {

// Frame kinds (the node's header has the wire layout). Frames are a 4-byte
// little-endian length + a payload whose first byte is the kind.
inline constexpr uint8_t kFrameMessage = 0;
inline constexpr uint8_t kFramePeerHello = 1;
inline constexpr uint8_t kFrameClientHello = 2;
inline constexpr uint8_t kFrameCatchupReq = 3;
inline constexpr uint8_t kFrameCatchupEntries = 4;

// Framed, buffered, non-blocking TCP socket, shared by both socket owners:
// the node's I/O thread (hellos, client connections) and the shard workers
// (peer connections). One thread owns it at a time; the owner watches fd() in
// its own epoll set and calls ReadAll/Flush when it is ready.
class Connection {
 public:
  // Takes ownership of fd. `unread` is input already read off the socket
  // (bytes past a hello), served before anything the socket yields later.
  explicit Connection(int fd, std::vector<uint8_t> unread = {})
      : fd_(fd), in_(std::move(unread)), in_end_(in_.size()) {
    int flags = fcntl(fd_, F_GETFL, 0);
    CHECK_GE(flags, 0);
    CHECK_GE(fcntl(fd_, F_SETFL, flags | O_NONBLOCK), 0);
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~Connection() {
    if (fd_ >= 0) {
      close(fd_);
    }
  }

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  bool closed() const { return closed_; }
  bool wants_write() const { return out_sent_ < out_.size(); }

  // Appends one frame of `kind` to the write buffer; the caller encodes the
  // payload into the returned writer, then calls EndFrame(). Nothing is
  // written to the socket until Flush().
  codec::Writer& BeginFrame(uint8_t kind) {
    frame_start_ = out_.size();
    frame_ = codec::Writer(std::move(out_));
    frame_.U32(0);  // length, patched by EndFrame
    frame_.U8(kind);
    return frame_;
  }

  void EndFrame() {
    out_ = frame_.TakeBuffer();
    auto len = static_cast<uint32_t>(out_.size() - frame_start_ - 4);
    std::memcpy(out_.data() + frame_start_, &len, 4);
  }

  // Writes as much buffered output as the socket takes. MSG_NOSIGNAL: a peer
  // that closed its end yields EPIPE (-> closed) instead of a SIGPIPE that
  // would kill the whole process. Returns false once the socket failed.
  bool Flush() {
    while (out_sent_ < out_.size() && !closed_) {
      ssize_t n = send(fd_, out_.data() + out_sent_, out_.size() - out_sent_,
                       MSG_NOSIGNAL);
      if (n > 0) {
        out_sent_ += static_cast<size_t>(n);
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      } else {
        closed_ = true;
      }
    }
    if (out_sent_ * 2 >= out_.size()) {  // all sent, or the sent half is waste
      out_.erase(out_.begin(), out_.begin() + static_cast<ptrdiff_t>(out_sent_));
      out_sent_ = 0;
    }
    return !closed_;
  }

  // Reads everything the socket holds straight into the input buffer's spare
  // room, then hands each complete frame (bytes handed over with the socket
  // first) to on_frame(data, size), which returns false to stop (the rest
  // stays buffered, see Release). Frames are consumed by offset and the
  // buffer is compacted once per call. A short read means the socket is
  // drained: stop there rather than pay one more read() for EAGAIN (sockets
  // are watched level-triggered). Returns false once the socket is closed or
  // sent a malformed length.
  template <class OnFrame>
  bool ReadAll(OnFrame&& on_frame) {
    if (in_begin_ > 0) {
      std::memmove(in_.data(), in_.data() + in_begin_, in_end_ - in_begin_);
      in_end_ -= in_begin_;
      in_begin_ = 0;
    }
    while (!closed_) {
      if (in_.size() - in_end_ < kReadChunk / 4) {
        in_.resize(std::max(kReadChunk, in_.size() * 2));
      }
      size_t room = in_.size() - in_end_;
      ssize_t n = read(fd_, in_.data() + in_end_, room);
      if (n > 0) {
        in_end_ += static_cast<size_t>(n);
        if (static_cast<size_t>(n) < room) {
          break;
        }
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        closed_ = true;
      }
    }
    while (in_end_ - in_begin_ >= 4) {
      uint32_t len;
      std::memcpy(&len, in_.data() + in_begin_, 4);
      if (len > kMaxFrame) {
        closed_ = true;
        return false;
      }
      if (in_end_ - in_begin_ - 4 < len) {
        break;
      }
      in_begin_ += 4 + len;
      if (!on_frame(in_.data() + in_begin_ - len, static_cast<size_t>(len))) {
        break;
      }
    }
    return !closed_;
  }

  // Gives up the socket (it leaves this Connection open) and the input read
  // past the last dispatched frame. The Connection is closed afterwards.
  int Release(std::vector<uint8_t>* unread) {
    unread->assign(in_.begin() + static_cast<ptrdiff_t>(in_begin_),
                   in_.begin() + static_cast<ptrdiff_t>(in_end_));
    int fd = fd_;
    fd_ = -1;
    closed_ = true;
    return fd;
  }

  common::ProcessId peer = common::kInvalidProcess;  // owner's tag
  bool is_client = false;
  bool dirty = false;  // queued frames awaiting the owner's pass-end flush
  bool watching_out = false;  // the owner's epoll set asks for EPOLLOUT

 private:
  static constexpr size_t kReadChunk = 16 * 1024;
  static constexpr uint32_t kMaxFrame = 64u * 1024 * 1024;  // sanity bound

  int fd_;
  std::vector<uint8_t> in_;  // bytes [in_begin_, in_end_) are unconsumed
  size_t in_end_;
  size_t in_begin_ = 0;
  std::vector<uint8_t> out_;  // bytes [out_sent_, size) await the socket
  size_t out_sent_ = 0;
  codec::Writer frame_;  // holds out_ between BeginFrame and EndFrame
  size_t frame_start_ = 0;
  bool closed_ = false;
};

// One item on an (I/O -> shard) inbox edge. Slots are resident in the
// mailbox's blocks; pushing moves the command in, so slot string capacity is
// recycled across submits (no per-item heap allocation once a depth has been
// reached).
struct ShardInput {
  enum class Kind : uint8_t {
    kNone,
    kSubmit,
    kPeerConn,  // an established socket to peer `from`; the worker owns it
  };
  Kind kind = Kind::kNone;
  smr::Command cmd;              // kSubmit
  common::ProcessId from = 0;    // kPeerConn
  int fd = -1;                   // kPeerConn
  std::vector<uint8_t> unread;   // kPeerConn: bytes read past the hello
};

// One item on a (shard -> I/O) outbox edge.
struct ShardOutput {
  enum class Kind : uint8_t { kNone, kReply, kPeerLost };
  Kind kind = Kind::kNone;
  common::ProcessId peer = 0;  // kPeerLost: whose connection closed
  uint64_t client = 0;         // kReply: completed client command
  uint64_t seq = 0;
  std::string value;
  bool dropped = false;
};

// Consumes drained worker output on the I/O thread.
class ShardOutputSink {
 public:
  virtual ~ShardOutputSink() = default;
  virtual void OnClientReply(uint64_t client, uint64_t seq, std::string&& value,
                             bool dropped) = 0;
  // Shard `shard`'s connection to `peer` closed.
  virtual void OnPeerLost(uint32_t shard, common::ProcessId peer) = 0;
};

// Items each inbox and outbox edge holds before it pushes back. The bound
// only decides when backpressure and drops start: mailbox storage grows with
// occupancy, so an edge that never gets deep never pays for these slots.
inline constexpr size_t kMailboxCapacity = 8192;

// The hop ledger: what crossed between the I/O thread and the workers, summed
// over all shards since construction.
struct HopCounts {
  uint64_t inbox_items = 0;   // submits and socket handoffs
  uint64_t outbox_items = 0;  // replies and lost-peer notices
  uint64_t bell_writes = 0;   // doorbell eventfd writes, both directions
  uint64_t parks = 0;         // worker epoll_waits that could sleep
};

class ShardRuntime {
 public:
  // The deployment is borrowed and must outlive the runtime. Its per-shard
  // engines/stores are owned by the workers between Start() and Stop(): no
  // other thread may touch them (including stats()) until the workers join.
  explicit ShardRuntime(smr::Deployment* deployment);
  ~ShardRuntime();

  // Rung by workers after every output they push; the I/O thread watches its
  // fd and drains outboxes when it fires.
  Doorbell& output_bell() { return output_bell_; }

  // Spawns one worker per shard. Each waits for its n-1 peer connections,
  // then binds and starts its engine on its own thread and serves until
  // Stop().
  void Start(common::ProcessId self, uint32_t n);
  // Signals every worker and joins them. Idempotent; safe if never started.
  void Stop();
  // Joins a single shard's worker (fault drill: a dead shard thread must not
  // deadlock the node). It closes its connections on the way out, so peers
  // see them close; later input for it is dropped. Returns false if already
  // stopped.
  bool StopOne(uint32_t shard);

  // The I/O thread's one entry point: moves `in` into the shard's inbox and
  // wakes its worker. On a full inbox it leaves `in` untouched and returns
  // false — the caller drains outboxes (freeing worker progress) and retries
  // the same item or drops it. A stopped shard swallows its input (closing a
  // handed-over socket), as a crashed replica would. `shard` must be
  // < partitions().
  bool Route(uint32_t shard, ShardInput& in);

  // Drains every outbox into the sink (I/O thread only). Returns items drained.
  size_t DrainOutputs(ShardOutputSink& sink);
  // True if any outbox holds output (I/O-thread recheck after re-arming).
  bool HasOutput() const;

  uint32_t partitions() const { return partitions_; }
  // Client commands applied across all shards (atomic; readable any time).
  uint64_t applied_ops() const {
    return applied_ops_.load(std::memory_order_acquire);
  }
  // Inputs dropped on full/stopped shard inboxes (monitoring; atomic).
  uint64_t inputs_dropped() const {
    return inputs_dropped_.load(std::memory_order_relaxed);
  }
  void CountDroppedInput() { Bump(inputs_dropped_); }
  // The hop ledger; any thread, any time (relaxed reads of live counters).
  HopCounts hops() const;

 private:
  class Worker;

  // Single-writer relaxed increment: each counter has one writing thread.
  static void Bump(std::atomic<uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  smr::Deployment* deployment_;
  uint32_t partitions_;
  Doorbell output_bell_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<uint64_t> applied_ops_{0};
  // Written by the I/O thread only.
  std::atomic<uint64_t> inputs_dropped_{0};
  std::atomic<uint64_t> inbox_items_{0};
  std::atomic<uint64_t> worker_bell_writes_{0};
  bool started_ = false;
};

}  // namespace rt

#endif  // SRC_RT_SHARD_RUNTIME_H_
