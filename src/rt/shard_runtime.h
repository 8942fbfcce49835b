// Thread-per-shard worker tier of the real runtime.
//
// A replica runs one worker thread per shard (P=1 runs one worker), the
// split that parallel SMR designs (Marandi et al.'s P-SMR, Whittaker et al.'s
// compartmentalization) arrive at. A worker owns its shard's protocol engine,
// store slice, submission batching, timer heap, peer sockets (one TCP
// connection per (peer, shard) pair) and the client connections homed on it,
// and runs to completion over them: peer frames decode straight into the
// engine, smr::Context::Send encodes straight into the target connection's
// write buffer, client requests decode on the worker and replies encode
// straight into the client's write buffer, each dirty connection is flushed
// once per loop pass, and a pass ends in one epoll_wait over the worker's
// doorbell and its sockets, timed by its timer heap. Protocol traffic never
// leaves the shard's thread, so no mailbox can drop it: a slow peer fills TCP
// buffers, and output its socket will not take waits in the connection for
// EPOLLOUT.
//
// Sockets: the worker dials its own shard's connection to every higher-id
// peer and redials a lost one with backoff (50 ms doubling to 1 s) from its
// timer heap; the node's I/O thread only accepts, reads hellos and hands the
// socket over (with any bytes read past the hello) through the worker's
// inbox, a bounded SPSC mailbox (src/rt/mailbox.h). A client socket goes to a
// home worker: the only one at P=1, round-robin over the running workers at
// P>1. A stopped worker (StopOne) closes every socket it holds, so a client
// homed on it sees its connection close, as it would see a crashed node.
//
// Client requests: the home worker rejects unroutable commands (kBatch, key
// sets spanning partitions) with a dropped reply, submits a command for its
// own shard to its engine, and forwards any other over the worker-to-worker
// SPSC edge to the shard's owner, which returns the completion over the
// reverse edge; the home writes every reply to the client itself. At P=1 no
// client request crosses a thread. The owner keeps the reply routing (which
// home and connection wait for a (client, seq)) and, on durable nodes, the
// resubmit cache: each client's last completed (seq, result) on the shard,
// updated by every completion the shard executes, so a client that
// reconnects (possibly to another home, or another node) and resubmits gets
// the cached result, or joins the still-running command, instead of a
// re-execution.
//
// Deadlock freedom: no worker spins or blocks on a mailbox, and no worker
// keeps an unbounded side queue. A home worker keeps at most
// kMailboxCapacity forwards outstanding (forwarded, reply not yet taken) per
// owner, and the owner answers each forward exactly once. Each edge of the
// pair therefore holds at most that many items, so neither push can fail.
// A home that reaches the cap for a running owner stops reading its client
// sockets (requests wait in the connections' buffers and then in TCP) until
// replies bring it back under the cap. A forward for a stopped owner is
// dropped, as a crashed replica would drop it.
//
// A worker starts its engine once it holds all n-1 peers of its shard and
// only then watches their sockets, so earlier frames wait in the kernel;
// client submits that arrive earlier wait in the worker. A restarted durable
// worker then sends its shard's executed-dot frontier to each peer, whose
// worker streams back the records it lacks; they apply through the normal
// executed path.
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
#include "src/msg/message.h"
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
// the node's I/O thread (until the hello) and the shard workers (peer and
// client connections). One thread owns it at a time; the owner watches fd() in
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

  uint64_t tag = 0;    // the owner's epoll tag for this connection
  bool dirty = false;  // queued frames awaiting the owner's pass-end flush
  uint32_t events = 0;  // what the owner's epoll set watches

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

struct PeerAddress {
  std::string host;
  uint16_t port = 0;
};

// One item on an (I/O thread -> worker) inbox: a socket past its hello,
// which the worker owns from then on.
struct ShardInput {
  enum class Kind : uint8_t { kNone, kPeerConn, kClientConn };
  Kind kind = Kind::kNone;
  common::ProcessId from = 0;   // kPeerConn: the peer's id
  int fd = -1;
  std::vector<uint8_t> unread;  // bytes read past the hello
};

// A client request on a (home -> owner) worker edge. Slots are resident in
// the mailbox's blocks; pushing moves the command in, so slot string
// capacity is recycled across forwards (no per-item heap allocation once a
// depth has been reached).
struct ForwardedSubmit {
  smr::Command cmd;
  uint64_t conn = 0;  // the home's id of the client connection
};

// The owner's answer to one ForwardedSubmit, on the (owner -> home) edge.
struct ForwardedReply {
  msg::ClientReply reply;
  uint64_t conn = 0;
};

// Items each mailbox edge holds before it pushes back, which is also a home
// worker's cap on outstanding forwards per owner. Mailbox storage grows with
// occupancy, so an edge that never gets deep never pays for these slots.
inline constexpr size_t kMailboxCapacity = 8192;

// The hop ledger: what crossed a mailbox, summed over all workers since
// construction.
struct HopCounts {
  uint64_t inbox_items = 0;  // socket handoffs from the I/O thread
  uint64_t forwarded = 0;    // client requests sent to their shard's owner
  uint64_t returned = 0;     // forwarded requests' replies sent back home
  uint64_t bell_writes = 0;  // doorbell eventfd writes
  uint64_t parks = 0;        // worker epoll_waits that could sleep
};

class ShardRuntime {
 public:
  // The deployment is borrowed and must outlive the runtime. Its per-shard
  // engines/stores are owned by the workers between Start() and Stop(): no
  // other thread may touch them (including stats()) until the workers join.
  explicit ShardRuntime(smr::Deployment* deployment);
  ~ShardRuntime();

  // Spawns one worker per shard. Each dials its shard's connection to every
  // higher-id peer, waits for its n-1 peer connections, then binds and starts
  // its engine on its own thread and serves until Stop().
  void Start(common::ProcessId self, std::vector<PeerAddress> peers);
  // Signals every worker and joins them. Idempotent; safe if never started.
  void Stop();
  // Joins a single shard's worker (fault drill: a dead shard thread must not
  // deadlock the node). It closes its connections on the way out, so peers
  // and its clients see them close; later sockets for it are closed. Returns
  // false if already stopped.
  bool StopOne(uint32_t shard);

  // The I/O thread's entry points: hand an accepted socket past its hello
  // (and the bytes read past it) to shard `shard`'s worker, or a client
  // socket to its home worker. Never blocks: a stopped worker's socket is
  // closed, as a crashed replica's would be, and one that meets a full inbox
  // is closed and counted in inputs_dropped().
  void AdoptPeer(uint32_t shard, common::ProcessId peer, int fd,
                 std::vector<uint8_t>&& unread);
  void AdoptClient(int fd, std::vector<uint8_t>&& unread);

  uint32_t partitions() const { return partitions_; }
  // Client commands applied across all shards (atomic; readable any time).
  uint64_t applied_ops() const {
    return applied_ops_.load(std::memory_order_acquire);
  }
  // Sockets dropped on full shard inboxes (monitoring; atomic).
  uint64_t inputs_dropped() const {
    return inputs_dropped_.load(std::memory_order_relaxed);
  }
  // The hop ledger; any thread, any time (relaxed reads of live counters).
  HopCounts hops() const;

 private:
  class Worker;

  // Single-writer relaxed increment: each counter has one writing thread.
  static void Bump(std::atomic<uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  void Route(uint32_t shard, ShardInput& in);

  smr::Deployment* deployment_;
  uint32_t partitions_;
  common::ProcessId self_ = common::kInvalidProcess;
  std::vector<PeerAddress> peers_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<uint64_t> applied_ops_{0};
  // Written by the I/O thread only.
  std::atomic<uint64_t> inputs_dropped_{0};
  std::atomic<uint64_t> inbox_items_{0};
  std::atomic<uint64_t> io_bell_writes_{0};
  uint32_t next_home_ = 0;  // round-robin cursor for client homes
  bool started_ = false;
};

}  // namespace rt

#endif  // SRC_RT_SHARD_RUNTIME_H_
