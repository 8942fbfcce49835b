#include "src/rt/node.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <thread>

#include "src/codec/codec.h"
#include "src/common/check.h"

namespace rt {

namespace {

constexpr uint8_t kFrameMessage = 0;
constexpr uint8_t kFramePeerHello = 1;
constexpr uint8_t kFrameClientHello = 2;
constexpr uint8_t kFrameCatchupReq = 3;
constexpr uint8_t kFrameCatchupEntries = 4;

constexpr common::Duration kRedialFloor = 50 * common::kMillisecond;
constexpr common::Duration kRedialCap = common::kSecond;

void SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  CHECK_GE(flags, 0);
  CHECK_GE(fcntl(fd, F_SETFL, flags | O_NONBLOCK), 0);
}

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

// Framed, buffered, non-blocking TCP connection bound to a Node's event loop.
class Connection {
 public:
  Connection(Node* node, int fd) : node_(node), fd_(fd) {
    SetNonBlocking(fd_);
    SetNoDelay(fd_);
    node_->loop_.WatchFd(fd_, EPOLLIN, [this](uint32_t events) { OnReady(events); });
  }

  ~Connection() {
    if (fd_ >= 0) {
      node_->loop_.UnwatchFd(fd_);
      close(fd_);
    }
  }

  void SendFrame(const std::vector<uint8_t>& payload) {
    QueueFrame(payload);
    Flush();
  }

  // Appends a frame to the write buffer without flushing. The drain path
  // queues every frame a drain pass produces, then flushes each dirty
  // connection once — one write syscall per socket per pass, however many
  // shards fed it.
  void QueueFrame(const std::vector<uint8_t>& payload) {
    uint8_t header[4];
    uint32_t len = static_cast<uint32_t>(payload.size());
    std::memcpy(header, &len, 4);
    out_.insert(out_.end(), header, header + 4);
    out_.insert(out_.end(), payload.begin(), payload.end());
  }

  // MSG_NOSIGNAL: a peer that closed its end yields EPIPE (-> closed_) instead of
  // a SIGPIPE that would kill the whole node.
  void Flush() {
    while (!out_.empty()) {
      ssize_t n = send(fd_, out_.data(), out_.size(), MSG_NOSIGNAL);
      if (n > 0) {
        out_.erase(out_.begin(), out_.begin() + n);
      } else {
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          closed_ = true;
        }
        break;
      }
    }
    node_->loop_.ModifyFd(fd_, out_.empty() ? EPOLLIN : (EPOLLIN | EPOLLOUT));
    if (closed_) {
      node_->NoteClosed(this);
    }
  }

  bool closed() const { return closed_; }
  common::ProcessId peer_id = common::kInvalidProcess;  // set after peer hello
  bool is_client = false;
  bool dirty = false;  // queued frames awaiting the pass-end flush

 private:
  void OnReady(uint32_t events) {
    if (events & EPOLLOUT) {
      Flush();
    }
    if (events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
      ReadAll();
    }
  }

  // A short read means the socket is drained: stop there rather than pay one
  // more read() for EAGAIN. The fd is watched level-triggered, so epoll
  // reports it again when more data or EOF arrives.
  void ReadAll() {
    uint8_t buf[16 * 1024];
    while (true) {
      ssize_t n = read(fd_, buf, sizeof(buf));
      if (n > 0) {
        in_.insert(in_.end(), buf, buf + n);
        if (static_cast<size_t>(n) < sizeof(buf)) {
          break;
        }
      } else if (n == 0) {
        closed_ = true;
        break;
      } else {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          break;
        }
        closed_ = true;
        break;
      }
    }
    size_t off = 0;
    while (in_.size() - off >= 4) {
      uint32_t len;
      std::memcpy(&len, in_.data() + off, 4);
      if (len > 64u * 1024 * 1024) {  // sanity bound
        closed_ = true;
        break;
      }
      if (in_.size() - off - 4 < len) {
        break;
      }
      node_->OnFrame(this, in_.data() + off + 4, len);
      off += 4 + len;
    }
    if (off > 0) {
      in_.erase(in_.begin(), in_.begin() + static_cast<ptrdiff_t>(off));
    }
    if (closed_) {
      node_->NoteClosed(this);
    }
  }

  Node* node_;
  int fd_;
  std::vector<uint8_t> in_;
  std::vector<uint8_t> out_;
  bool closed_ = false;
};

Node::Node(common::ProcessId id, std::vector<PeerAddress> peers,
           smr::Deployment* deployment)
    : self_(id), peers_(std::move(peers)), deployment_(deployment) {
  CHECK_LT(self_, peers_.size());
  CHECK(deployment_ != nullptr);
  shards_ = std::make_unique<ShardRuntime>(deployment_);
  shards_->set_output_notify([this]() { out_bell_.Ring(); });
  loop_.WatchFd(out_bell_.fd(), EPOLLIN, [this](uint32_t) { OnWorkerOutput(); });
  out_bell_.Arm();
}

Node::~Node() {
  if (listen_fd_ >= 0) {
    close(listen_fd_);
  }
}

bool Node::Listen() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  CHECK_GE(listen_fd_, 0);
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(peers_[self_].port);
  if (bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    return false;
  }
  if (peers_[self_].port == 0) {
    socklen_t len = sizeof(addr);
    getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr), &len);
    peers_[self_].port = ntohs(addr.sin_port);
  }
  CHECK_EQ(listen(listen_fd_, 64), 0);
  SetNonBlocking(listen_fd_);
  loop_.WatchFd(listen_fd_, EPOLLIN, [this](uint32_t) { AcceptReady(); });
  return true;
}

void Node::AcceptReady() {
  while (true) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      break;
    }
    anonymous_.push_back(std::make_unique<Connection>(this, fd));
  }
}

void Node::Run() {
  CHECK_GE(listen_fd_, 0);
  // Dial peers with a higher id through the re-dial path: non-blocking and
  // retried with backoff until the peer listens, so Stop() ends Run() even
  // while a peer never comes up.
  for (common::ProcessId p = self_ + 1; p < peers_.size(); p++) {
    DialPeer(p);
  }
  MaybeStartEngine();
  loop_.Run();
  // Join every shard worker before returning control to the caller (who may
  // destroy the deployment), then push out whatever the workers produced
  // between the last drain and the join.
  shards_->Stop();
  DrainShardOutputs();
  FlushDirty();
}

void Node::OnPeerConnected(common::ProcessId peer, std::unique_ptr<Connection> conn) {
  // A reconnect replaces any stale connection to the same peer; scrub every
  // raw pointer to the old one before its unique_ptr frees it. An in-flight
  // dial to that peer (it beat us to reconnecting) is abandoned too.
  auto old = peer_conns_.find(peer);
  if (old != peer_conns_.end() && old->second != nullptr) {
    ForgetConn(old->second.get());
  }
  auto dial = dialing_.find(peer);
  if (dial != dialing_.end()) {
    loop_.UnwatchFd(dial->second);
    close(dial->second);
    dialing_.erase(dial);
  }
  redial_backoff_.erase(peer);
  peer_conns_[peer] = std::move(conn);
  MaybeStartEngine();
}

void Node::MaybeStartEngine() {
  if (engine_started_ || peer_conns_.size() + 1 < peers_.size()) {
    return;
  }
  engine_started_ = true;
  // Each worker binds and starts its own shard engine on its own thread; the
  // ShardedEngine wrapper stays out of the message path entirely. Workers
  // apply recovered restart hints themselves, right after OnStart.
  shards_->Start(self_, static_cast<uint32_t>(peers_.size()));
  SendCatchupRequests();
  ReplayPendingPeerFrames();
  for (smr::Command& cmd : pending_submits_) {
    uint32_t shard = 0;
    deployment_->partitioner().SingleShard(cmd, &shard);  // validated at OnFrame
    RouteInput(common::kInvalidProcess, nullptr, shard, &cmd);
  }
  pending_submits_.clear();
}

void Node::BufferPeerFrame(common::ProcessId from, const uint8_t* data,
                           size_t size) {
  // Overflow falls back to dropping, as before buffering existed; the window
  // between mesh completion and engine start is a handful of milliseconds, so
  // the cap exists only to bound a misbehaving peer.
  constexpr size_t kMaxPendingPeerFrames = 65536;
  if (pending_peer_frames_.size() >= kMaxPendingPeerFrames) {
    return;
  }
  pending_peer_frames_.push_back(
      PendingPeerFrame{from, std::vector<uint8_t>(data, data + size)});
}

void Node::ReplayPendingPeerFrames() {
  std::vector<PendingPeerFrame> frames;
  frames.swap(pending_peer_frames_);
  for (PendingPeerFrame& f : frames) {
    codec::Reader r(f.bytes.data(), f.bytes.size());
    uint8_t kind = r.U8();
    switch (kind) {
      case kFrameMessage: {
        msg::Message m;
        if (!msg::Decode(r, m)) {
          break;
        }
        RouteInput(f.from, &m, /*shard=*/0, nullptr);
        break;
      }
      case kFrameCatchupReq:
        HandleCatchupRequest(r);
        break;
      case kFrameCatchupEntries:
        HandleCatchupEntries(r);
        break;
      default:
        break;
    }
  }
}

void Node::SendCatchupRequests() {
  if (catchup_requested_ || !deployment_->durable() ||
      !deployment_->HasRecoveredState()) {
    return;
  }
  catchup_requested_ = true;
  const smr::Deployment::CatchupAdvert& adv = deployment_->catchup_advert();
  encode_scratch_.Clear();
  encode_scratch_.U8(kFrameCatchupReq);
  encode_scratch_.U32(self_);
  encode_scratch_.Varint(adv.shards.size());
  for (const auto& s : adv.shards) {
    encode_scratch_.Varint(s.seq_floor);
    encode_scratch_.Bytes(s.frontier);
  }
  for (auto& [p, conn] : peer_conns_) {
    if (conn != nullptr && !conn->closed()) {
      conn->SendFrame(encode_scratch_.buffer());
    }
  }
}

void Node::OnFrame(Connection* conn, const uint8_t* data, size_t size) {
  codec::Reader r(data, size);
  uint8_t kind = r.U8();
  switch (kind) {
    case kFramePeerHello: {
      common::ProcessId peer = r.U32();
      if (!r.ok() || peer >= peers_.size()) {
        return;
      }
      conn->peer_id = peer;
      // Move from anonymous_ into peer_conns_.
      for (auto& holder : anonymous_) {
        if (holder.get() == conn) {
          OnPeerConnected(peer, std::move(holder));
          holder = nullptr;
          break;
        }
      }
      anonymous_.erase(std::remove(anonymous_.begin(), anonymous_.end(), nullptr),
                       anonymous_.end());
      break;
    }
    case kFrameClientHello:
      conn->is_client = true;
      break;
    case kFrameMessage: {
      msg::Message m;
      if (!msg::Decode(r, m)) {
        return;
      }
      if (conn->is_client) {
        if (auto* req = msg::get_if<msg::ClientRequest>(&m)) {
          // kBatch is an internal composite (built by the sharded submission
          // path, client 0): an untrusted client injecting one would crash the
          // whole cluster at the deployment's unpack CHECK once it replicated.
          // Reject it at the door, at any partition count. Everything else is
          // validated against the deployment's Partitioner before it reaches
          // an engine: a routable command lands directly in its shard worker's
          // inbox, and unroutable input from an untrusted client (at P>1,
          // noOps and key sets spanning partitions) is rejected as dropped
          // instead of CHECK-crashing the replica.
          uint32_t shard = 0;
          bool unroutable = req->cmd.is_batch() ||
                            !deployment_->partitioner().SingleShard(req->cmd, &shard);
          if (unroutable) {
            // Reply directly on this connection: going through waiting_clients_
            // could clobber an in-flight entry reusing the same (client, seq).
            SendReply(conn, req->cmd.client, req->cmd.seq, "", /*dropped=*/true);
            return;
          }
          chk::CmdKey key{req->cmd.client, req->cmd.seq};
          if (deployment_->durable()) {
            // Idempotent resubmission: a client that reconnected after its
            // socket died re-sends its last command. If it already completed,
            // answer from the completion cache instead of re-executing; if it
            // is still in flight, just re-point the reply at the new
            // connection.
            auto done = client_done_.find(req->cmd.client);
            if (done != client_done_.end() && req->cmd.seq <= done->second.first) {
              SendReply(conn, req->cmd.client, req->cmd.seq,
                        req->cmd.seq == done->second.first
                            ? std::string(done->second.second)
                            : std::string(),
                        /*dropped=*/false);
              return;
            }
            if (in_flight_.find(key) != in_flight_.end()) {
              waiting_clients_[key] = conn;
              return;
            }
            in_flight_.insert(key);
          }
          waiting_clients_[key] = conn;
          if (engine_started_) {
            RouteInput(common::kInvalidProcess, nullptr, shard, &req->cmd);
          } else {
            pending_submits_.push_back(req->cmd);
          }
        }
        return;
      }
      if (conn->peer_id != common::kInvalidProcess) {
        if (!engine_started_) {
          BufferPeerFrame(conn->peer_id, data, size);
        } else {
          RouteInput(conn->peer_id, &m, /*shard=*/0, nullptr);
        }
      }
      break;
    }
    case kFrameCatchupReq:
      if (conn->peer_id != common::kInvalidProcess) {
        if (!engine_started_) {
          BufferPeerFrame(conn->peer_id, data, size);
        } else {
          HandleCatchupRequest(r);
        }
      }
      break;
    case kFrameCatchupEntries:
      if (conn->peer_id != common::kInvalidProcess) {
        if (!engine_started_) {
          BufferPeerFrame(conn->peer_id, data, size);
        } else {
          HandleCatchupEntries(r);
        }
      }
      break;
    default:
      break;
  }
}

void Node::HandleCatchupRequest(codec::Reader& r) {
  common::ProcessId requester = r.U32();
  uint64_t nshards = r.Varint();
  if (!r.ok() || requester >= peers_.size() ||
      nshards != deployment_->partitions()) {
    return;
  }
  std::vector<uint64_t> floors(nshards);
  std::vector<std::string> frontiers(nshards);
  for (uint64_t s = 0; s < nshards; s++) {
    floors[s] = r.Varint();
    frontiers[s] = r.Bytes();
  }
  if (!r.ok()) {
    return;
  }
  // Each shard worker OnRestore()s its engine and streams the missing log
  // records back as kCatchup outputs. A dropped request leaves the requester
  // behind until protocol recovery catches it up.
  for (uint32_t s = 0; s < nshards; s++) {
    RouteWithRetry([&]() {
      return shards_->RouteCatchupRequest(s, requester, floors[s], frontiers[s]);
    });
  }
}

void Node::HandleCatchupEntries(codec::Reader& r) {
  uint64_t shard = r.Varint();
  uint64_t count = r.Varint();
  if (!r.ok() || shard >= deployment_->partitions()) {
    return;
  }
  for (uint64_t i = 0; i < count; i++) {
    common::Dot dot = r.Dot();
    smr::Command cmd = smr::Command::Decode(r);
    if (!r.ok() || !dot.valid()) {
      return;
    }
    RouteWithRetry([&]() {
      return shards_->RouteCatchupEntry(static_cast<uint32_t>(shard), dot, cmd);
    });
  }
}

void Node::CompleteClient(uint64_t client, uint64_t seq,
                          const std::string& value, bool dropped) {
  if (!deployment_->durable() || client == 0) {
    return;
  }
  in_flight_.erase(chk::CmdKey{client, seq});
  if (dropped) {
    return;  // not cached: the client may legitimately resubmit a drop
  }
  auto& entry = client_done_[client];
  if (seq >= entry.first) {
    entry.first = seq;
    entry.second = value;
  }
}

void Node::SendReply(Connection* conn, uint64_t client, uint64_t seq,
                     std::string&& value, bool dropped, bool flush) {
  if (conn == nullptr || conn->closed()) {
    return;
  }
  msg::ClientReply reply;
  reply.client = client;
  reply.seq = seq;
  reply.value = std::move(value);
  reply.dropped = dropped;
  encode_scratch_.Clear();
  encode_scratch_.U8(kFrameMessage);
  msg::Encode(encode_scratch_, msg::Message{reply});
  if (flush) {
    conn->SendFrame(encode_scratch_.buffer());
  } else {
    conn->QueueFrame(encode_scratch_.buffer());
    MarkDirty(conn);
  }
}

// --- I/O tier ----------------------------------------------------------------

template <class TryRoute>
void Node::RouteWithRetry(TryRoute&& try_route) {
  // Bounded retry, never a blocking wait: a full inbox with a live worker
  // drains in microseconds once we stop hogging the core; a dead worker's
  // inbox swallows input inside the runtime. Draining outboxes between
  // attempts keeps the worker from stalling on a full *outbox* while we spin
  // on its inbox (the deadlock the mailbox discipline forbids).
  constexpr int kMaxSpins = 200000;
  for (int spin = 0;; spin++) {
    if (try_route()) {
      return;
    }
    if (DrainShardOutputs() > 0) {
      FlushDirty();
    }
    if (spin >= kMaxSpins) {
      shards_->CountDroppedInput();
      return;
    }
    std::this_thread::yield();
  }
}

void Node::RouteInput(common::ProcessId from, msg::Message* m, uint32_t shard,
                      smr::Command* cmd) {
  RouteWithRetry([&]() {
    return m != nullptr ? shards_->RouteMessage(from, *m)
                        : shards_->SubmitToShard(shard, *cmd);
  });
}

void Node::OnWorkerOutput() {
  out_bell_.Drain();
  while (true) {
    DrainShardOutputs();
    FlushDirty();
    out_bell_.Arm();
    // Arm-then-recheck: output pushed between the drain and the arm produced
    // no ring (bell was disarmed), so catch it here and go around again.
    if (!shards_->HasOutput()) {
      break;
    }
  }
}

size_t Node::DrainShardOutputs() { return shards_->DrainOutputs(*this); }

void Node::OnPeerSend(common::ProcessId to, msg::Message& m) {
  auto it = peer_conns_.find(to);
  if (it == peer_conns_.end() || it->second == nullptr || it->second->closed()) {
    return;  // peer down; engines tolerate message loss
  }
  encode_scratch_.Clear();
  encode_scratch_.Reserve(1 + msg::EncodedSize(m));
  encode_scratch_.U8(kFrameMessage);
  msg::Encode(encode_scratch_, m);
  it->second->QueueFrame(encode_scratch_.buffer());
  MarkDirty(it->second.get());
}

void Node::OnClientReply(uint64_t client, uint64_t seq, std::string&& value,
                         bool dropped) {
  // Completion bookkeeping runs whether or not a client is waiting here:
  // catch-up entries and commands submitted via a since-dead connection still
  // complete, and a reconnecting client must find their cached results.
  CompleteClient(client, seq, value, dropped);
  auto it = waiting_clients_.find(chk::CmdKey{client, seq});
  if (it == waiting_clients_.end()) {
    return;
  }
  Connection* conn = it->second;
  waiting_clients_.erase(it);
  SendReply(conn, client, seq, std::move(value), dropped, /*flush=*/false);
}

void Node::OnCatchupFrame(common::ProcessId to, std::string&& payload) {
  auto it = peer_conns_.find(to);
  if (it == peer_conns_.end() || it->second == nullptr || it->second->closed()) {
    return;  // requester vanished again; it will re-request on its next start
  }
  std::vector<uint8_t> frame;
  frame.reserve(1 + payload.size());
  frame.push_back(kFrameCatchupEntries);
  frame.insert(frame.end(), payload.begin(), payload.end());
  it->second->QueueFrame(frame);
  MarkDirty(it->second.get());
}

// --- Connection loss, reaping and re-dialing --------------------------------

void Node::NoteClosed(Connection* conn) {
  (void)conn;
  if (reap_scheduled_) {
    return;
  }
  // Defer to a zero-delay timer: a connection may notice its own death from
  // inside its read/write callbacks, and destroying it there would free the
  // object under its own stack frame.
  reap_scheduled_ = true;
  loop_.AddTimer(0, [this]() {
    reap_scheduled_ = false;
    ReapConnections();
  });
}

void Node::ForgetConn(Connection* conn) {
  for (auto it = waiting_clients_.begin(); it != waiting_clients_.end();) {
    if (it->second == conn) {
      // The command may still execute; on durable nodes its result lands in
      // the completion cache for the client's resubmission.
      it = waiting_clients_.erase(it);
    } else {
      ++it;
    }
  }
  dirty_conns_.erase(std::remove(dirty_conns_.begin(), dirty_conns_.end(), conn),
                     dirty_conns_.end());
}

void Node::ReapConnections() {
  for (auto& holder : anonymous_) {
    if (holder->closed()) {
      ForgetConn(holder.get());
      holder = nullptr;
    }
  }
  anonymous_.erase(std::remove(anonymous_.begin(), anonymous_.end(), nullptr),
                   anonymous_.end());
  for (auto it = peer_conns_.begin(); it != peer_conns_.end();) {
    if (it->second != nullptr && it->second->closed()) {
      common::ProcessId peer = it->first;
      ForgetConn(it->second.get());
      it = peer_conns_.erase(it);
      if (peer > self_) {
        // Mesh rule: this node dials higher ids; the lost lower-id peer will
        // re-dial us when it notices the loss (or restarts).
        ScheduleRedial(peer);
      }
    } else {
      ++it;
    }
  }
}

void Node::ScheduleRedial(common::ProcessId p) {
  if (dialing_.find(p) != dialing_.end() ||
      peer_conns_.find(p) != peer_conns_.end()) {
    return;
  }
  common::Duration delay = kRedialFloor;
  auto it = redial_backoff_.find(p);
  if (it != redial_backoff_.end()) {
    delay = it->second;
  }
  redial_backoff_[p] = std::min<common::Duration>(delay * 2, kRedialCap);
  loop_.AddTimer(delay, [this, p]() { DialPeer(p); });
}

void Node::DialPeer(common::ProcessId p) {
  if (dialing_.find(p) != dialing_.end() ||
      peer_conns_.find(p) != peer_conns_.end()) {
    return;  // the peer reconnected to us while we were backing off
  }
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    ScheduleRedial(p);
    return;
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(peers_[p].port);
  inet_pton(AF_INET, peers_[p].host.c_str(), &addr.sin_addr);
  int rc = connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    close(fd);
    ScheduleRedial(p);
    return;
  }
  dialing_[p] = fd;
  loop_.WatchFd(fd, EPOLLOUT, [this, p, fd](uint32_t) { OnDialReady(p, fd); });
}

void Node::OnDialReady(common::ProcessId p, int fd) {
  loop_.UnwatchFd(fd);
  dialing_.erase(p);
  int err = 0;
  socklen_t len = sizeof(err);
  if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
    close(fd);
    ScheduleRedial(p);
    return;
  }
  auto conn = std::make_unique<Connection>(this, fd);
  encode_scratch_.Clear();
  encode_scratch_.U8(kFramePeerHello);
  encode_scratch_.U32(self_);
  conn->SendFrame(encode_scratch_.buffer());
  conn->peer_id = p;
  OnPeerConnected(p, std::move(conn));
}

void Node::MarkDirty(Connection* conn) {
  if (!conn->dirty) {
    conn->dirty = true;
    dirty_conns_.push_back(conn);
  }
}

void Node::FlushDirty() {
  for (Connection* conn : dirty_conns_) {
    conn->dirty = false;
    conn->Flush();
  }
  dirty_conns_.clear();
}

void Node::Stop() { loop_.Stop(); }

// ---------------------------------------------------------------------------

Client::Client(const std::string& host, uint16_t port)
    : Client(host, port, Options()) {}

Client::Client(const std::string& host, uint16_t port, Options opts)
    : host_(host), port_(port), opts_(opts) {}

Client::~Client() { Disconnect(); }

void Client::Disconnect() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  in_.clear();
}

bool Client::Connect() {
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return false;
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  inet_pton(AF_INET, host_.c_str(), &addr.sin_addr);
  if (connect(fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd_);
    fd_ = -1;
    return false;
  }
  SetNoDelay(fd_);
  // Client hello frame.
  codec::Writer w;
  w.U8(kFrameClientHello);
  uint32_t len = static_cast<uint32_t>(w.size());
  std::vector<uint8_t> out(4);
  std::memcpy(out.data(), &len, 4);
  out.insert(out.end(), w.buffer().begin(), w.buffer().end());
  return send(fd_, out.data(), out.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(out.size());
}

bool Client::Send(const smr::Command& cmd) {
  if (fd_ < 0) {
    return false;
  }
  msg::ClientRequest req;
  req.cmd = cmd;
  codec::Writer w;
  msg::Message wrapped{std::move(req)};
  w.Reserve(1 + msg::EncodedSize(wrapped));
  w.U8(kFrameMessage);
  msg::Encode(w, wrapped);
  uint32_t len = static_cast<uint32_t>(w.size());
  std::vector<uint8_t> out(4);
  std::memcpy(out.data(), &len, 4);
  out.insert(out.end(), w.buffer().begin(), w.buffer().end());
  return send(fd_, out.data(), out.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(out.size());
}

bool Client::RecvReply(uint64_t* seq_out, std::string* result_out) {
  if (fd_ < 0) {
    return false;
  }
  while (true) {
    if (in_.size() >= 4) {
      uint32_t frame_len;
      std::memcpy(&frame_len, in_.data(), 4);
      if (in_.size() - 4 >= frame_len) {
        codec::Reader r(in_.data() + 4, frame_len);
        if (r.U8() != kFrameMessage) {
          return false;
        }
        msg::Message m;
        if (!msg::Decode(r, m)) {
          return false;
        }
        in_.erase(in_.begin(), in_.begin() + 4 + frame_len);
        auto* reply = msg::get_if<msg::ClientReply>(&m);
        if (reply == nullptr) {
          return false;
        }
        if (seq_out != nullptr) {
          *seq_out = reply->seq;
        }
        if (result_out != nullptr) {
          *result_out = reply->dropped ? "<dropped>" : reply->value;
        }
        return true;
      }
    }
    uint8_t buf[4096];
    ssize_t n = read(fd_, buf, sizeof(buf));
    if (n <= 0) {
      return false;
    }
    in_.insert(in_.end(), buf, buf + n);
  }
}

bool Client::Call(const smr::Command& cmd, std::string* result_out) {
  for (int attempt = 0;; attempt++) {
    if (attempt > 0) {
      // The socket died mid-request (server killed/restarted). Reconnect and
      // resubmit the same (client, seq): durable nodes deduplicate, answering
      // a completed command from their cache instead of re-executing it.
      Disconnect();
      usleep(static_cast<useconds_t>(opts_.retry_backoff));
    }
    bool ok = fd_ >= 0 || Connect();
    if (ok) {
      ok = Send(cmd);
    }
    if (ok) {
      // With one outstanding request the next reply is ours; skip stale
      // frames (e.g. a pre-disconnect duplicate) defensively all the same.
      uint64_t seq = 0;
      ok = false;
      while (RecvReply(&seq, result_out)) {
        if (seq == cmd.seq) {
          return true;
        }
      }
    }
    if (attempt >= opts_.max_retries) {
      gave_up_++;
      return false;
    }
  }
}

}  // namespace rt
