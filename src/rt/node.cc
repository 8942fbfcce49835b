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

constexpr common::Duration kRedialFloor = 50 * common::kMillisecond;
constexpr common::Duration kRedialCap = common::kSecond;

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// One whole frame: the length, then w's payload.
std::vector<uint8_t> Framed(const codec::Writer& w) {
  auto len = static_cast<uint32_t>(w.size());
  std::vector<uint8_t> out(4);
  std::memcpy(out.data(), &len, 4);
  out.insert(out.end(), w.buffer().begin(), w.buffer().end());
  return out;
}

}  // namespace

Node::Node(common::ProcessId id, std::vector<PeerAddress> peers,
           smr::Deployment* deployment)
    : self_(id), peers_(std::move(peers)), deployment_(deployment) {
  CHECK_LT(self_, peers_.size());
  CHECK(deployment_ != nullptr);
  shards_ = std::make_unique<ShardRuntime>(deployment_);
  links_.resize(peers_.size() * shards_->partitions());
  Doorbell& bell = shards_->output_bell();
  loop_.WatchFd(bell.fd(), EPOLLIN, [this](uint32_t) { OnWorkerOutput(); });
  bell.Arm();
}

Node::~Node() {
  if (listen_fd_ >= 0) {
    close(listen_fd_);
  }
  for (PeerLink& l : links_) {
    if (l.dial_fd >= 0) {
      close(l.dial_fd);
    }
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
  CHECK_GE(fcntl(listen_fd_, F_SETFL, fcntl(listen_fd_, F_GETFL, 0) | O_NONBLOCK), 0);
  loop_.WatchFd(listen_fd_, EPOLLIN, [this](uint32_t) { AcceptReady(); });
  return true;
}

void Node::AcceptReady() {
  while (true) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      break;
    }
    conns_.push_back(std::make_unique<Connection>(fd));
    Connection* conn = conns_.back().get();
    loop_.WatchFd(fd, EPOLLIN, [this, conn](uint32_t ev) { OnConnReady(conn, ev); });
  }
}

void Node::Run() {
  CHECK_GE(listen_fd_, 0);
  shards_->Start(self_, static_cast<uint32_t>(peers_.size()));
  // Dial every shard of every higher-id peer at once, through the re-dial
  // path: non-blocking and retried with backoff until the peer listens, so
  // Stop() ends Run() even while a peer never comes up.
  for (common::ProcessId p = self_ + 1; p < peers_.size(); p++) {
    for (uint32_t s = 0; s < shards_->partitions(); s++) {
      DialPeer(p, s);
    }
  }
  loop_.Run();
  // Join every shard worker before returning control to the caller (who may
  // destroy the deployment), then push out the replies the workers produced
  // between the last drain and the join.
  shards_->Stop();
  shards_->DrainOutputs(*this);
  FlushDirty();
}

void Node::OnConnReady(Connection* conn, uint32_t events) {
  if (events & EPOLLOUT) {
    MarkDirty(conn);
  }
  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) && !conn->closed() &&
      !conn->ReadAll([this, conn](const uint8_t* data, size_t size) {
        return OnFrame(conn, data, size);
      })) {
    NoteClosed();
  }
  FlushDirty();  // rejections and cached replies this frame batch produced
}

bool Node::OnFrame(Connection* conn, const uint8_t* data, size_t size) {
  codec::Reader r(data, size);
  uint8_t kind = r.U8();
  if (kind == kFrameClientHello) {
    conn->is_client = true;
  } else if (kind == kFrameMessage && conn->is_client) {
    OnClientMessage(conn, r);
  } else if (kind == kFramePeerHello && !conn->is_client) {
    common::ProcessId peer = r.U32();
    uint64_t shard = r.Varint();
    if (!r.ok() || peer >= peers_.size() || peer == self_ ||
        shard >= shards_->partitions()) {
      return true;  // ignored, as any malformed frame
    }
    loop_.UnwatchFd(conn->fd());
    std::vector<uint8_t> unread;
    int fd = conn->Release(&unread);
    NoteClosed();  // the husk is reaped
    HandOff(static_cast<uint32_t>(shard), peer, fd, std::move(unread));
    return false;
  }
  return true;
}

void Node::HandOff(uint32_t shard, common::ProcessId peer, int fd,
                   std::vector<uint8_t>&& unread) {
  ShardInput in;
  in.kind = ShardInput::Kind::kPeerConn;
  in.from = peer;
  in.fd = fd;
  in.unread = std::move(unread);
  if (!RouteWithRetry(shard, in)) {
    close(fd);
    OnPeerLost(shard, peer);  // as if the worker had lost it at once
  }
}

void Node::OnClientMessage(Connection* conn, codec::Reader& r) {
  msg::Message m;
  if (!msg::Decode(r, m)) {
    return;
  }
  auto* req = msg::get_if<msg::ClientRequest>(&m);
  if (req == nullptr) {
    return;
  }
  // kBatch is an internal composite (client 0): one injected by an
  // untrusted client would crash the cluster at the deployment's unpack
  // CHECK once it replicated, so it is rejected at the door. Everything else
  // must route through the deployment's Partitioner to one shard's inbox;
  // unroutable input (at P>1, noOps and key sets spanning partitions) is
  // rejected as dropped instead of CHECK-crashing the replica.
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
  // A worker whose engine has not started yet holds the command until it does.
  ShardInput in;
  in.kind = ShardInput::Kind::kSubmit;
  in.cmd = std::move(req->cmd);
  RouteWithRetry(shard, in);
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
                     std::string&& value, bool dropped) {
  if (conn == nullptr || conn->closed()) {
    return;
  }
  msg::ClientReply reply;
  reply.client = client;
  reply.seq = seq;
  reply.value = std::move(value);
  reply.dropped = dropped;
  msg::Encode(conn->BeginFrame(kFrameMessage), msg::Message{std::move(reply)});
  conn->EndFrame();
  MarkDirty(conn);
}

// --- I/O tier ----------------------------------------------------------------

bool Node::RouteWithRetry(uint32_t shard, ShardInput& in) {
  // Bounded retry, never a blocking wait: a full inbox with a live worker
  // drains in microseconds once we stop hogging the core; a dead worker's
  // inbox swallows input inside the runtime. Draining outboxes between
  // attempts keeps the worker from stalling on a full *outbox* while we spin
  // on its inbox (the deadlock the mailbox discipline forbids). Only client
  // submits and socket handoffs cross here: protocol messages never do.
  constexpr int kMaxSpins = 200000;
  for (int spin = 0;; spin++) {
    if (shards_->Route(shard, in)) {
      return true;
    }
    if (shards_->DrainOutputs(*this) > 0) {
      FlushDirty();
    }
    if (spin >= kMaxSpins) {
      shards_->CountDroppedInput();
      return false;
    }
    std::this_thread::yield();
  }
}

void Node::OnWorkerOutput() {
  Doorbell& bell = shards_->output_bell();
  bell.Drain();
  while (true) {
    shards_->DrainOutputs(*this);
    FlushDirty();
    bell.Arm();
    // Arm-then-recheck: output pushed between the drain and the arm produced
    // no ring (bell was disarmed), so catch it here and go around again.
    if (!shards_->HasOutput()) {
      break;
    }
  }
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
  SendReply(conn, client, seq, std::move(value), dropped);
}

void Node::OnPeerLost(uint32_t shard, common::ProcessId peer) {
  link(peer, shard).up = false;
  if (peer > self_) {
    // Mesh rule: this node dials higher ids; a lost lower-id peer re-dials us
    // when it notices the loss (or restarts).
    ScheduleRedial(peer, shard);
  }
}

// --- Connection loss, reaping and re-dialing --------------------------------

void Node::NoteClosed() {
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

void Node::ReapConnections() {
  for (auto& holder : conns_) {
    Connection* conn = holder.get();
    if (!conn->closed()) {
      continue;
    }
    for (auto it = waiting_clients_.begin(); it != waiting_clients_.end();) {
      // The command may still execute; on durable nodes its result lands in
      // the completion cache for the client's resubmission.
      it = it->second == conn ? waiting_clients_.erase(it) : std::next(it);
    }
    dirty_conns_.erase(std::remove(dirty_conns_.begin(), dirty_conns_.end(), conn),
                       dirty_conns_.end());
    if (conn->fd() >= 0) {
      loop_.UnwatchFd(conn->fd());
    }
    holder = nullptr;
  }
  conns_.erase(std::remove(conns_.begin(), conns_.end(), nullptr), conns_.end());
}

void Node::ScheduleRedial(common::ProcessId p, uint32_t shard) {
  PeerLink& l = link(p, shard);
  common::Duration delay = std::max(l.backoff, kRedialFloor);
  l.backoff = std::min<common::Duration>(delay * 2, kRedialCap);
  loop_.AddTimer(delay, [this, p, shard]() { DialPeer(p, shard); });
}

void Node::DialPeer(common::ProcessId p, uint32_t shard) {
  PeerLink& l = link(p, shard);
  if (l.dial_fd >= 0 || l.up) {
    return;
  }
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    ScheduleRedial(p, shard);
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
    ScheduleRedial(p, shard);
    return;
  }
  l.dial_fd = fd;
  loop_.WatchFd(fd, EPOLLOUT,
                [this, p, shard, fd](uint32_t) { OnDialReady(p, shard, fd); });
}

void Node::OnDialReady(common::ProcessId p, uint32_t shard, int fd) {
  loop_.UnwatchFd(fd);
  PeerLink& l = link(p, shard);
  l.dial_fd = -1;
  // The hello is the socket's first write, so the empty send buffer takes
  // it whole; a short write counts as a failed dial.
  codec::Writer hello;
  hello.U8(kFramePeerHello);
  hello.U32(self_);
  hello.Varint(shard);
  std::vector<uint8_t> frame = Framed(hello);
  int err = 0;
  socklen_t err_len = sizeof(err);
  if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 || err != 0 ||
      send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(frame.size())) {
    close(fd);
    ScheduleRedial(p, shard);
    return;
  }
  l.up = true;
  l.backoff = 0;
  HandOff(shard, p, fd, {});
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
    if (conn->closed()) {
      continue;
    }
    if (!conn->Flush()) {
      NoteClosed();
    } else {
      loop_.ModifyFd(conn->fd(), conn->wants_write() ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
    }
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
  std::vector<uint8_t> out = Framed(w);
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
  std::vector<uint8_t> out = Framed(w);
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
