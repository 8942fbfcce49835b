#include "src/rt/node.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "src/codec/codec.h"
#include "src/common/check.h"

namespace rt {

namespace {

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
    : self_(id), peers_(std::move(peers)) {
  CHECK_LT(self_, peers_.size());
  CHECK(deployment != nullptr);
  shards_ = std::make_unique<ShardRuntime>(deployment);
  epfd_ = epoll_create1(EPOLL_CLOEXEC);
  CHECK_GE(epfd_, 0);
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  CHECK_GE(wake_fd_, 0);
  // Never read: once written it stays readable until the loop sees stop_.
  struct epoll_event ev = {};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;
  CHECK_EQ(epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_fd_, &ev), 0);
}

Node::~Node() {
  for (int fd : {listen_fd_, wake_fd_, epfd_}) {
    if (fd >= 0) {
      close(fd);
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
    close(listen_fd_);  // a caller may retry
    listen_fd_ = -1;
    return false;
  }
  if (peers_[self_].port == 0) {
    socklen_t len = sizeof(addr);
    getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr), &len);
    peers_[self_].port = ntohs(addr.sin_port);
  }
  CHECK_EQ(listen(listen_fd_, 64), 0);
  CHECK_GE(fcntl(listen_fd_, F_SETFL, fcntl(listen_fd_, F_GETFL, 0) | O_NONBLOCK), 0);
  struct epoll_event ev = {};
  ev.events = EPOLLIN;
  ev.data.ptr = &listen_fd_;
  CHECK_EQ(epoll_ctl(epfd_, EPOLL_CTL_ADD, listen_fd_, &ev), 0);
  return true;
}

void Node::Run() {
  CHECK_GE(listen_fd_, 0);
  shards_->Start(self_, peers_);
  struct epoll_event events[64];
  while (!stop_.load(std::memory_order_acquire)) {
    int nfds = epoll_wait(epfd_, events, 64, -1);
    for (int i = 0; i < nfds; i++) {
      void* tag = events[i].data.ptr;
      if (tag == &listen_fd_) {
        AcceptReady();
      } else if (tag != nullptr) {  // nullptr: the stop eventfd
        ServeHello(static_cast<Connection*>(tag));
      }
    }
  }
  // Join every shard worker before returning control to the caller, who may
  // destroy the deployment.
  shards_->Stop();
}

void Node::Stop() {
  stop_.store(true, std::memory_order_release);
  uint64_t one = 1;
  ssize_t rc = write(wake_fd_, &one, sizeof(one));
  (void)rc;
}

void Node::AcceptReady() {
  while (true) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      break;
    }
    conns_.push_back(std::make_unique<Connection>(fd));
    struct epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.ptr = conns_.back().get();
    CHECK_EQ(epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev), 0);
  }
}

void Node::ServeHello(Connection* conn) {
  uint8_t hello = 0;  // the kind of the hello read; 0: none yet
  common::ProcessId peer = 0;
  uint64_t shard = 0;
  bool open = conn->ReadAll([&](const uint8_t* data, size_t size) {
    codec::Reader r(data, size);
    uint8_t kind = r.U8();
    if (kind == kFramePeerHello) {
      peer = r.U32();
      shard = r.Varint();
      if (!r.ok() || peer >= peers_.size() || peer == self_ ||
          shard >= shards_->partitions()) {
        return true;  // ignored, as any malformed frame
      }
    } else if (kind != kFrameClientHello) {
      return true;  // nothing but a hello is served before one
    }
    hello = kind;
    return false;  // the rest of the input goes along with the socket
  });
  if (hello == 0 && open) {
    return;
  }
  epoll_ctl(epfd_, EPOLL_CTL_DEL, conn->fd(), nullptr);
  if (hello != 0) {
    std::vector<uint8_t> unread;
    int fd = conn->Release(&unread);
    if (hello == kFrameClientHello) {
      shards_->AdoptClient(fd, std::move(unread));
    } else {
      shards_->AdoptPeer(static_cast<uint32_t>(shard), peer, fd, std::move(unread));
    }
  }
  conns_.erase(std::find_if(conns_.begin(), conns_.end(),
                            [conn](const auto& c) { return c.get() == conn; }));
}

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
