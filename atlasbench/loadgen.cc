#include "loadgen.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "src/msg/message.h"

namespace atlasbench {

namespace {

// Frame kinds of the node wire format (src/rt/node.h): every frame is a u32
// little-endian length, then the kind byte, then the body.
constexpr uint8_t kFrameMessage = 0;
constexpr uint8_t kFrameClientHello = 2;

uint64_t OpKey(uint64_t client, uint64_t seq) { return (client << 32) | seq; }

void AppendFrame(std::vector<uint8_t>& out, const std::vector<uint8_t>& body) {
  uint32_t len = static_cast<uint32_t>(body.size());
  uint8_t header[4];
  std::memcpy(header, &len, 4);
  out.insert(out.end(), header, header + 4);
  out.insert(out.end(), body.begin(), body.end());
}

}  // namespace

int64_t NowNs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

LoadGen::LoadGen(const WorkloadSpec& spec, wl::Workload* gen, uint64_t seed)
    : spec_(spec),
      gen_(gen),
      arrivals_(StreamSeed(seed, 0)),
      conns_(kConnections),
      clients_(static_cast<size_t>(kConnections) * kOpenClientsPerConn),
      value_(kValueSize, 'x') {
  for (size_t i = 0; i < clients_.size(); i++) {
    clients_[i].rng = common::Rng(StreamSeed(seed, i + 1));
  }
}

LoadGen::~LoadGen() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) {
      close(c.fd);
    }
  }
}

bool LoadGen::Connect(const std::vector<uint16_t>& ports) {
  for (uint32_t c = 0; c < kConnections; c++) {
    int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      return false;
    }
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(ports[c]);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd);
      return false;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    conns_[c].fd = fd;
    AppendFrame(conns_[c].out, {kFrameClientHello});
  }
  FlushAll();
  return true;
}

void LoadGen::StartSegment(Phase phase, size_t index) {
  auto p = static_cast<size_t>(phase);
  lat_[p].resize(std::max(lat_[p].size(), index + 1));
  sent_[p].resize(std::max(sent_[p].size(), index + 1), 0);
}

void LoadGen::Send(uint64_t client, int64_t t_ns, Phase phase, uint32_t segment) {
  attempted_++;
  sent_[static_cast<size_t>(phase)][segment]++;
  ClientState& cs = clients_[client - 1];
  uint64_t seq = cs.next_seq++;
  smr::Command cmd = gen_->Next(client, seq, cs.rng);
  Conn& c = conns_[HomeReplica(client)];
  if (c.fd < 0) {
    return;  // dead connection: attempted, never answered
  }
  pending_.emplace(OpKey(client, seq),
                   OpRecord{t_ns, segment, phase, cmd.op == smr::Op::kGet});
  msg::ClientRequest req;
  req.cmd = std::move(cmd);
  msg::Message m{std::move(req)};
  scratch_.Clear();
  scratch_.U8(kFrameMessage);
  msg::Encode(scratch_, m);
  AppendFrame(c.out, scratch_.buffer());
}

void LoadGen::KillConn(uint32_t c) {
  if (conns_[c].fd >= 0) {
    close(conns_[c].fd);
    conns_[c].fd = -1;
    io_errors_++;
  }
}

void LoadGen::FlushAll() {
  for (uint32_t i = 0; i < kConnections; i++) {
    Conn& c = conns_[i];
    while (c.fd >= 0 && c.out_off < c.out.size()) {
      ssize_t n = send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        c.out_off += static_cast<size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        KillConn(i);  // EPIPE, ECONNRESET, ...
      }
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
  }
}

void LoadGen::PollUntil(int64_t deadline_ns) {
  struct pollfd fds[kConnections];
  uint32_t idx[kConnections];
  nfds_t n = 0;
  for (uint32_t i = 0; i < kConnections; i++) {
    if (conns_[i].fd < 0) {
      continue;
    }
    fds[n].fd = conns_[i].fd;
    fds[n].events = static_cast<short>(
        POLLIN | (conns_[i].out_off < conns_[i].out.size() ? POLLOUT : 0));
    fds[n].revents = 0;
    idx[n] = i;
    n++;
  }
  int64_t wait = std::max<int64_t>(0, deadline_ns - NowNs());
  struct timespec ts;
  ts.tv_sec = wait / 1000000000;
  ts.tv_nsec = wait % 1000000000;
  int rc = ppoll(n > 0 ? fds : nullptr, n, &ts, nullptr);
  for (nfds_t k = 0; rc > 0 && k < n; k++) {
    if (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) {
      ReadConn(idx[k]);
    }
  }
  FlushAll();
}

void LoadGen::ReadConn(uint32_t ci) {
  Conn& c = conns_[ci];
  uint8_t buf[64 * 1024];
  while (c.fd >= 0) {
    ssize_t n = recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      c.in.insert(c.in.end(), buf, buf + n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    KillConn(ci);  // EOF or ECONNRESET; buffered replies are still parsed below
  }
  size_t off = 0;
  while (c.in.size() - off >= 4) {
    uint32_t len;
    std::memcpy(&len, c.in.data() + off, 4);
    if (c.in.size() - off - 4 < len) {
      break;
    }
    codec::Reader r(c.in.data() + off + 4, len);
    off += 4 + len;
    msg::Message m;
    const msg::ClientReply* reply = nullptr;
    if (r.U8() == kFrameMessage && msg::Decode(r, m)) {
      reply = msg::get_if<msg::ClientReply>(&m);
    }
    if (reply == nullptr) {
      unknown_replies_++;  // malformed or unexpected frame
      continue;
    }
    OnReply(reply->client, reply->seq, reply->value, reply->dropped);
  }
  c.in.erase(c.in.begin(), c.in.begin() + static_cast<ptrdiff_t>(off));
}

void LoadGen::OnReply(uint64_t client, uint64_t seq, const std::string& value,
                      bool dropped) {
  auto it = pending_.find(OpKey(client, seq));
  if (it == pending_.end()) {
    unknown_replies_++;  // a second reply, or one nobody asked for
    return;
  }
  OpRecord rec = it->second;
  pending_.erase(it);
  answered_++;
  if (dropped) {
    dropped_++;
  } else if (rec.is_get ? !(value.empty() || value == value_) : !value.empty()) {
    bad_values_++;  // a put answers "", a get the empty or the only value ever put
  }
  int64_t now = NowNs();
  uint32_t segment = rec.segment;
  if (rec.phase == Phase::kClosed) {
    int64_t since = (now - closed_start_ns_) / closed_seg_ns_;
    segment = static_cast<uint32_t>(
        std::min<int64_t>(since, static_cast<int64_t>(closed_completed_.size()) - 1));
    if (closed_running_ && since < static_cast<int64_t>(closed_completed_.size())) {
      closed_completed_[segment]++;
      Send(client, now, Phase::kClosed, segment);
    }
  }
  lat_[static_cast<size_t>(rec.phase)][segment].push_back(now - rec.t_ns);
}

bool LoadGen::Probe(double timeout_sec) {
  int64_t deadline = NowNs() + static_cast<int64_t>(timeout_sec * 1e9);
  StartSegment(Phase::kSetup, 0);
  Send(ClientBase(0), NowNs(), Phase::kSetup, 0);
  FlushAll();
  while (!pending_.empty() && NowNs() < deadline && conns_[0].fd >= 0) {
    PollUntil(deadline);
  }
  return pending_.empty() && answered_ > dropped_;
}

void LoadGen::RunOpen(Phase phase, double seconds) {
  const double mean_gap_ns = 1e9 / spec_.open_rate;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  double next_due = static_cast<double>(start) + arrivals_.Exponential(mean_gap_ns);
  const auto segment = static_cast<uint32_t>(lat_[static_cast<size_t>(phase)].size());
  StartSegment(phase, segment);
  lat_[static_cast<size_t>(phase)][segment].reserve(
      static_cast<size_t>(spec_.open_rate * seconds * 1.1));
  while (true) {
    int64_t now = NowNs();
    if (now >= end) {
      break;
    }
    while (next_due <= static_cast<double>(now) && pending_.size() < kOpenMaxOutstanding) {
      int64_t due = static_cast<int64_t>(next_due);
      Send(OpenLoopClient(next_open_++), due, phase, segment);
      if (phase == Phase::kOpen) {
        lag_.push_back(now - due);
      }
      next_due += arrivals_.Exponential(mean_gap_ns);
    }
    FlushAll();
    if (next_due <= static_cast<double>(now)) {
      held_++;
      PollUntil(end);  // at the cap: a reply wakes us
    } else {
      PollUntil(std::min(static_cast<int64_t>(next_due), end));
    }
  }
}

void LoadGen::RunClosed(uint32_t segments, double seg_seconds) {
  closed_start_ns_ = NowNs();
  closed_seg_ns_ = static_cast<int64_t>(seg_seconds * 1e9);
  closed_completed_.assign(segments, 0);
  for (uint32_t s = 0; s < segments; s++) {
    StartSegment(Phase::kClosed, s);
  }
  const int64_t end = closed_start_ns_ + segments * closed_seg_ns_;
  closed_running_ = true;
  for (uint32_t c = 0; c < kConnections; c++) {
    for (uint32_t i = 0; i < spec_.closed_window; i++) {
      Send(ClientBase(c) + i, closed_start_ns_, Phase::kClosed, 0);
    }
  }
  FlushAll();
  while (NowNs() < end) {
    PollUntil(end);
  }
  closed_running_ = false;
}

std::vector<int> LoadGen::fds() const {
  std::vector<int> out;
  for (const Conn& c : conns_) {
    if (c.fd >= 0) {
      out.push_back(c.fd);
    }
  }
  return out;
}

bool LoadGen::Drain(double max_sec) {
  int64_t deadline = NowNs() + static_cast<int64_t>(max_sec * 1e9);
  auto any_live = [this]() {
    return std::any_of(conns_.begin(), conns_.end(),
                       [](const Conn& c) { return c.fd >= 0; });
  };
  while (!pending_.empty() && NowNs() < deadline && any_live()) {
    PollUntil(deadline);
  }
  return pending_.empty();
}

}  // namespace atlasbench
