#include "src/rt/shard_runtime.h"

#include <arpa/inet.h>
#include <sys/epoll.h>
#include <time.h>

#include <algorithm>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/chk/checker.h"
#include "src/codec/codec.h"
#include "src/common/check.h"
#include "src/smr/batcher.h"

namespace rt {

namespace {

common::Time NowUs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<common::Time>(ts.tv_sec) * common::kSecond + ts.tv_nsec / 1000;
}

// epoll tags: a peer's socket is tagged with the peer's id, the doorbell with
// kBellTag, and the rest with a marker bit over an id.
constexpr uint64_t kBellTag = UINT64_MAX;
constexpr uint64_t kDialTag = 1ull << 62;    // | peer id: a dial in progress
constexpr uint64_t kClientTag = 1ull << 63;  // | client connection id

constexpr common::Duration kRedialFloor = 50 * common::kMillisecond;
constexpr common::Duration kRedialCap = common::kSecond;

// Items a worker takes from one mailbox per loop pass, so a flooded edge
// cannot starve timers or sockets.
constexpr int kBurst = 256;

}  // namespace

// One shard's worker: owns the shard engine, its timer heap, its submission
// batcher, its peer and client connections and the mailboxes into it. It is
// also the engine's smr::Context — sends go straight into peer connections,
// completions go to the client connections waiting on them, timers land in
// the worker-local heap (engines only call the Context from within their own
// callbacks, which all run on this thread).
class ShardRuntime::Worker final : public smr::Context {
 public:
  Worker(ShardRuntime* owner, uint32_t shard)
      : inbox_(kMailboxCapacity),
        owner_(owner),
        shard_(shard),
        durable_(owner_->deployment_->durable()),
        batcher_(1, owner_->deployment_->batch_window(),
                 owner_->deployment_->options().batch_max,
                 [this](uint32_t, smr::Command cmd) { engine().Submit(std::move(cmd)); }),
        outstanding_(owner_->partitions_, 0) {
    for (uint32_t s = 0; s < owner_->partitions_; s++) {
      bool edge = s != shard_;
      submits_in_.push_back(
          edge ? std::make_unique<Mailbox<ForwardedSubmit>>(kMailboxCapacity) : nullptr);
      replies_in_.push_back(
          edge ? std::make_unique<Mailbox<ForwardedReply>>(kMailboxCapacity) : nullptr);
    }
  }

  ~Worker() { CloseInbox(); }  // sockets that arrived after the thread ended

  // Sockets from the I/O thread.
  Mailbox<ShardInput> inbox_;
  // From the other workers, indexed by sender: requests their clients sent
  // for this shard, and the answers to this worker's forwards.
  std::vector<std::unique_ptr<Mailbox<ForwardedSubmit>>> submits_in_;
  std::vector<std::unique_ptr<Mailbox<ForwardedReply>>> replies_in_;
  Doorbell bell_;  // rung by every producer of those mailboxes

  bool stopping() const { return stop_.load(std::memory_order_acquire); }

  void Spawn() {
    thread_ = std::thread([this]() { ThreadMain(); });
  }

  void RequestStop() {
    stop_.store(true, std::memory_order_release);
    bell_.Ring();
  }

  void Join() {
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  // Hop ledger, written by this worker only.
  std::atomic<uint64_t> forwarded{0};
  std::atomic<uint64_t> returned{0};
  std::atomic<uint64_t> bell_writes{0};
  std::atomic<uint64_t> parks{0};

  // smr::Context (worker thread only):
  void Send(common::ProcessId to, msg::Message m) override {
    Connection* c = to < peers_.size() ? peers_[to].get() : nullptr;
    if (c == nullptr) {
      return;  // peer down; engines tolerate message loss
    }
    m.shard = shard_;
    msg::Encode(c->BeginFrame(kFrameMessage), m);
    c->EndFrame();
    MarkDirty(c);
  }

  common::Time Now() const override { return NowUs(); }

  void SetTimer(common::Duration delay, uint64_t token) override {
    PushTimer(Now() + delay, token, TimerKind::kEngine);
  }

  // Applies the command to the shard's store inline, on this thread, in the
  // engine's emission order, before the worker takes its next input.
  void Executed(const common::Dot& dot, const smr::Command& cmd) override {
    owner_->deployment_->ApplyExecutedShard(
        shard_, dot, cmd, exec_scratch_,
        [this](uint32_t, const smr::Command& sub, std::string&& result) {
          if (!sub.is_noop()) {
            owner_->applied_ops_.fetch_add(1, std::memory_order_release);
          }
          Complete(sub, std::move(result), /*dropped=*/false);
        });
  }

  void Dropped(const common::Dot& /*dot*/, const smr::Command& original) override {
    owner_->deployment_->ForEachDropped(original, [this](const smr::Command& sub) {
      Complete(sub, std::string(), /*dropped=*/true);
    });
  }

 private:
  enum class TimerKind : uint8_t { kEngine, kFlush, kRedial };

  // Worker-local one-shot timer heap: a binary min-heap of (deadline, token).
  // The token is the engine's, the batcher window's generation, or the peer
  // to redial.
  struct TimerEntry {
    common::Time deadline;
    uint64_t seq;  // insertion tiebreak: equal deadlines fire in set order
    uint64_t token;
    TimerKind kind;
    bool operator>(const TimerEntry& o) const {
      if (deadline != o.deadline) {
        return deadline > o.deadline;
      }
      return seq > o.seq;
    }
  };

  // Where a client command's answer goes: a home worker (this one for its
  // own clients) and its id of the client connection.
  struct Origin {
    uint32_t home;
    uint64_t conn;
  };

  smr::Engine& engine() { return owner_->deployment_->shard_engine(shard_); }
  Worker& worker(uint32_t s) { return *owner_->workers_[s]; }

  void PushTimer(common::Time deadline, uint64_t token, TimerKind kind) {
    timers_.push_back(TimerEntry{deadline, timer_seq_++, token, kind});
    std::push_heap(timers_.begin(), timers_.end(), std::greater<TimerEntry>());
  }

  void Wake(Worker& w) {
    if (w.bell_.Ring()) {
      Bump(bell_writes);
    }
  }

  // --- Client commands, owner side ------------------------------------------

  // Takes a client command for this shard, homed at worker `home`.
  void Accept(smr::Command&& cmd, uint32_t home, uint64_t conn) {
    chk::CmdKey key{cmd.client, cmd.seq};
    if (durable_) {
      // Idempotent resubmission: a client that reconnected after its socket
      // died re-sends its last command. If it already completed, answer from
      // the cache instead of re-executing.
      auto done = client_done_.find(cmd.client);
      if (done != client_done_.end() && cmd.seq <= done->second.first) {
        Answer(Origin{home, conn}, cmd.client, cmd.seq,
               cmd.seq == done->second.first ? std::string(done->second.second)
                                             : std::string(),
               /*dropped=*/false);
        return;
      }
    }
    // A durable node answers a resubmission of a running command along with
    // the running command.
    bool running = durable_ && origins_.count(key) > 0;
    origins_.emplace(key, Origin{home, conn});
    if (!running) {
      Submit(std::move(cmd));
    }
  }

  // A command of this shard completed: durable nodes cache it for client
  // resubmits, and every connection waiting on it gets the answer (none if it
  // was submitted at another replica).
  void Complete(const smr::Command& sub, std::string&& value, bool dropped) {
    if (sub.client == 0) {
      return;  // internal command (noOp); no client waits on it
    }
    if (durable_ && !dropped) {  // a drop is not cached: the client may resubmit it
      auto& done = client_done_[sub.client];
      if (sub.seq >= done.first) {
        done.first = sub.seq;
        done.second = value;
      }
    }
    auto range = origins_.equal_range(chk::CmdKey{sub.client, sub.seq});
    for (auto it = range.first; it != range.second;) {
      Origin o = it->second;
      bool last = ++it == range.second;
      Answer(o, sub.client, sub.seq, last ? std::move(value) : std::string(value),
             dropped);
    }
    origins_.erase(range.first, range.second);
  }

  // Answers one accepted command: straight to the connection if its home is
  // this worker, otherwise over the edge back to the home. That push cannot
  // fail: the home has at most kMailboxCapacity forwards outstanding here,
  // and each gets exactly one answer.
  void Answer(const Origin& o, uint64_t client, uint64_t seq, std::string&& value,
              bool dropped) {
    msg::ClientReply& r = reply_out_.reply;
    r.client = client;
    r.seq = seq;
    r.value = std::move(value);
    r.dropped = dropped;
    if (o.home == shard_) {
      Deliver(o.conn, r);
      return;
    }
    reply_out_.conn = o.conn;
    Worker& home = worker(o.home);
    CHECK(home.replies_in_[shard_]->TryPush(reply_out_));
    Bump(returned);
    Wake(home);
  }

  // --- Client connections, home side ------------------------------------------

  // Writes a reply to client connection `conn`, unless it has closed since.
  void Deliver(uint64_t conn, msg::ClientReply& r) {
    auto it = clients_.find(conn);
    if (it == clients_.end()) {
      return;
    }
    Connection* c = it->second.get();
    msg::Encode(c->BeginFrame(kFrameMessage), msg::Message{std::move(r)});
    c->EndFrame();
    MarkDirty(c);
  }

  // One frame from a client homed here; false stops reading (see Pause).
  bool OnClientFrame(uint64_t conn, const uint8_t* data, size_t size) {
    codec::Reader r(data, size);
    if (r.U8() != kFrameMessage || !msg::Decode(r, msg_)) {
      return true;
    }
    auto* req = msg::get_if<msg::ClientRequest>(&msg_);
    if (req == nullptr) {
      return true;
    }
    smr::Command& cmd = req->cmd;
    // kBatch is an internal composite (client 0): one injected by an
    // untrusted client would crash the cluster at the deployment's unpack
    // CHECK once it replicated, so it is rejected at the door. Everything
    // else must route through the deployment's Partitioner to one shard;
    // unroutable input (at P>1, noOps and key sets spanning partitions) is
    // rejected as dropped instead of CHECK-crashing the replica.
    uint32_t shard = 0;
    if (cmd.is_batch() ||
        !owner_->deployment_->partitioner().SingleShard(cmd, &shard)) {
      msg::ClientReply& rej = reply_out_.reply;
      rej.client = cmd.client;
      rej.seq = cmd.seq;
      rej.value.clear();
      rej.dropped = true;
      Deliver(conn, rej);
      return true;
    }
    if (shard == shard_) {
      Accept(std::move(cmd), shard_, conn);
      return true;
    }
    Worker& w = worker(shard);
    if (w.stopping()) {
      return true;  // a dead shard loses its input, as a crashed replica would
    }
    submit_out_.cmd = std::move(cmd);
    submit_out_.conn = conn;
    CHECK(w.submits_in_[shard_]->TryPush(submit_out_));  // bounded by the cap
    Bump(forwarded);
    Wake(w);
    if (++outstanding_[shard] == kMailboxCapacity) {
      Pause();
    }
    return !paused_;
  }

  void AdoptClient(int fd, std::vector<uint8_t>&& unread) {
    uint64_t id = next_client_++;
    auto& c = clients_[id];
    c = std::make_unique<Connection>(fd, std::move(unread));
    c->tag = kClientTag | id;
    Watch(c.get(), EPOLL_CTL_ADD);
    ServeClient(id);  // requests that came with the handoff, and any since
  }

  void ServeClient(uint64_t id) {
    auto it = clients_.find(id);
    if (paused_ || it == clients_.end()) {
      return;
    }
    if (!it->second->ReadAll([this, id](const uint8_t* data, size_t size) {
          return OnClientFrame(id, data, size);
        })) {
      CloseClient(id);
    }
  }

  void CloseClient(uint64_t id) {
    auto it = clients_.find(id);
    epoll_ctl(epfd_, EPOLL_CTL_DEL, it->second->fd(), nullptr);
    clients_.erase(it);
  }

  // An owner holds kMailboxCapacity of this worker's forwards: stop reading
  // client sockets, so their requests wait in the connections and in TCP.
  void Pause() {
    paused_ = true;
    for (auto& [id, c] : clients_) {
      Watch(c.get(), EPOLL_CTL_MOD);
    }
  }

  // Once per pass while paused: resume when every running owner is below
  // the cap (a stopped owner never answers, so it cannot hold us), then
  // serve what the clients sent meanwhile.
  void MaybeResume() {
    for (uint32_t s = 0; s < owner_->partitions_; s++) {
      if (outstanding_[s] >= kMailboxCapacity && !worker(s).stopping()) {
        return;
      }
    }
    paused_ = false;
    ids_.clear();
    for (auto& [id, c] : clients_) {
      Watch(c.get(), EPOLL_CTL_MOD);
      ids_.push_back(id);
    }
    for (uint64_t id : ids_) {
      ServeClient(id);
    }
  }

  // Registers (or updates) a socket: EPOLLIN unless it is a client socket
  // while paused, EPOLLOUT only while output waits in the connection.
  void Watch(Connection* c, int op) {
    uint32_t events = c->wants_write() ? EPOLLOUT : 0u;
    if (!paused_ || (c->tag & kClientTag) == 0) {
      events |= EPOLLIN;
    }
    if (op == EPOLL_CTL_MOD && events == c->events) {
      return;
    }
    c->events = events;
    struct epoll_event ev = {};
    ev.events = events;
    ev.data.u64 = c->tag;
    CHECK_EQ(epoll_ctl(epfd_, op, c->fd(), &ev), 0);
  }

  // --- Peer connections ------------------------------------------------------

  // `from` is a peer id the node validated (< n, not self).
  void AdoptPeer(common::ProcessId from, std::unique_ptr<Connection> c) {
    if (peers_[from] != nullptr) {
      Drop(from);  // the peer reconnected: the fresh socket wins
    }
    c->tag = from;
    peers_[from] = std::move(c);
    if (!started_) {
      MaybeStart();
    } else {
      Watch(peers_[from].get(), EPOLL_CTL_ADD);
      ServePeer(from);
    }
  }

  // Closes the connection to `peer`. Mesh rule: this worker redials a higher
  // id; a lower-id peer redials us when it notices the loss (or restarts).
  void Drop(common::ProcessId peer) {
    if (started_) {
      epoll_ctl(epfd_, EPOLL_CTL_DEL, peers_[peer]->fd(), nullptr);
    }
    peers_[peer].reset();
    if (peer > self_) {
      ScheduleRedial(peer);
    }
  }

  void ScheduleRedial(common::ProcessId p) {
    common::Duration delay = std::max(backoff_[p], kRedialFloor);
    backoff_[p] = std::min<common::Duration>(delay * 2, kRedialCap);
    PushTimer(Now() + delay, p, TimerKind::kRedial);
  }

  // Non-blocking connect to this shard of peer p, retried with backoff until
  // the peer listens, so Stop() ends the worker even while a peer never
  // comes up.
  void Dial(common::ProcessId p) {
    if (dial_fd_[p] >= 0 || peers_[p] != nullptr) {
      return;
    }
    int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
    if (fd < 0) {
      ScheduleRedial(p);
      return;
    }
    const PeerAddress& to = owner_->peers_[p];
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(to.port);
    inet_pton(AF_INET, to.host.c_str(), &addr.sin_addr);
    int rc = connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
      close(fd);
      ScheduleRedial(p);
      return;
    }
    dial_fd_[p] = fd;
    struct epoll_event ev = {};
    ev.events = EPOLLOUT;
    ev.data.u64 = kDialTag | p;
    CHECK_EQ(epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev), 0);
  }

  void OnDialReady(common::ProcessId p) {
    int fd = dial_fd_[p];
    dial_fd_[p] = -1;
    epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
    auto c = std::make_unique<Connection>(fd);
    codec::Writer& hello = c->BeginFrame(kFramePeerHello);
    hello.U32(self_);
    hello.Varint(shard_);
    c->EndFrame();
    // The hello is the socket's first write, so the empty send buffer takes
    // it whole; a short write counts as a failed dial.
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 || err != 0 ||
        !c->Flush() || c->wants_write()) {
      ScheduleRedial(p);  // c closes the socket
      return;
    }
    backoff_[p] = 0;
    AdoptPeer(p, std::move(c));
  }

  // Reads the peer's socket and hands each frame to the engine.
  void ServePeer(common::ProcessId peer) {
    if (!peers_[peer]->ReadAll([this, peer](const uint8_t* data, size_t size) {
          OnPeerFrame(peer, data, size);
          return true;
        })) {
      Drop(peer);
    }
  }

  void OnPeerFrame(common::ProcessId from, const uint8_t* data, size_t size) {
    codec::Reader r(data, size);
    uint8_t kind = r.U8();
    if (kind == kFrameMessage) {
      // A malformed or foreign shard tag is swallowed, as ShardedEngine does.
      if (msg::Decode(r, msg_) && msg_.shard == shard_) {
        engine().OnMessage(from, msg_);
      }
    } else if (kind == kFrameCatchupReq) {
      uint64_t seq_floor = r.Varint();
      std::string frontier = r.Bytes();
      if (r.ok()) {
        HandleCatchupReq(from, seq_floor, frontier);
      }
    } else if (kind == kFrameCatchupEntries) {
      // Streamed records apply through the normal executed path: the durable
      // admit filter deduplicates (we may have replayed a record from our own
      // log already), and a duplicate's reply finds no waiting client.
      while (r.ok() && !r.AtEnd()) {
        common::Dot dot = r.Dot();
        smr::Command cmd = smr::Command::Decode(r);
        if (r.ok() && dot.valid()) {
          Executed(dot, cmd);
        }
      }
    }
  }

  // A restarted peer advertised its executed-dot frontier: tell the engine it
  // is back (clearing suspicion below its reserved floor), then stream every
  // log record the peer is missing on this shard's connection to it.
  void HandleCatchupReq(common::ProcessId from, uint64_t seq_floor,
                        const std::string& blob) {
    engine().OnRestore(from, seq_floor);
    dur::ShardDurability* d = owner_->deployment_->durability(shard_);
    if (d == nullptr) {
      return;
    }
    dur::DotFrontier have;
    codec::Reader r(reinterpret_cast<const uint8_t*>(blob.data()), blob.size());
    // A malformed frontier decodes to empty: we over-stream and the peer's
    // admit filter discards the duplicates.
    have.DecodeFrom(r);
    constexpr size_t kEntriesPerFrame = 256;
    Connection* c = peers_[from].get();
    codec::Writer* frame = nullptr;
    size_t count = 0;
    d->StreamMissing(have, [&](const common::Dot& dot, const smr::Command& cmd) {
      if (count++ % kEntriesPerFrame == 0) {
        if (frame != nullptr) {
          c->EndFrame();
        }
        frame = &c->BeginFrame(kFrameCatchupEntries);
      }
      frame->Dot(dot);
      cmd.EncodeTo(*frame);
    });
    if (frame != nullptr) {
      c->EndFrame();
      MarkDirty(c);
    }
  }

  // --- The loop ----------------------------------------------------------------

  void MarkDirty(Connection* c) {
    if (!c->dirty) {
      c->dirty = true;
      dirty_.push_back(c->tag);
    }
  }

  // One write per dirty connection per pass; what the socket does not take
  // waits in the connection, watched for EPOLLOUT.
  void FlushDirty() {
    for (uint64_t tag : dirty_) {
      bool client = (tag & kClientTag) != 0;
      Connection* c = nullptr;
      if (!client) {
        c = peers_[tag].get();
      } else if (auto it = clients_.find(tag & ~kClientTag); it != clients_.end()) {
        c = it->second.get();
      }
      if (c == nullptr || !c->dirty) {
        continue;  // closed (or replaced) since it was marked
      }
      c->dirty = false;
      if (!c->Flush()) {
        if (client) {
          CloseClient(tag & ~kClientTag);
        } else {
          Drop(static_cast<common::ProcessId>(tag));
        }
      } else if (client || started_) {
        Watch(c, EPOLL_CTL_MOD);
      }
    }
    dirty_.clear();
  }

  void Submit(smr::Command&& cmd) {
    if (!started_) {
      pending_submits_.push_back(std::move(cmd));
    } else if (uint64_t generation = batcher_.Add(0, std::move(cmd))) {
      PushTimer(Now() + batcher_.window(), generation, TimerKind::kFlush);
    }
  }

  // The engine starts once every peer of this shard is connected; from then
  // on the worker watches their sockets.
  void MaybeStart() {
    for (common::ProcessId p = 0; p < n_; p++) {
      if (p != self_ && peers_[p] == nullptr) {
        return;
      }
    }
    started_ = true;
    smr::Engine& e = engine();
    e.Bind(self_, n_, this);
    e.OnStart();
    smr::Deployment* d = owner_->deployment_;
    if (d->HasRecoveredState()) {
      // Seed the recovered floors after OnStart so protocol initialization
      // cannot clobber them; fresh submissions then mint dots above anything
      // a prior incarnation may have used.
      e.ApplyRestartHint(d->RecoveredRestartHint(shard_));
    }
    const bool catchup = d->durable() && d->HasRecoveredState();
    for (common::ProcessId p = 0; p < n_; p++) {
      if (p == self_) {
        continue;
      }
      if (catchup) {
        // Durable restart: advertise this shard's recovered frontier so the
        // peer streams back what this replica missed.
        const auto& adv = d->catchup_advert().shards[shard_];
        codec::Writer& w = peers_[p]->BeginFrame(kFrameCatchupReq);
        w.Varint(adv.seq_floor);
        w.Bytes(adv.frontier);
        peers_[p]->EndFrame();
        MarkDirty(peers_[p].get());
      }
      Watch(peers_[p].get(), EPOLL_CTL_ADD);
    }
    for (common::ProcessId p = 0; p < n_; p++) {
      if (peers_[p] != nullptr) {
        ServePeer(p);  // frames that came with the handoff, and any since
      }
    }
    for (smr::Command& cmd : pending_submits_) {
      Submit(std::move(cmd));
    }
    pending_submits_.clear();
  }

  // Takes a bounded burst from each mailbox. Returns true when one stopped
  // at the bound (input may be left).
  bool DrainMailboxes() {
    int i = 0;
    for (; i < kBurst && inbox_.TryPop(in_); i++) {
      if (in_.kind == ShardInput::Kind::kPeerConn) {
        AdoptPeer(in_.from, std::make_unique<Connection>(in_.fd, std::move(in_.unread)));
      } else {
        AdoptClient(in_.fd, std::move(in_.unread));
      }
    }
    bool more = i == kBurst;
    for (uint32_t s = 0; s < owner_->partitions_; s++) {
      if (s == shard_) {
        continue;
      }
      for (i = 0; i < kBurst && replies_in_[s]->TryPop(reply_in_); i++) {
        outstanding_[s]--;
        Deliver(reply_in_.conn, reply_in_.reply);
      }
      more = more || i == kBurst;
      for (i = 0; i < kBurst && submits_in_[s]->TryPop(submit_in_); i++) {
        Accept(std::move(submit_in_.cmd), s, submit_in_.conn);
      }
      more = more || i == kBurst;
    }
    return more;
  }

  bool MailboxesEmpty() const {
    for (uint32_t s = 0; s < owner_->partitions_; s++) {
      if (s != shard_ && (!replies_in_[s]->Empty() || !submits_in_[s]->Empty())) {
        return false;
      }
    }
    return inbox_.Empty();
  }

  void FireTimers() {
    common::Time now = Now();
    while (!timers_.empty() && timers_.front().deadline <= now) {
      std::pop_heap(timers_.begin(), timers_.end(), std::greater<TimerEntry>());
      TimerEntry t = timers_.back();
      timers_.pop_back();
      if (t.kind == TimerKind::kFlush) {
        batcher_.Expire(t.token);
      } else if (t.kind == TimerKind::kRedial) {
        Dial(static_cast<common::ProcessId>(t.token));
      } else {
        engine().OnTimer(t.token);
      }
      now = Now();
    }
  }

  // Milliseconds until the next timer is due (-1: none).
  int TimeoutMs() const {
    if (timers_.empty()) {
      return -1;
    }
    common::Time next = timers_.front().deadline;
    common::Time cur = Now();
    return next > cur ? static_cast<int>((next - cur + 999) / 1000) : 0;
  }

  // Closes sockets handed over but never adopted (shutdown, or a push that
  // raced StopOne).
  void CloseInbox() {
    ShardInput in;
    while (inbox_.TryPop(in)) {
      close(in.fd);
    }
  }

  void OnEvent(uint64_t tag, uint32_t events) {
    if (tag == kBellTag) {
      bell_.Drain();
    } else if (tag & kClientTag) {
      uint64_t id = tag & ~kClientTag;
      auto it = clients_.find(id);
      if (it == clients_.end()) {
        return;  // closed this pass
      }
      if (events & EPOLLOUT) {
        MarkDirty(it->second.get());  // flushed at the top of the pass
      }
      if (paused_ && (events & (EPOLLHUP | EPOLLERR))) {
        CloseClient(id);  // not read while paused, so close it here
      } else if (events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        ServeClient(id);
      }
    } else if (tag & kDialTag) {
      auto p = static_cast<common::ProcessId>(tag & ~kDialTag);
      if (dial_fd_[p] >= 0) {
        OnDialReady(p);
      }
    } else if (peers_[tag] != nullptr) {  // may have dropped this pass
      if (events & EPOLLOUT) {
        MarkDirty(peers_[tag].get());
      }
      if (events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        ServePeer(static_cast<common::ProcessId>(tag));
      }
    }
  }

  void ThreadMain() {
    self_ = owner_->self_;
    n_ = static_cast<uint32_t>(owner_->peers_.size());
    peers_.resize(n_);
    dial_fd_.assign(n_, -1);
    backoff_.assign(n_, 0);
    epfd_ = epoll_create1(EPOLL_CLOEXEC);
    CHECK_GE(epfd_, 0);
    struct epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.u64 = kBellTag;
    CHECK_EQ(epoll_ctl(epfd_, EPOLL_CTL_ADD, bell_.fd(), &ev), 0);
    // Dial this shard of every higher-id peer at once.
    for (common::ProcessId p = self_ + 1; p < n_; p++) {
      Dial(p);
    }
    MaybeStart();  // n = 1: no peers to wait for
    struct epoll_event events[64];
    while (!stop_.load(std::memory_order_acquire)) {
      FireTimers();
      bool more = DrainMailboxes();
      if (paused_) {
        MaybeResume();
      }
      FlushDirty();
      // Park only with nothing left to do. Arm-then-recheck closes the
      // missed-wakeup window (see Doorbell).
      int timeout = 0;
      if (!more) {
        bell_.Arm();
        if (MailboxesEmpty() && !stop_.load(std::memory_order_acquire)) {
          timeout = TimeoutMs();
        }
      }
      int nfds = epoll_wait(epfd_, events, 64, timeout);
      if (!more) {
        bell_.Disarm();
        if (timeout != 0) {
          Bump(parks);
        }
      }
      for (int i = 0; i < nfds; i++) {
        OnEvent(events[i].data.u64, events[i].events);
      }
    }
    // Stopping (or StopOne): close every socket so peers and clients see it
    // and reap their side; nobody will redial a stopped shard.
    peers_.clear();
    clients_.clear();
    for (int fd : dial_fd_) {
      if (fd >= 0) {
        close(fd);
      }
    }
    close(epfd_);
    CloseInbox();
  }

  ShardRuntime* owner_;
  const uint32_t shard_;
  const bool durable_;

  std::thread thread_;
  std::atomic<bool> stop_{false};

  // Worker-local state (worker thread only).
  common::ProcessId self_ = common::kInvalidProcess;
  uint32_t n_ = 0;
  int epfd_ = -1;
  bool started_ = false;
  std::vector<std::unique_ptr<Connection>> peers_;  // by peer id; self: null
  std::vector<int> dial_fd_;                        // by peer id; -1: none
  std::vector<common::Duration> backoff_;           // next redial delay, by peer
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> clients_;  // by id
  uint64_t next_client_ = 0;
  std::vector<uint64_t> dirty_;  // epoll tags of connections written this pass
  std::vector<smr::Command> pending_submits_;  // before the engine starts
  std::vector<TimerEntry> timers_;
  uint64_t timer_seq_ = 0;
  smr::Batcher batcher_;  // over this worker's one shard
  // Accepted commands of this shard by (client, seq), and where each answer
  // goes; a durable node may hold several for one resubmitted command.
  std::unordered_multimap<chk::CmdKey, Origin, chk::CmdKeyHash> origins_;
  // Durable resubmit cache: each client's last completed (seq, result) here.
  std::unordered_map<uint64_t, std::pair<uint64_t, std::string>> client_done_;
  // Forwards to each owner whose answer has not been taken yet; Pause()
  // holds them at kMailboxCapacity.
  std::vector<size_t> outstanding_;
  bool paused_ = false;
  std::vector<uint64_t> ids_;  // MaybeResume scratch
  std::vector<smr::Command> exec_scratch_;
  ShardInput in_;
  ForwardedSubmit submit_in_;
  ForwardedSubmit submit_out_;
  ForwardedReply reply_in_;
  ForwardedReply reply_out_;
  msg::Message msg_;  // decode target, reused frame to frame
};

ShardRuntime::ShardRuntime(smr::Deployment* deployment)
    : deployment_(deployment), partitions_(deployment->partitions()) {
  CHECK(deployment_ != nullptr);
  for (uint32_t s = 0; s < partitions_; s++) {
    workers_.push_back(std::make_unique<Worker>(this, s));
  }
}

ShardRuntime::~ShardRuntime() { Stop(); }

void ShardRuntime::Start(common::ProcessId self, std::vector<PeerAddress> peers) {
  CHECK(!started_);
  CHECK_LT(self, peers.size());
  started_ = true;
  self_ = self;
  peers_ = std::move(peers);
  for (auto& w : workers_) {
    w->Spawn();
  }
}

void ShardRuntime::Stop() {
  if (!started_) {
    return;
  }
  for (auto& w : workers_) {
    w->RequestStop();
  }
  for (auto& w : workers_) {
    w->Join();
  }
}

bool ShardRuntime::StopOne(uint32_t shard) {
  CHECK_LT(shard, partitions_);
  Worker& w = *workers_[shard];
  if (!started_ || w.stopping()) {
    return false;
  }
  w.RequestStop();
  w.Join();
  // A home paused on the stopped owner's forwards re-checks and resumes.
  for (auto& other : workers_) {
    other->bell_.Ring();
  }
  return true;
}

void ShardRuntime::Route(uint32_t shard, ShardInput& in) {
  Worker& w = *workers_[shard];
  if (w.stopping()) {
    close(in.fd);  // dead shard: the socket is lost, like a crashed replica's
    return;
  }
  if (!w.inbox_.TryPush(in)) {
    close(in.fd);
    Bump(inputs_dropped_);
    return;
  }
  Bump(inbox_items_);
  if (w.bell_.Ring()) {
    Bump(io_bell_writes_);
  }
}

void ShardRuntime::AdoptPeer(uint32_t shard, common::ProcessId peer, int fd,
                             std::vector<uint8_t>&& unread) {
  CHECK_LT(shard, partitions_);
  ShardInput in;
  in.kind = ShardInput::Kind::kPeerConn;
  in.from = peer;
  in.fd = fd;
  in.unread = std::move(unread);
  Route(shard, in);
}

void ShardRuntime::AdoptClient(int fd, std::vector<uint8_t>&& unread) {
  ShardInput in;
  in.kind = ShardInput::Kind::kClientConn;
  in.fd = fd;
  in.unread = std::move(unread);
  // Round-robin over the running workers; with none left, Route closes it.
  uint32_t home = next_home_ % partitions_;
  for (uint32_t i = 0; i < partitions_ && workers_[home]->stopping(); i++) {
    home = (home + 1) % partitions_;
  }
  next_home_ = home + 1;
  Route(home, in);
}

HopCounts ShardRuntime::hops() const {
  HopCounts h;
  h.inbox_items = inbox_items_.load(std::memory_order_relaxed);
  h.bell_writes = io_bell_writes_.load(std::memory_order_relaxed);
  for (const auto& w : workers_) {
    h.forwarded += w->forwarded.load(std::memory_order_relaxed);
    h.returned += w->returned.load(std::memory_order_relaxed);
    h.bell_writes += w->bell_writes.load(std::memory_order_relaxed);
    h.parks += w->parks.load(std::memory_order_relaxed);
  }
  return h;
}

}  // namespace rt
