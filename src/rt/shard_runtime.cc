#include "src/rt/shard_runtime.h"

#include <sys/epoll.h>
#include <time.h>

#include <algorithm>
#include <thread>
#include <unordered_set>
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

// epoll tag of the inbox doorbell; sockets are tagged with their peer id.
constexpr uint32_t kBellTag = UINT32_MAX;

}  // namespace

// One shard's worker: owns the shard engine, its timer heap, its submission
// batcher, its peer connections and the mailbox pair tying it to the I/O
// thread. It is also the engine's smr::Context — sends go straight into peer
// connections, completions become outbox items, timers land in the
// worker-local heap (engines only call the Context from within their own
// callbacks, which all run on this thread).
class ShardRuntime::Worker final : public smr::Context {
 public:
  Worker(ShardRuntime* owner, uint32_t shard)
      : inbox_(kMailboxCapacity),
        outbox_(kMailboxCapacity),
        owner_(owner),
        shard_(shard),
        batcher_(1, owner_->deployment_->batch_window(),
                 owner_->deployment_->options().batch_max,
                 [this](uint32_t, smr::Command cmd) { engine().Submit(std::move(cmd)); }),
        // Durable nodes cache every completion for client resubmits, so they
        // report all of them; otherwise only the commands submitted here.
        reply_all_(owner_->deployment_->durable()) {}

  ~Worker() { CloseInbox(); }  // input that arrived after the thread ended

  // The edges to the I/O thread; it pushes the inbox, rings the bell and
  // pops the outbox.
  Mailbox<ShardInput> inbox_;
  Mailbox<ShardOutput> outbox_;
  Doorbell bell_;

  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  void Spawn(common::ProcessId self, uint32_t n) {
    self_id_ = self;
    n_ = n;
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
    stopped_.store(true, std::memory_order_release);
  }

  // Hop ledger, written by this worker only.
  std::atomic<uint64_t> outbox_items{0};
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
    PushTimer(Now() + delay, token, /*is_flush=*/false);
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
          Reply(sub, std::move(result), /*dropped=*/false);
        });
  }

  void Dropped(const common::Dot& /*dot*/, const smr::Command& original) override {
    owner_->deployment_->ForEachDropped(original, [this](const smr::Command& sub) {
      Reply(sub, std::string(), /*dropped=*/true);
    });
  }

 private:
  // Worker-local one-shot timer heap: a binary min-heap of (deadline, token).
  // is_flush marks the batcher's window timer (token: its generation) vs
  // engine timers.
  struct TimerEntry {
    common::Time deadline;
    uint64_t seq;  // insertion tiebreak: equal deadlines fire in set order
    uint64_t token;
    bool is_flush;
    bool operator>(const TimerEntry& o) const {
      if (deadline != o.deadline) {
        return deadline > o.deadline;
      }
      return seq > o.seq;
    }
  };

  smr::Engine& engine() { return owner_->deployment_->shard_engine(shard_); }

  void PushTimer(common::Time deadline, uint64_t token, bool is_flush) {
    timers_.push_back(TimerEntry{deadline, timer_seq_++, token, is_flush});
    std::push_heap(timers_.begin(), timers_.end(), std::greater<TimerEntry>());
  }

  void Reply(const smr::Command& sub, std::string&& value, bool dropped) {
    if (sub.client == 0) {
      return;  // internal command (noOp); no client waits on it
    }
    if (!reply_all_ && local_.erase(chk::CmdKey{sub.client, sub.seq}) == 0) {
      return;  // submitted at another replica, which answers it
    }
    ShardOutput out;
    out.kind = ShardOutput::Kind::kReply;
    out.client = sub.client;
    out.seq = sub.seq;
    out.value = std::move(value);
    out.dropped = dropped;
    PushOutput(out);
  }

  // Never blocks indefinitely: the I/O thread always drains outboxes before
  // sleeping, so ringing its doorbell and yielding is enough to guarantee the
  // ring frees up. Output is dropped only during shutdown.
  void PushOutput(ShardOutput& out) {
    while (!outbox_.TryPush(out)) {
      NotifyOutput();
      if (stop_.load(std::memory_order_acquire)) {
        return;
      }
      std::this_thread::yield();
    }
    Bump(outbox_items);
    NotifyOutput();
  }

  void NotifyOutput() {
    if (owner_->output_bell_.Ring()) {
      Bump(bell_writes);
    }
  }

  void Submit(smr::Command&& cmd) {
    if (!reply_all_) {
      local_.insert(chk::CmdKey{cmd.client, cmd.seq});
    }
    if (uint64_t generation = batcher_.Add(0, std::move(cmd))) {
      PushTimer(Now() + batcher_.window(), generation, /*is_flush=*/true);
    }
  }

  // Registers (or updates) the peer's socket: EPOLLOUT only while output is
  // waiting in the connection.
  void Watch(common::ProcessId peer, int op) {
    Connection* c = peers_[peer].get();
    c->watching_out = c->wants_write();
    struct epoll_event ev = {};
    ev.events = c->watching_out ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
    ev.data.u32 = peer;
    CHECK_EQ(epoll_ctl(epfd_, op, c->fd(), &ev), 0);
  }

  // `from` is a peer id the node validated (< n, not self).
  void Adopt(common::ProcessId from, int fd, std::vector<uint8_t>&& unread) {
    if (peers_[from] != nullptr) {
      Drop(from, /*notify=*/false);  // the peer reconnected: the fresh socket wins
    }
    peers_[from] = std::make_unique<Connection>(fd, std::move(unread));
    peers_[from]->peer = from;
    if (started_) {
      Watch(from, EPOLL_CTL_ADD);
      Serve(from);
    }
  }

  // Closes the connection to `peer`; a notified loss lets the node redial.
  void Drop(common::ProcessId peer, bool notify) {
    if (started_) {
      epoll_ctl(epfd_, EPOLL_CTL_DEL, peers_[peer]->fd(), nullptr);
    }
    peers_[peer].reset();
    if (notify) {
      ShardOutput out;
      out.kind = ShardOutput::Kind::kPeerLost;
      out.peer = peer;
      PushOutput(out);
    }
  }

  // Reads the peer's socket and hands each frame to the engine.
  void Serve(common::ProcessId peer) {
    if (!peers_[peer]->ReadAll([this, peer](const uint8_t* data, size_t size) {
          OnFrame(peer, data, size);
          return true;
        })) {
      Drop(peer, /*notify=*/true);
    }
  }

  void OnFrame(common::ProcessId from, const uint8_t* data, size_t size) {
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

  void MarkDirty(Connection* c) {
    if (!c->dirty) {
      c->dirty = true;
      dirty_.push_back(c->peer);
    }
  }

  // One write per dirty connection per pass; what the socket does not take
  // waits in the connection, watched for EPOLLOUT.
  void FlushDirty() {
    for (common::ProcessId p : dirty_) {
      Connection* c = peers_[p].get();
      if (c == nullptr || !c->dirty) {
        continue;  // dropped (or replaced) since it was marked
      }
      c->dirty = false;
      if (!c->Flush()) {
        Drop(p, /*notify=*/true);
      } else if (started_ && c->wants_write() != c->watching_out) {
        Watch(p, EPOLL_CTL_MOD);
      }
    }
    dirty_.clear();
  }

  // The engine starts once every peer of this shard is connected; from then
  // on the worker watches their sockets.
  void MaybeStart() {
    if (started_) {
      return;
    }
    for (common::ProcessId p = 0; p < n_; p++) {
      if (p != self_id_ && peers_[p] == nullptr) {
        return;
      }
    }
    started_ = true;
    smr::Engine& e = engine();
    e.Bind(self_id_, n_, this);
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
      if (p == self_id_) {
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
      Watch(p, EPOLL_CTL_ADD);
    }
    for (common::ProcessId p = 0; p < n_; p++) {
      if (peers_[p] != nullptr) {
        Serve(p);  // frames that came with the handoff, and any since
      }
    }
    for (smr::Command& cmd : pending_submits_) {
      Submit(std::move(cmd));
    }
    pending_submits_.clear();
  }

  // Takes a bounded burst, so a flooded inbox cannot starve timers or
  // sockets. Returns true when it stopped at the bound with input left.
  bool DrainInbox() {
    for (int i = 0; i < 256; i++) {
      if (!inbox_.TryPop(in_)) {
        return false;
      }
      if (in_.kind == ShardInput::Kind::kPeerConn) {
        Adopt(in_.from, in_.fd, std::move(in_.unread));
        MaybeStart();
      } else if (started_) {
        Submit(std::move(in_.cmd));
      } else {
        pending_submits_.push_back(std::move(in_.cmd));
      }
    }
    return true;
  }

  void FireTimers() {
    common::Time now = Now();
    while (!timers_.empty() && timers_.front().deadline <= now) {
      std::pop_heap(timers_.begin(), timers_.end(), std::greater<TimerEntry>());
      TimerEntry t = timers_.back();
      timers_.pop_back();
      if (t.is_flush) {
        batcher_.Expire(t.token);
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
      if (in.kind == ShardInput::Kind::kPeerConn) {
        close(in.fd);
      }
    }
  }

  void ThreadMain() {
    peers_.resize(n_);
    epfd_ = epoll_create1(EPOLL_CLOEXEC);
    CHECK_GE(epfd_, 0);
    struct epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.u32 = kBellTag;
    CHECK_EQ(epoll_ctl(epfd_, EPOLL_CTL_ADD, bell_.fd(), &ev), 0);
    MaybeStart();  // n = 1: no peers to wait for
    struct epoll_event events[64];
    while (!stop_.load(std::memory_order_acquire)) {
      FireTimers();
      bool more = DrainInbox();
      FlushDirty();
      // Park only with nothing left to do. Arm-then-recheck closes the
      // missed-wakeup window (see Doorbell).
      int timeout = 0;
      if (!more) {
        bell_.Arm();
        if (inbox_.Empty() && !stop_.load(std::memory_order_acquire)) {
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
        uint32_t tag = events[i].data.u32;
        if (tag == kBellTag) {
          bell_.Drain();
        } else if (peers_[tag] != nullptr) {  // may have dropped this pass
          if (events[i].events & EPOLLOUT) {
            MarkDirty(peers_[tag].get());  // flushed at the top of the pass
          }
          if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
            Serve(tag);
          }
        }
      }
    }
    // Stopping (or StopOne): close every socket so peers see it and reap
    // their side; nobody will redial a stopped shard.
    peers_.clear();
    close(epfd_);
    CloseInbox();
  }

  ShardRuntime* owner_;
  uint32_t shard_;
  common::ProcessId self_id_ = common::kInvalidProcess;
  uint32_t n_ = 0;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> stopped_{false};

  // Worker-local state (worker thread only).
  int epfd_ = -1;
  bool started_ = false;
  std::vector<std::unique_ptr<Connection>> peers_;  // by peer id; self: null
  std::vector<common::ProcessId> dirty_;
  std::vector<smr::Command> pending_submits_;  // before the engine starts
  std::vector<TimerEntry> timers_;
  uint64_t timer_seq_ = 0;
  smr::Batcher batcher_;  // over this worker's one shard
  const bool reply_all_;
  std::unordered_set<chk::CmdKey, chk::CmdKeyHash> local_;  // submitted here
  std::vector<smr::Command> exec_scratch_;
  ShardInput in_;
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

void ShardRuntime::Start(common::ProcessId self, uint32_t n) {
  CHECK(!started_);
  started_ = true;
  for (uint32_t s = 0; s < partitions_; s++) {
    workers_[s]->Spawn(self, n);
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
  if (!started_ || workers_[shard]->stopped()) {
    return false;
  }
  workers_[shard]->RequestStop();
  workers_[shard]->Join();
  return true;
}

bool ShardRuntime::Route(uint32_t shard, ShardInput& in) {
  CHECK_LT(shard, partitions_);
  Worker& w = *workers_[shard];
  if (w.stopped()) {
    // Dead shard: input is lost, like a crashed replica's would be.
    if (in.kind == ShardInput::Kind::kPeerConn) {
      close(in.fd);
    }
    return true;
  }
  if (!w.inbox_.TryPush(in)) {
    return false;
  }
  Bump(inbox_items_);
  if (w.bell_.Ring()) {
    Bump(worker_bell_writes_);
  }
  return true;
}

size_t ShardRuntime::DrainOutputs(ShardOutputSink& sink) {
  size_t drained = 0;
  ShardOutput out;
  for (uint32_t s = 0; s < partitions_; s++) {
    while (workers_[s]->outbox_.TryPop(out)) {
      drained++;
      if (out.kind == ShardOutput::Kind::kReply) {
        sink.OnClientReply(out.client, out.seq, std::move(out.value), out.dropped);
      } else if (out.kind == ShardOutput::Kind::kPeerLost) {
        sink.OnPeerLost(s, out.peer);
      }
    }
  }
  return drained;
}

bool ShardRuntime::HasOutput() const {
  for (const auto& w : workers_) {
    if (!w->outbox_.Empty()) {
      return true;
    }
  }
  return false;
}

HopCounts ShardRuntime::hops() const {
  HopCounts h;
  h.inbox_items = inbox_items_.load(std::memory_order_relaxed);
  h.bell_writes = worker_bell_writes_.load(std::memory_order_relaxed);
  for (const auto& w : workers_) {
    h.outbox_items += w->outbox_items.load(std::memory_order_relaxed);
    h.bell_writes += w->bell_writes.load(std::memory_order_relaxed);
    h.parks += w->parks.load(std::memory_order_relaxed);
  }
  return h;
}

}  // namespace rt
