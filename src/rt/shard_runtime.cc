#include "src/rt/shard_runtime.h"

#include <time.h>

#include <algorithm>
#include <thread>
#include <utility>

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

}  // namespace

// One shard's worker: owns the shard engine, its timer wheel, its submission
// batcher and the mailbox pair tying it to the I/O tier. It is also the
// engine's smr::Context — sends and completions become outbox items, timers
// land in the worker-local wheel (engines only call the Context from within
// their own callbacks, which all run on this thread).
class ShardRuntime::Worker final : public smr::Context {
 public:
  Worker(ShardRuntime* owner, uint32_t shard)
      : owner_(owner),
        shard_(shard),
        inbox_(kMailboxCapacity),
        outbox_(kMailboxCapacity),
        batcher_(1, owner_->deployment_->batch_window(),
                 owner_->deployment_->options().batch_max,
                 [this](uint32_t, smr::Command cmd) {
                   owner_->deployment_->shard_engine(shard_).Submit(std::move(cmd));
                 }) {}

  Mailbox<ShardInput>& inbox() { return inbox_; }
  Mailbox<ShardOutput>& outbox() { return outbox_; }
  Doorbell& bell() { return bell_; }
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

  // smr::Context (worker thread only):
  void Send(common::ProcessId to, msg::Message m) override {
    m.shard = shard_;
    ShardOutput out;
    out.kind = ShardOutput::Kind::kPeerSend;
    out.to = to;
    out.m = std::move(m);
    PushOutput(out);
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
          if (sub.client == 0) {
            return;  // internal command (noOp); no client waits on it
          }
          ShardOutput out;
          out.kind = ShardOutput::Kind::kReply;
          out.client = sub.client;
          out.seq = sub.seq;
          out.value = std::move(result);
          out.dropped = false;
          PushOutput(out);
        });
  }

  // A restarted peer advertised its executed-dot frontier: tell the engine it
  // is back (clearing suspicion below its reserved floor), then stream every
  // log record the peer is missing, batched into kCatchup output frames.
  void HandleCatchupReq(common::ProcessId from, uint64_t seq_floor,
                        const std::string& blob) {
    owner_->deployment_->shard_engine(shard_).OnRestore(from, seq_floor);
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
    codec::Writer entries;
    size_t count = 0;
    auto flush = [&]() {
      if (count == 0) {
        return;
      }
      codec::Writer frame;
      frame.Varint(shard_);
      frame.Varint(count);
      ShardOutput out;
      out.kind = ShardOutput::Kind::kCatchup;
      out.to = from;
      out.value.assign(
          reinterpret_cast<const char*>(frame.buffer().data()),
          frame.buffer().size());
      out.value.append(
          reinterpret_cast<const char*>(entries.buffer().data()),
          entries.buffer().size());
      PushOutput(out);
      entries.Clear();
      count = 0;
    };
    d->StreamMissing(have, [&](const common::Dot& dot, const smr::Command& cmd) {
      entries.Dot(dot);
      cmd.EncodeTo(entries);
      if (++count >= kEntriesPerFrame) {
        flush();
      }
    });
    flush();
  }

  void Dropped(const common::Dot& dot, const smr::Command& original) override {
    owner_->deployment_->ForEachDropped(original, [this](const smr::Command& sub) {
      if (sub.client == 0) {
        return;
      }
      ShardOutput out;
      out.kind = ShardOutput::Kind::kReply;
      out.client = sub.client;
      out.seq = sub.seq;
      out.dropped = true;
      PushOutput(out);
    });
  }

 private:
  // Worker-local one-shot timer wheel: a binary min-heap of (deadline, token).
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

  void PushTimer(common::Time deadline, uint64_t token, bool is_flush) {
    timers_.push_back(TimerEntry{deadline, timer_seq_++, token, is_flush});
    std::push_heap(timers_.begin(), timers_.end(), std::greater<TimerEntry>());
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
    NotifyOutput();
  }

  void NotifyOutput() {
    if (owner_->output_notify_) {
      owner_->output_notify_();
    }
  }

  void ThreadMain() {
    smr::Engine& engine = owner_->deployment_->shard_engine(shard_);
    engine.Bind(self_id_, n_, this);
    engine.OnStart();
    if (owner_->deployment_->HasRecoveredState()) {
      // Seed the recovered floors after OnStart so protocol initialization
      // cannot clobber them; fresh submissions then mint dots above anything
      // a prior incarnation may have used.
      engine.ApplyRestartHint(owner_->deployment_->RecoveredRestartHint(shard_));
    }
    ShardInput in;
    while (!stop_.load(std::memory_order_acquire)) {
      bool worked = false;
      // Due timers first (they were set strictly earlier than now).
      common::Time now = Now();
      while (!timers_.empty() && timers_.front().deadline <= now) {
        std::pop_heap(timers_.begin(), timers_.end(), std::greater<TimerEntry>());
        TimerEntry t = timers_.back();
        timers_.pop_back();
        if (t.is_flush) {
          batcher_.Expire(t.token);
        } else {
          engine.OnTimer(t.token);
        }
        worked = true;
        now = Now();
      }
      // Bounded inbox burst, so a flooded inbox cannot starve timers.
      for (int i = 0; i < 256; i++) {
        if (!inbox_.TryPop(in)) {
          break;
        }
        switch (in.kind) {
          case ShardInput::Kind::kMessage:
            engine.OnMessage(in.from, in.m);
            break;
          case ShardInput::Kind::kSubmit:
            if (uint64_t generation = batcher_.Add(0, std::move(in.cmd))) {
              PushTimer(Now() + batcher_.window(), generation, /*is_flush=*/true);
            }
            break;
          case ShardInput::Kind::kCatchupReq:
            HandleCatchupReq(in.from, in.seq_floor, in.blob);
            break;
          case ShardInput::Kind::kCatchupEntry:
            // The normal executed path: the durable admit filter deduplicates
            // (we may have replayed this record from our own log already), and
            // a duplicate's reply simply finds no waiting client.
            Executed(in.dot, in.cmd);
            break;
          case ShardInput::Kind::kNone:
            break;
        }
        worked = true;
      }
      if (worked) {
        continue;
      }
      // Park until input arrives or the next timer is due. Arm-then-recheck
      // closes the missed-wakeup window (see Doorbell).
      bell_.Arm();
      if (!inbox_.Empty() || stop_.load(std::memory_order_acquire)) {
        continue;
      }
      int64_t timeout_us = -1;
      if (!timers_.empty()) {
        common::Time next = timers_.front().deadline;
        common::Time cur = Now();
        timeout_us = next > cur ? static_cast<int64_t>(next - cur) : 0;
      }
      bell_.Wait(timeout_us);
    }
  }

  ShardRuntime* owner_;
  uint32_t shard_;
  common::ProcessId self_id_ = common::kInvalidProcess;
  uint32_t n_ = 0;

  Mailbox<ShardInput> inbox_;
  Mailbox<ShardOutput> outbox_;
  Doorbell bell_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> stopped_{false};

  // Worker-local state (worker thread only).
  std::vector<TimerEntry> timers_;
  uint64_t timer_seq_ = 0;
  smr::Batcher batcher_;  // over this worker's one shard
  std::vector<smr::Command> exec_scratch_;
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

bool ShardRuntime::RouteMessage(common::ProcessId from, msg::Message& m) {
  uint32_t shard = m.shard;
  if (shard >= partitions_) {
    return true;  // malformed/foreign tag: swallow, like ShardedEngine does
  }
  Worker& w = *workers_[shard];
  if (w.stopped()) {
    return true;  // dead shard: input is lost, like a crashed replica's would be
  }
  ShardInput in;
  in.kind = ShardInput::Kind::kMessage;
  in.from = from;
  in.m = std::move(m);
  if (!w.inbox().TryPush(in)) {
    m = std::move(in.m);  // hand the message back for the caller's retry
    return false;
  }
  w.bell().Ring();
  return true;
}

bool ShardRuntime::SubmitToShard(uint32_t shard, smr::Command& cmd) {
  CHECK_LT(shard, partitions_);
  Worker& w = *workers_[shard];
  if (w.stopped()) {
    return true;  // dead shard drops the submission (client will time out/retry)
  }
  ShardInput in;
  in.kind = ShardInput::Kind::kSubmit;
  in.cmd = std::move(cmd);
  if (!w.inbox().TryPush(in)) {
    cmd = std::move(in.cmd);
    return false;
  }
  w.bell().Ring();
  return true;
}

bool ShardRuntime::RouteCatchupRequest(uint32_t shard, common::ProcessId from,
                                       uint64_t seq_floor,
                                       std::string& frontier_blob) {
  if (shard >= partitions_) {
    return true;
  }
  Worker& w = *workers_[shard];
  if (w.stopped()) {
    return true;
  }
  ShardInput in;
  in.kind = ShardInput::Kind::kCatchupReq;
  in.from = from;
  in.seq_floor = seq_floor;
  in.blob = std::move(frontier_blob);
  if (!w.inbox().TryPush(in)) {
    frontier_blob = std::move(in.blob);
    return false;
  }
  w.bell().Ring();
  return true;
}

bool ShardRuntime::RouteCatchupEntry(uint32_t shard, const common::Dot& dot,
                                     smr::Command& cmd) {
  if (shard >= partitions_) {
    return true;
  }
  Worker& w = *workers_[shard];
  if (w.stopped()) {
    return true;
  }
  ShardInput in;
  in.kind = ShardInput::Kind::kCatchupEntry;
  in.dot = dot;
  in.cmd = std::move(cmd);
  if (!w.inbox().TryPush(in)) {
    cmd = std::move(in.cmd);
    return false;
  }
  w.bell().Ring();
  return true;
}

size_t ShardRuntime::DrainOutputs(ShardOutputSink& sink) {
  size_t drained = 0;
  ShardOutput out;
  for (auto& w : workers_) {
    while (w->outbox().TryPop(out)) {
      drained++;
      switch (out.kind) {
        case ShardOutput::Kind::kPeerSend:
          sink.OnPeerSend(out.to, out.m);
          break;
        case ShardOutput::Kind::kReply:
          sink.OnClientReply(out.client, out.seq, std::move(out.value),
                             out.dropped);
          break;
        case ShardOutput::Kind::kCatchup:
          sink.OnCatchupFrame(out.to, std::move(out.value));
          break;
        case ShardOutput::Kind::kNone:
          break;
      }
    }
  }
  return drained;
}

bool ShardRuntime::HasOutput() const {
  for (const auto& w : workers_) {
    if (!w->outbox().Empty()) {
      return true;
    }
  }
  return false;
}

}  // namespace rt
