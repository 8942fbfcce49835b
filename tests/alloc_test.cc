// Locks in the PR's core invariant: steady-state message delivery through the
// simulator performs no per-message heap allocation. Global operator new/delete are
// overridden in this binary to count allocations; after a warmup pass (slot pool,
// event queue, and engine scratch reach their high-water marks) a burst of
// submit->broadcast->deliver traffic must allocate (almost) nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/core/atlas.h"
#include "src/epaxos/epaxos.h"
#include "src/paxos/multipaxos.h"
#include "src/rt/shard_runtime.h"
#include "src/sim/simulator.h"
#include "src/smr/decided_log.h"
#include "src/smr/sharded_engine.h"

namespace {

std::atomic<uint64_t> g_allocs{0};

}  // namespace

void* operator new(size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace sim {
namespace {

using common::DepSet;
using common::Dot;
using common::ProcessId;

class BroadcastEngine final : public smr::Engine {
 public:
  void Submit(smr::Command cmd) override {
    msg::MCommit m;
    m.cmd = std::move(cmd);
    m.dot = Dot{self_, ++seq_};
    m.deps = DepSet{Dot{0, 1}, Dot{1, 2}, Dot{2, 3}};
    for (ProcessId p = 0; p < n_; p++) {
      if (p != self_) {
        SendTo(p, m);
      }
    }
  }
  void OnMessage(ProcessId from, const msg::Message& m) override { received_++; }

 private:
  uint64_t seq_ = 0;
  uint64_t received_ = 0;
};

TEST(AllocTest, SteadyStateDeliveryIsAllocationFree) {
  Simulator::Options opts;
  opts.seed = 3;
  Simulator sim(std::make_unique<UniformLatency>(common::kMillisecond, 0), opts);
  std::vector<BroadcastEngine> engines(5);
  for (auto& e : engines) {
    sim.AddEngine(&e);
  }
  sim.Start();

  // Warmup: grow the slot pool, queue, and FIFO bookkeeping to their high-water
  // marks. Keys/values are small (SSO), deps fit the DepSet inline buffer.
  for (uint64_t i = 1; i <= 200; i++) {
    sim.Submit(0, smr::MakePut(1, i, "key42", "value"));
    sim.RunUntilIdle();
  }

  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  uint64_t delivered_before = sim.messages_delivered();
  for (uint64_t i = 1000; i < 2000; i++) {
    sim.Submit(0, smr::MakePut(1, i, "key42", "value"));
    sim.RunUntilIdle();
  }
  uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  uint64_t delivered = sim.messages_delivered() - delivered_before;

  EXPECT_EQ(delivered, 4000u);  // 4 peers x 1000 submits
  // Zero is the design target; allow a little slack for one-off container growth so
  // the test does not depend on libstdc++ internals.
  EXPECT_LE(allocs, 8u) << "steady-state deliveries allocated " << allocs
                        << " times for " << delivered << " messages";
}

// Discards engine output; lets us drive an engine directly and count only its own
// allocations (no simulator, no delivery queue).
class NullContext final : public smr::Context {
 public:
  void Send(common::ProcessId to, msg::Message m) override {}
  common::Time Now() const override { return 0; }
  void SetTimer(common::Duration delay, uint64_t token) override {}
  void Executed(const common::Dot& dot, const smr::Command& cmd) override {}
};

// Pins the PxPromise fix (ROADMAP hot-path item): answering Paxos phase 1 over a long
// log must reuse the engine's promise scratch instead of growing a fresh
// accepted-entry vector per prepare. Warm steady state: one sized allocation for the
// copy into the send envelope, nothing per entry.
TEST(AllocTest, PaxosPromiseReusesAcceptedScratch) {
  paxos::Config cfg;
  cfg.n = 3;
  cfg.f = 1;
  cfg.initial_leader = 0;
  paxos::PaxosEngine engine(cfg);
  NullContext ctx;
  engine.Bind(/*self=*/1, /*n=*/3, &ctx);
  engine.OnStart();

  // Fill the log as a follower: 256 accepted-but-uncommitted slots. Keys/values are
  // SSO-small so entry copies never need the heap.
  const uint64_t kSlots = 256;
  for (uint64_t slot = 0; slot < kSlots; slot++) {
    msg::PxAccept acc;
    acc.slot = slot;
    acc.ballot = common::InitialBallot(0);
    acc.cmd = smr::MakePut(1, slot + 1, "k", "v");
    engine.OnMessage(0, acc);
  }

  // Warmup prepare: grows the scratch to its high-water mark.
  common::Ballot ballot = 100;
  msg::PxPrepare prep;
  prep.ballot = ballot;
  prep.from_slot = 0;
  engine.OnMessage(0, prep);

  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const uint64_t kPrepares = 50;
  for (uint64_t i = 1; i <= kPrepares; i++) {
    prep.ballot = ballot + i * 3;  // strictly increasing, owned by process 2
    engine.OnMessage(0, prep);
  }
  uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  // Per prepare: one sized vector allocation when the promise is copied into the send
  // envelope. The old code added a growth sequence (~log2(slots) reallocations) per
  // prepare on top.
  EXPECT_LE(allocs, kPrepares * 3) << "phase-1 promises allocated " << allocs
                                   << " times for " << kPrepares << " prepares over "
                                   << kSlots << " slots";
}

// Pins the EPaxos DotMap migration (ROADMAP known-allocation: the last engine on
// hash-map nodes). A replica processing the pre-accept -> commit -> execute stream
// for a steady series of commands must not allocate per command: infos_ slots are
// recycled on execution and seqnos_ grows only on amortized table rehashes —
// unordered_map allocated two fresh hash nodes per command here.
TEST(AllocTest, EPaxosReplicaSteadyStateIsAllocationFree) {
  epaxos::Config cfg;
  cfg.n = 3;
  epaxos::EPaxosEngine engine(cfg);
  NullContext ctx;
  engine.Bind(/*self=*/1, /*n=*/3, &ctx);
  engine.OnStart();

  auto drive_one = [&engine](uint64_t seq) {
    common::Dot dot{0, seq};
    smr::Command cmd = smr::MakePut(1, seq, "key42", "value");
    msg::EpPreAccept pre;
    pre.dot = dot;
    pre.cmd = cmd;
    pre.seqno = seq;
    engine.OnMessage(0, pre);
    msg::EpCommit commit;
    commit.dot = dot;
    commit.cmd = cmd;
    commit.seqno = seq;
    engine.OnMessage(0, commit);  // empty deps: executes immediately, erases infos_
  };

  // Warmup: tables and executor scratch reach their high-water marks.
  for (uint64_t seq = 1; seq <= 512; seq++) {
    drive_one(seq);
  }
  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const uint64_t kCommands = 1000;
  for (uint64_t seq = 1000; seq < 1000 + kCommands; seq++) {
    drive_one(seq);
  }
  uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  // Only seqnos_ growth remains (it keeps every command's sequence number): a
  // couple of rehashes across 1000 commands, not two nodes per command.
  EXPECT_LE(allocs, 16u) << "EPaxos replica path allocated " << allocs
                         << " times for " << kCommands << " commands";
}

// Pins the leader-side pre-accept ack aggregation: a full EPaxos cluster round
// (Submit -> EpPreAccept fan-out -> acks back -> fast-path commit -> execute) must
// not allocate per command on any replica. The command leader used to store every
// EpPreAcceptAck in a per-Info vector until the quorum completed (1-2 vector
// growths per command); acks are now folded into running aggregates (union /
// max / all-match) on arrival, so the whole protocol round is allocation-free
// modulo amortized table growth.
TEST(AllocTest, EPaxosLeaderQuorumPathIsAllocationFree) {
  Simulator::Options opts;
  opts.seed = 7;
  Simulator sim(std::make_unique<UniformLatency>(common::kMillisecond, 0), opts);
  epaxos::Config cfg;
  cfg.n = 3;
  std::vector<std::unique_ptr<epaxos::EPaxosEngine>> engines;
  for (uint32_t i = 0; i < cfg.n; i++) {
    engines.push_back(std::make_unique<epaxos::EPaxosEngine>(cfg));
    sim.AddEngine(engines.back().get());
  }
  sim.Start();

  // Same-key commands: every round carries a real dependency chain, so the acks
  // the leader aggregates have non-empty deps (the case the old code buffered).
  for (uint64_t i = 1; i <= 512; i++) {
    sim.Submit(0, smr::MakePut(1, i, "key42", "value"));
    sim.RunUntilIdle();
  }
  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const uint64_t kCommands = 1000;
  for (uint64_t i = 1000; i < 1000 + kCommands; i++) {
    sim.Submit(0, smr::MakePut(1, i, "key42", "value"));
    sim.RunUntilIdle();
  }
  uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  // Remaining: amortized seqnos_/executed-set growth across three replicas. The
  // old leader-side ack vector alone was ~2 allocations per command.
  EXPECT_LE(allocs, 64u) << "EPaxos cluster rounds allocated " << allocs
                         << " times for " << kCommands << " commands";
}

// Counts the commits that travel without their payload.
class BareCommitCounter final : public FaultHook {
 public:
  void OnSend(ProcessId from, ProcessId to, msg::Message& m, FaultPlan& plan) override {
    const msg::MCommit* commit = msg::get_if<msg::MCommit>(&m);
    if (commit != nullptr && !commit->has_cmd) {
      bare++;
    }
  }
  uint64_t bare = 0;
};

// Pins the Atlas cluster round: Submit -> MCollect fan-out -> acks -> fast-path
// commit (bare to the fast quorum, full to the rest) -> execute allocates nothing
// per command on any replica. The coordinator's collect-ack vector used to grow
// afresh for every command (2 allocations per command at n=3); emptied vectors are
// now handed to the next collect.
TEST(AllocTest, AtlasClusterRoundIsAllocationFree) {
  for (auto [n, f] : {std::pair<uint32_t, uint32_t>{3, 1}, {5, 2}}) {
    Simulator::Options opts;
    opts.seed = 7;
    Simulator sim(std::make_unique<UniformLatency>(common::kMillisecond, 0), opts);
    atlas::Config cfg;
    cfg.n = n;
    cfg.f = f;
    std::vector<std::unique_ptr<atlas::AtlasEngine>> engines;
    for (uint32_t i = 0; i < n; i++) {
      engines.push_back(std::make_unique<atlas::AtlasEngine>(cfg));
      sim.AddEngine(engines.back().get());
    }
    BareCommitCounter counter;
    sim.SetFaultHook(&counter);
    sim.Start();

    // Same-key commands: every collect carries a real dependency chain.
    for (uint64_t i = 1; i <= 512; i++) {
      sim.Submit(0, smr::MakePut(1, i, "key42", "value"));
      sim.RunUntilIdle();
    }
    uint64_t before = g_allocs.load(std::memory_order_relaxed);
    uint64_t bare_before = counter.bare;
    const uint64_t kCommands = 1000;
    for (uint64_t i = 1000; i < 1000 + kCommands; i++) {
      sim.Submit(0, smr::MakePut(1, i, "key42", "value"));
      sim.RunUntilIdle();
    }
    uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
    // Every command commits fast, bare to the fast quorum's other members.
    EXPECT_EQ(counter.bare - bare_before, kCommands * (cfg.FastQuorumSize() - 1))
        << "n=" << n;
    EXPECT_LE(allocs, 64u) << "Atlas cluster rounds at n=" << n << " allocated "
                           << allocs << " times for " << kCommands << " commands";
  }
}

// Pins the refcounted payload pool (src/smr/payload.h): values beyond the inline
// small-buffer threshold land in pooled PayloadBufs that are recycled once the
// last holder drops its reference — copying a Payload bumps a refcount instead of
// duplicating bytes, and steady-state Make() reuses a quiesced slot's capacity.
TEST(AllocTest, PayloadPoolRecyclesLargeValueBuffers) {
  smr::PayloadPool pool;
  std::string big(4096, 'x');  // far beyond Payload::kInlineMax
  auto cycle = [&pool, &big](uint64_t seq) {
    smr::Payload p = pool.Make(big);
    smr::Payload copy = p;  // refcount bump, no byte duplication
    smr::Command cmd = smr::MakePut(1, seq, "k", "v");
    cmd.value = std::move(copy);  // ride through a Command like the flush path
    // cmd, copy, p all die here; the pooled buffer quiesces back to refcount 1.
  };
  for (uint64_t i = 1; i <= 64; i++) {
    cycle(i);  // warmup: pool slots reach their high-water capacity
  }
  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const uint64_t kRounds = 1000;
  for (uint64_t i = 100; i < 100 + kRounds; i++) {
    cycle(i);
  }
  uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_LE(allocs, 8u) << "pooled payload cycling allocated " << allocs
                        << " times for " << kRounds << " rounds";
}

// Pins the decided log behind Atlas/EPaxos recovery (src/smr/decided_log.h): once
// the log has wrapped at the engines' horizon, recording a decided value reuses the
// evicted entry's index slot and recycled chunk bytes.
TEST(AllocTest, DecidedLogRecordAfterWrapIsAllocationFree) {
  smr::DecidedLog log;
  const smr::Command cmd = smr::MakePut(1, 1, "key42", std::string(100, 'v'));
  const DepSet deps{Dot{0, 1}, Dot{1, 2}, Dot{2, 3}};
  uint64_t seq = 1;
  for (; seq <= 2 * smr::kDecidedHorizon; seq++) {
    log.Record(Dot{static_cast<ProcessId>(seq % 3), seq}, cmd, deps, seq);
  }
  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const uint64_t kRecords = 1000;
  for (uint64_t i = 0; i < kRecords; i++, seq++) {
    log.Record(Dot{static_cast<ProcessId>(seq % 3), seq}, cmd, deps, seq);
  }
  uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u) << "decided-log records allocated " << allocs << " times for "
                        << kRecords << " records";
  EXPECT_EQ(log.size(), smr::kDecidedHorizon);
}

// The same at P>1, where each decided value is a kBatch of a dozen client commands:
// the horizon counts those commands, so the log wraps after kDecidedHorizon / 12
// records and then reuses its index slots and chunks just the same.
TEST(AllocTest, DecidedLogBatchedRecordAfterWrapIsAllocationFree) {
  std::vector<smr::Command> subs;
  for (uint64_t i = 1; i <= 12; i++) {
    subs.push_back(smr::MakePut(1, i, "key" + std::to_string(i), std::string(100, 'v')));
  }
  smr::Command batch;
  codec::Writer scratch;
  smr::MakeBatchInto(subs, scratch, batch);
  smr::DecidedLog log;
  const DepSet deps{Dot{0, 1}, Dot{1, 2}, Dot{2, 3}};
  uint64_t seq = 1;
  for (; seq <= 2 * smr::kDecidedHorizon / subs.size(); seq++) {
    log.Record(Dot{static_cast<ProcessId>(seq % 3), seq}, batch, deps, seq);
  }
  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const uint64_t kRecords = 1000;
  for (uint64_t i = 0; i < kRecords; i++, seq++) {
    log.Record(Dot{static_cast<ProcessId>(seq % 3), seq}, batch, deps, seq);
  }
  uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u) << "batched decided-log records allocated " << allocs
                        << " times for " << kRecords << " records";
  EXPECT_EQ(log.size(), smr::kDecidedHorizon / subs.size());
}

// Pins the kBatch encode-scratch reuse (ROADMAP known-allocation): flushing a
// submission batch encodes through the batcher's reused writer, so steady-state
// flushes allocate only the composite's own payload string and key-union vector,
// not a fresh growth sequence of encode buffers per flush.
TEST(AllocTest, BatchEncodeReusesPerShardScratch) {
  // Inner sink engine: swallows submissions (the protocol round is exercised
  // elsewhere; here only the wrapper's batching path is under test).
  class SinkEngine final : public smr::Engine {
   public:
    void Submit(smr::Command cmd) override { submitted_++; }
    void OnMessage(common::ProcessId from, const msg::Message& m) override {}

   private:
    uint64_t submitted_ = 0;
  };

  smr::ShardedOptions so;
  so.partitions = 2;
  so.batch_window = common::kMillisecond;
  so.batch_max = 8;
  smr::ShardedEngine engine(so, [](uint32_t) { return std::make_unique<SinkEngine>(); });
  NullContext ctx;
  engine.Bind(/*self=*/0, /*n=*/3, &ctx);
  engine.OnStart();

  // 8 SSO keys that all route to one shard: every 8th Submit flushes a full batch.
  smr::Partitioner part(so.partitions);
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < 8 && i < 10000; i++) {
    std::string k = "k" + std::to_string(i);
    if (part.ShardOf(k) == 0) {
      keys.push_back(k);
    }
  }
  ASSERT_EQ(keys.size(), 8u);

  auto flush_once = [&engine, &keys](uint64_t round) {
    for (size_t i = 0; i < keys.size(); i++) {
      engine.Submit(smr::MakePut(1, round * 8 + i + 1, keys[i], "value"));
    }
  };
  for (uint64_t round = 1; round <= 32; round++) {
    flush_once(round);  // warmup: writer + pending buffers reach high-water marks
  }
  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const uint64_t kFlushes = 100;
  for (uint64_t round = 100; round < 100 + kFlushes; round++) {
    flush_once(round);
  }
  uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  // Per flush: one sized more_keys vector. The composite's payload now comes from
  // the wrapper's PayloadPool (the inner engine drops the batch, quiescing the
  // buffer for reuse); before the pool it was a fresh heap string per flush, and
  // before the writer scratch a ~log2(payload) growth sequence on top.
  EXPECT_LE(allocs, kFlushes * 2) << "batch flushes allocated " << allocs
                                  << " times for " << kFlushes << " flushes";
}

// Pins the threaded runtime's mailbox edges to the same recycled-slot
// discipline as the simulator's event pool: moving inputs through a bounded
// SPSC ring (src/rt/mailbox.h) must not heap-allocate per item once the ring's
// resident slots are warm. Items are ForwardedSubmits — the item that crosses
// the home-to-owner worker edge per forwarded client request — cycled through
// the ring the way a home/owner pair does (several in flight, so distinct
// slots wrap).
TEST(AllocTest, MailboxSteadyStateIsAllocationFree) {
  rt::Mailbox<rt::ForwardedSubmit> box(8);

  // Four in-flight forwards, as a busy home worker would keep: each carries a
  // put with an SSO-small key/value.
  std::vector<rt::ForwardedSubmit> inflight(4);
  for (uint64_t i = 0; i < inflight.size(); i++) {
    inflight[i].cmd = smr::MakePut(1, i + 1, "key42", "value");
  }

  auto cycle = [&box, &inflight]() {
    for (auto& in : inflight) {
      ASSERT_TRUE(box.TryPush(in));
    }
    for (auto& in : inflight) {
      ASSERT_TRUE(box.TryPop(in));  // moved back out into the same envelope
    }
  };

  for (int i = 0; i < 64; i++) {
    cycle();  // warmup: resident slots absorb the payload buffers
  }
  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const int kCycles = 1000;
  for (int i = 0; i < kCycles; i++) {
    cycle();
  }
  uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_LE(allocs, 8u) << "mailbox push/pop allocated " << allocs << " times for "
                        << kCycles * inflight.size() << " submit transits";
}

// Mailbox storage grows only at a new occupancy high: a worker edge
// (capacity kMailboxCapacity) that has once held 1000 forwards serves any
// later traffic at or below that depth from its recycled blocks. Each cycle
// drains to zero and refills to 1000, so the items land at a different place
// in the block cycle every time.
TEST(AllocTest, MailboxBelowPeakDepthIsAllocationFree) {
  rt::Mailbox<rt::ForwardedSubmit> box(rt::kMailboxCapacity);
  std::vector<rt::ForwardedSubmit> inflight(1000);
  for (uint64_t i = 0; i < inflight.size(); i++) {
    inflight[i].cmd = smr::MakePut(1, i + 1, "key42", "value");
  }
  for (auto& in : inflight) {
    ASSERT_TRUE(box.TryPush(in));  // the one fill to the peak depth
  }

  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const int kCycles = 1000;
  for (int i = 0; i < kCycles; i++) {
    for (auto& in : inflight) {
      ASSERT_TRUE(box.TryPop(in));
    }
    for (auto& in : inflight) {
      ASSERT_TRUE(box.TryPush(in));
    }
  }
  uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u) << "mailbox allocated " << allocs << " times below its "
                        << "peak depth";
}

}  // namespace
}  // namespace sim
