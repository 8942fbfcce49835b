// Microbenchmarks (google-benchmark) for the library's hot paths: dependency-set
// algebra, codec, conflict index, the decided log, the graph executor, the simulator
// deliver path, Zipfian sampling, and the threaded runtime's fixed costs (shard
// runtime set-up and the mailbox hop). Results are mirrored to BENCH_micro.json (see
// bench_json.h).
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "src/codec/codec.h"
#include "src/common/dep_set.h"
#include "src/common/rng.h"
#include "src/exec/graph_executor.h"
#include "src/msg/message.h"
#include "src/rt/mailbox.h"
#include "src/rt/shard_runtime.h"
#include "src/sim/simulator.h"
#include "src/smr/conflict_index.h"
#include "src/smr/decided_log.h"
#include "src/smr/deployment.h"

namespace {

using common::DepSet;
using common::Dot;

std::vector<DepSet> MakeReplies(size_t quorum, size_t deps_per_reply, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<DepSet> replies(quorum);
  for (auto& r : replies) {
    for (size_t i = 0; i < deps_per_reply; i++) {
      r.Insert(Dot{static_cast<common::ProcessId>(rng.Below(5)), 1 + rng.Below(32)});
    }
  }
  return replies;
}

// The engines keep per-engine scratch and call the *Into variants; measure that
// steady-state (allocation-free) path.
void BM_DepSetUnion(benchmark::State& state) {
  auto replies = MakeReplies(static_cast<size_t>(state.range(0)), 8, 1);
  DepSet out;
  for (auto _ : state) {
    common::UnionInto(replies, out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_DepSetUnion)->Arg(4)->Arg(8);

void BM_DepSetThresholdUnion(benchmark::State& state) {
  auto replies = MakeReplies(static_cast<size_t>(state.range(0)), 8, 2);
  common::DepScratch scratch;
  DepSet out;
  for (auto _ : state) {
    common::ThresholdUnionInto(replies, 2, scratch, out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_DepSetThresholdUnion)->Arg(4)->Arg(8);

void BM_FastPathCondition(benchmark::State& state) {
  auto replies = MakeReplies(7, static_cast<size_t>(state.range(0)), 3);
  common::DepScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(common::FastPathCondition(replies, 2, scratch));
  }
}
BENCHMARK(BM_FastPathCondition)->Arg(2)->Arg(16);

void BM_MessageEncodeDecode(benchmark::State& state) {
  msg::MCollect m;
  m.dot = Dot{3, 12345};
  m.cmd = smr::MakePut(7, 99, "user001234", std::string(static_cast<size_t>(
                                                state.range(0)), 'x'));
  m.past = DepSet{Dot{0, 1}, Dot{1, 2}, Dot{2, 3}};
  m.quorum = common::Quorum::Of({0, 1, 2, 3});
  msg::Message wrapped = m;
  for (auto _ : state) {
    codec::Writer w;
    msg::Encode(w, wrapped);
    codec::Reader r(w.buffer());
    msg::Message out;
    bool ok = msg::Decode(r, out);
    benchmark::DoNotOptimize(ok);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(msg::EncodedSize(wrapped)));
}
BENCHMARK(BM_MessageEncodeDecode)->Arg(100)->Arg(3072);

void BM_ConflictIndex(benchmark::State& state) {
  bool compressed = state.range(0) == 1;
  smr::KeyConflictIndex idx(compressed ? smr::IndexMode::kCompressed
                                       : smr::IndexMode::kFull);
  common::Rng rng(5);
  uint64_t seq = 1;
  DepSet scratch;  // engines collect into a reusable scratch set; measure that path
  for (auto _ : state) {
    Dot dot{static_cast<common::ProcessId>(rng.Below(5)), seq++};
    smr::Command cmd = smr::MakePut(1, seq, "key" + std::to_string(rng.Below(64)), "v");
    idx.CollectInto(cmd, dot, scratch);
    benchmark::DoNotOptimize(scratch.size());
    idx.Record(dot, cmd);
  }
}
// Arg(0) = full mode, Arg(1) = compressed; both must stay visible so a regression in
// either indexing strategy shows up.
BENCHMARK(BM_ConflictIndex)->Arg(0)->Arg(1)->ArgName("compressed");

// Simulator deliver path: one Submit broadcasts to the other n-1 processes and the sim
// drains. Exercises the event queue, the egress/FIFO bookkeeping, EncodedSize, and the
// delivery dispatch — the per-message cost every sim-driven bench pays.
class BroadcastEngine final : public smr::Engine {
 public:
  void Submit(smr::Command cmd) override {
    msg::MCommit m;
    m.cmd = std::move(cmd);
    m.dot = Dot{self_, ++seq_};
    m.deps = DepSet{Dot{0, 1}, Dot{1, 2}, Dot{2, 3}};
    for (common::ProcessId p = 0; p < n_; p++) {
      if (p != self_) {
        SendTo(p, m);
      }
    }
  }
  void OnMessage(common::ProcessId from, const msg::Message& m) override { received_++; }

 private:
  uint64_t seq_ = 0;
  uint64_t received_ = 0;
};

void BM_SimulatorDeliver(benchmark::State& state) {
  const uint32_t n = 5;
  sim::Simulator::Options opts;
  opts.seed = 7;
  sim::Simulator sim(std::make_unique<sim::UniformLatency>(common::kMillisecond, 0),
                     opts);
  std::vector<BroadcastEngine> engines(n);
  for (auto& e : engines) {
    sim.AddEngine(&e);
  }
  sim.Start();
  uint64_t client_seq = 0;
  for (auto _ : state) {
    sim.Submit(0, smr::MakePut(1, ++client_seq, "key42", "value"));
    sim.RunUntilIdle();
  }
  state.SetItemsProcessed(static_cast<int64_t>(sim.messages_delivered()));
}
BENCHMARK(BM_SimulatorDeliver);

void BM_GraphExecutorChain(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    uint64_t executed = 0;
    exec::GraphExecutor ex(exec::BatchOrder::kDot,
                           [&](const Dot&, const smr::Command&) { executed++; });
    state.ResumeTiming();
    const uint64_t n = 1000;
    for (uint64_t i = 1; i <= n; i++) {
      DepSet deps;
      if (i > 1) {
        deps.Insert(Dot{0, i - 1});
      }
      ex.Commit(Dot{0, i}, smr::MakePut(1, i, "k", "v"), deps);
    }
    benchmark::DoNotOptimize(executed);
  }
}
BENCHMARK(BM_GraphExecutorChain);

void BM_Zipf(benchmark::State& state) {
  common::Zipf zipf(1'000'000, 0.99);
  common::Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_Zipf);

// Recording a decided value into an engine's smr::DecidedLog once the horizon is
// full, with range(0) client commands per entry: /1 is an unbatched P=1 replica's
// put, /12 a P>1 shard's kBatch. The horizon counts client commands, so both hold
// the same history; held_MB reports the chunk memory that takes, footprint_MB the
// chunks plus the index.
void BM_DecidedLogRecord(benchmark::State& state) {
  const size_t per_entry = static_cast<size_t>(state.range(0));
  std::vector<smr::Command> subs;
  for (uint64_t i = 1; i <= per_entry; i++) {
    subs.push_back(smr::MakePut(1, i, "key" + std::to_string(i), std::string(100, 'v')));
  }
  smr::Command cmd = subs[0];
  if (per_entry > 1) {
    codec::Writer scratch;
    smr::MakeBatchInto(subs, scratch, cmd);
  }
  const DepSet deps{Dot{0, 1}, Dot{1, 2}, Dot{2, 3}};
  smr::DecidedLog log;
  uint64_t seq = 1;
  for (; seq <= 2 * smr::kDecidedHorizon / per_entry; seq++) {
    log.Record(Dot{static_cast<common::ProcessId>(seq % 3), seq}, cmd, deps, seq);
  }
  for (auto _ : state) {
    log.Record(Dot{static_cast<common::ProcessId>(seq % 3), seq}, cmd, deps, seq);
    seq++;
  }
  state.counters["held_MB"] = static_cast<double>(log.held_bytes()) / (1 << 20);
  state.counters["footprint_MB"] = static_cast<double>(log.footprint_bytes()) / (1 << 20);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DecidedLogRecord)->Arg(1)->Arg(12);

// The recovery path's read: answering a late MRec/EpPrepare finds a live dot in a
// full engine-horizon log of 100-byte puts and decodes its value and dependencies.
// The dots visited stride through the live window, so most lookups miss the cache.
void BM_DecidedLogFind(benchmark::State& state) {
  const smr::Command put = smr::MakePut(1, 1, "key42", std::string(100, 'v'));
  const DepSet deps{Dot{0, 1}, Dot{1, 2}, Dot{2, 3}};
  smr::DecidedLog log;
  const uint64_t kRecords = 2 * smr::kDecidedHorizon;
  for (uint64_t seq = 1; seq <= kRecords; seq++) {
    log.Record(Dot{static_cast<common::ProcessId>(seq % 3), seq}, put, deps, seq);
  }
  const uint64_t first_live = kRecords - smr::kDecidedHorizon + 1;
  uint64_t i = 0;
  smr::Command cmd;
  DepSet got;
  for (auto _ : state) {
    const uint64_t seq = first_live + i;
    i = (i + 7919) % smr::kDecidedHorizon;
    bool hit = log.Find(Dot{static_cast<common::ProcessId>(seq % 3), seq}, &cmd, &got);
    benchmark::DoNotOptimize(hit);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DecidedLogFind);

// Per-shard set-up of the threaded runtime: a P=4 ShardRuntime (four workers'
// inboxes and worker-to-worker edges, batch scratch) built and torn down over
// an unstarted deployment. Workers are never spawned, so this is the
// construction cost a node pays before it serves its first command.
void BM_ShardRuntimeConstruct(benchmark::State& state) {
  smr::DeploymentOptions d;
  d.partitions = 4;
  smr::Deployment deployment(d);
  for (auto _ : state) {
    rt::ShardRuntime runtime(&deployment);
    benchmark::DoNotOptimize(runtime.partitions());
  }
}
BENCHMARK(BM_ShardRuntimeConstruct)->Unit(benchmark::kMicrosecond);

// The mailbox hop: one ForwardedSubmit (a client request, the item a home
// worker forwards to the shard's owner) crosses an SPSC edge to a second
// thread and returns on another.
// One iteration is a round trip, i.e. two hops; items/s counts hops.
void BM_MailboxHop(benchmark::State& state) {
  rt::Mailbox<rt::ForwardedSubmit> to_owner(rt::kMailboxCapacity);
  rt::Mailbox<rt::ForwardedSubmit> to_home(rt::kMailboxCapacity);
  std::atomic<bool> stop{false};
  std::thread owner([&]() {
    rt::ForwardedSubmit in;
    while (!stop.load(std::memory_order_relaxed)) {
      if (to_owner.TryPop(in)) {
        while (!to_home.TryPush(in)) {
        }
      }
    }
  });
  rt::ForwardedSubmit item;
  item.cmd = smr::MakePut(1, 1, "key42", "value");
  for (auto _ : state) {
    while (!to_owner.TryPush(item)) {
    }
    while (!to_home.TryPop(item)) {
    }
  }
  stop.store(true, std::memory_order_relaxed);
  owner.join();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_MailboxHop);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  bench::BenchJsonWriter json("micro");
  bench::JsonTeeReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  json.WriteOut();
  benchmark::Shutdown();
  return 0;
}
