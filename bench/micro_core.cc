// Microbenchmarks (google-benchmark) for the library's hot paths: dependency-set
// algebra, codec, conflict index, the graph executor, the simulator deliver path,
// Zipfian sampling, and the threaded runtime's fixed costs (shard runtime set-up and
// the mailbox hop). Results are mirrored to BENCH_micro.json (see bench_json.h).
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <thread>

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

// Per-shard set-up of the threaded runtime: a P=4 ShardRuntime (four workers'
// inbox/outbox pairs, batch scratch) built and torn down over an unstarted
// deployment. Workers are never spawned, so this is the construction cost a
// node pays before it serves its first command.
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

// The mailbox hop: one ShardInput (an MCommit envelope, as the I/O thread
// routes) crosses an SPSC edge to a second thread and returns on another.
// One iteration is a round trip, i.e. two hops; items/s counts hops.
void BM_MailboxHop(benchmark::State& state) {
  rt::Mailbox<rt::ShardInput> to_worker(rt::kMailboxCapacity);
  rt::Mailbox<rt::ShardInput> to_io(rt::kMailboxCapacity);
  std::atomic<bool> stop{false};
  std::thread worker([&]() {
    rt::ShardInput in;
    while (!stop.load(std::memory_order_relaxed)) {
      if (to_worker.TryPop(in)) {
        while (!to_io.TryPush(in)) {
        }
      }
    }
  });
  msg::MCommit m;
  m.cmd = smr::MakePut(1, 1, "key42", "value");
  m.dot = Dot{0, 1};
  m.deps = DepSet{Dot{0, 1}};
  rt::ShardInput item;
  item.kind = rt::ShardInput::Kind::kMessage;
  item.m = msg::Message{std::move(m)};
  for (auto _ : state) {
    while (!to_worker.TryPush(item)) {
    }
    while (!to_io.TryPop(item)) {
    }
  }
  stop.store(true, std::memory_order_relaxed);
  worker.join();
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
