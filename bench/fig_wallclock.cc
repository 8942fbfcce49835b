// Closed-loop wall-clock benchmark over loopback TCP (thread-per-shard runtime).
//
// Real sockets, real threads, real time — the wall-clock counterpart to the
// deterministic simulated sweeps: 3 replicas on 127.0.0.1 running the
// thread-per-shard runtime (P worker threads per node, each owning its
// shard's peer sockets and the clients homed on it), swept over
// P ∈ {1, 2, 4, 8} × protocol {atlas, epaxos, mencius}. The workload shape
// follows FoundationDB's Throughput-style closed-loop clients: one pipelined
// client per node with a fixed window of outstanding 100-byte puts over
// private keys (closed loop with concurrency W, not open-loop arrivals — a
// reply immediately funds the next request).
// Throughput is completions per second in the measure window; per-op sojourn
// latency percentiles come from common::Histogram.
//
// Offered load scales with provisioned capacity (window W ∝ P), the same
// closed-loop scale-out methodology as fig_shard: per-(node, shard) in-flight
// cohorts stay constant across the sweep, so high-P points are not starved of
// batching by construction. P = 1 is the unbatched single-worker baseline (the
// deployment ignores the batch window at P = 1, matching the seed semantics);
// P > 1 amortizes the per-command protocol round — dependency bookkeeping plus
// ~4(n-1) message encodes/decodes per command — over submission batches. The
// I/O-tier syscall coalescing (per-socket write batching, burst reads) helps
// every point equally, so the sweep isolates the batching + multi-worker
// effect; on single-core CI runners parallelism contributes nothing and the
// remaining speedup is round amortization alone.
//
// Emits BENCH_wallclock.json: per-point throughput + p50/p95/p99, plus the
// acceptance ratios per protocol. One ratio is gated, by tools/bench_check.sh:
// P=8 strictly > P=2 (the inversion gate — it holds everywhere). P=8 vs P=1
// is reported only: on a single-core host parallelism contributes nothing,
// the entire speedup is round amortization, and its ceiling is per-op fixed
// cost (execution at every replica + client I/O, ~10us/op here) over batched
// round cost — measured at 1.1–1.5x there, and 1.6–2.2x on 4 cores. The
// checked-in JSON records the host's core count alongside the ratios so the
// two regimes aren't conflated. --smoke shrinks the windows for CI.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "src/common/histogram.h"
#include "src/rt/node.h"
#include "src/smr/deployment.h"

namespace {

constexpr uint32_t kNodes = 3;
// Outstanding requests per partition per client connection: window W = this x P,
// keeping each (node, shard) in-flight cohort constant across the sweep.
constexpr size_t kWindowPerPartition = 16;

struct PointSpec {
  smr::Protocol protocol = smr::Protocol::kAtlas;
  const char* proto_name = "atlas";
  uint32_t partitions = 1;
  size_t window = 0;  // outstanding ops per client connection
  double warmup_sec = 1.0;
  double measure_sec = 4.0;
  uint16_t port_base = 0;
  std::string data_dir;  // non-empty = durable replicas (commit log + snapshots)
};

struct PointResult {
  double throughput = 0;  // completed ops per wall-clock second (measure window)
  uint64_t completed = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  bool ok = false;
};

// One sweep point: brings up a fresh 3-node threaded cluster on loopback,
// drives it with closed-loop client threads, measures a wall-clock window.
PointResult RunPoint(const PointSpec& spec) {
  PointResult res;
  for (int attempt = 0; attempt < 5; attempt++) {
    uint16_t base = static_cast<uint16_t>(spec.port_base + attempt * 4 +
                                          (getpid() % 512));
    std::vector<rt::PeerAddress> addrs;
    for (uint32_t i = 0; i < kNodes; i++) {
      addrs.push_back(rt::PeerAddress{"127.0.0.1", static_cast<uint16_t>(base + i)});
    }
    smr::DeploymentOptions d;
    d.protocol = spec.protocol;
    d.n = kNodes;
    d.f = 1;
    d.partitions = spec.partitions;
    // Ignored at P = 1 (unbatched baseline); at P > 1 every worker drains its
    // submission batch once per window. 1ms is far above the doorbell's poll
    // granularity and far below client-visible latency targets.
    d.batch_window = 1 * common::kMillisecond;
    std::vector<std::unique_ptr<smr::Deployment>> replicas;
    if (!spec.data_dir.empty()) {
      // Fresh subtree per attempt so a retried bind never recovers the state a
      // failed attempt logged.
      d.data_dir = spec.data_dir + "/try" + std::to_string(attempt);
    }
    std::vector<std::unique_ptr<rt::Node>> nodes;
    bool bind_ok = true;
    for (uint32_t i = 0; i < kNodes; i++) {
      smr::DeploymentOptions di = d;
      if (!di.data_dir.empty()) {
        di.data_dir += "/site-" + std::to_string(i);
      }
      replicas.push_back(std::make_unique<smr::Deployment>(std::move(di)));
      nodes.push_back(std::make_unique<rt::Node>(i, addrs, replicas[i].get()));
      if (!nodes.back()->Listen()) {
        bind_ok = false;
        break;
      }
    }
    if (!bind_ok) {
      continue;  // port block in use; try the next one
    }
    std::vector<std::thread> node_threads;
    for (uint32_t i = 0; i < kNodes; i++) {
      node_threads.emplace_back([&, i]() { nodes[i]->Run(); });
    }

    // 0 = warmup, 1 = measuring, 2 = stop. An op counts toward the window iff
    // its reply arrived inside it (per-op sojourn latency under pipelining).
    std::atomic<int> phase{0};
    std::atomic<uint64_t> completed{0};
    std::atomic<int> failures{0};
    std::vector<common::Histogram> hists(kNodes);
    std::vector<std::thread> clients;
    const std::string value(100, 'x');
    for (uint32_t c = 0; c < kNodes; c++) {
      clients.emplace_back([&, c]() {
        rt::Client client("127.0.0.1", addrs[c].port);
        bool connected = false;
        for (int i = 0; i < 200 && !connected; i++) {
          connected = client.Connect();
          if (!connected) {
            usleep(20 * 1000);
          }
        }
        if (!connected) {
          failures.fetch_add(1);
          return;
        }
        uint64_t seq = 0;
        // Send timestamps keyed by seq slot; replies on one connection can
        // complete out of order (independent shards), but never lap the window.
        std::vector<std::chrono::steady_clock::time_point> sent(2 * spec.window);
        auto send_next = [&]() {
          seq++;
          // Private per-client keys, hot-slot cycle: single-key (shard-local)
          // commands that the hash partitioner spreads over every partition.
          std::string key =
              "c" + std::to_string(c) + "-k" + std::to_string(seq % 64);
          sent[seq % sent.size()] = std::chrono::steady_clock::now();
          return client.Send(smr::MakePut(c + 1, seq, std::move(key), value));
        };
        for (size_t i = 0; i < spec.window; i++) {
          if (!send_next()) {
            failures.fetch_add(1);
            return;
          }
        }
        std::string result;
        uint64_t got_seq = 0;
        while (phase.load(std::memory_order_relaxed) != 2) {
          if (!client.RecvReply(&got_seq, &result)) {
            failures.fetch_add(1);
            return;
          }
          if (phase.load(std::memory_order_relaxed) == 1) {
            auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() -
                          sent[got_seq % sent.size()])
                          .count();
            hists[c].Record(us);
            completed.fetch_add(1, std::memory_order_relaxed);
          }
          if (!send_next()) {
            failures.fetch_add(1);
            return;
          }
        }
      });
    }

    auto sleep_sec = [](double s) {
      usleep(static_cast<useconds_t>(s * 1e6));
    };
    sleep_sec(spec.warmup_sec);
    phase.store(1);
    auto m0 = std::chrono::steady_clock::now();
    sleep_sec(spec.measure_sec);
    phase.store(2);
    double measured =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - m0)
            .count();
    for (auto& t : clients) {
      t.join();
    }
    for (auto& node : nodes) {
      node->Stop();
    }
    for (auto& t : node_threads) {
      t.join();
    }
    if (failures.load() != 0) {
      std::fprintf(stderr, "fig_wallclock: %d client failures at %s P=%u\n",
                   failures.load(), spec.proto_name, spec.partitions);
      return res;
    }
    common::Histogram all;
    for (const auto& h : hists) {
      all.Merge(h);
    }
    res.completed = completed.load();
    res.throughput = measured > 0 ? static_cast<double>(res.completed) / measured : 0;
    res.p50_ms = static_cast<double>(all.Percentile(50)) / 1000.0;
    res.p95_ms = static_cast<double>(all.Percentile(95)) / 1000.0;
    res.p99_ms = static_cast<double>(all.Percentile(99)) / 1000.0;
    res.ok = true;
    return res;
  }
  std::fprintf(stderr, "fig_wallclock: could not bind a port block (%s P=%u)\n",
               spec.proto_name, spec.partitions);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  const double warmup_sec = smoke ? 0.3 : 1.0;
  const double measure_sec = smoke ? 0.8 : 4.0;

  struct Proto {
    smr::Protocol protocol;
    const char* name;
  };
  const Proto protos[] = {{smr::Protocol::kAtlas, "atlas"},
                          {smr::Protocol::kEPaxos, "epaxos"},
                          {smr::Protocol::kMencius, "mencius"}};
  const uint32_t sweep[] = {1, 2, 4, 8};

  std::printf("=== Wall-clock loopback TCP: thread-per-shard runtime ===\n");
  std::printf(
      "(3 nodes, f=1, 1 pipelined client/node, window = %zu x P each, 100B "
      "puts, %s)\n\n",
      kWindowPerPartition, smoke ? "smoke windows" : "full windows");
  std::printf("%-8s  %-3s  %8s  %10s  %9s  %9s  %9s\n", "proto", "P", "inflight",
              "ops/sec", "p50", "p95", "p99");

  bench::BenchJsonWriter json("wallclock");
  bool all_ok = true;
  uint16_t port_block = 47000;
  // Throwaway root for the durability points' logs/snapshots.
  char dur_template[] = "/tmp/atlas_wallclock_dur_XXXXXX";
  const char* mk = mkdtemp(dur_template);
  const std::string dur_root = mk != nullptr ? mk : "/tmp/atlas_wallclock_dur";
  for (const Proto& proto : protos) {
    double tp[9] = {0};  // throughput indexed by P
    for (uint32_t partitions : sweep) {
      PointSpec spec;
      spec.protocol = proto.protocol;
      spec.proto_name = proto.name;
      spec.partitions = partitions;
      spec.window = kWindowPerPartition * partitions;
      spec.warmup_sec = warmup_sec;
      spec.measure_sec = measure_sec;
      spec.port_base = port_block;
      port_block = static_cast<uint16_t>(port_block + 24);
      PointResult r = RunPoint(spec);
      all_ok = all_ok && r.ok;
      tp[partitions] = r.throughput;
      std::printf("%-8s  %-3u  %8zu  %10.0f  %7.1fms  %7.1fms  %7.1fms\n",
                  proto.name, partitions, spec.window * kNodes, r.throughput,
                  r.p50_ms, r.p95_ms, r.p99_ms);
      char name[64];
      std::snprintf(name, sizeof(name), "wallclock_%s_p%u", proto.name, partitions);
      json.Add(name, r.p50_ms * 1e6, /*bytes_per_sec=*/0,
               /*items_per_sec=*/r.throughput);
      std::snprintf(name, sizeof(name), "wallclock_%s_p%u_p95", proto.name,
                    partitions);
      json.Add(name, r.p95_ms * 1e6, 0, 0);
      std::snprintf(name, sizeof(name), "wallclock_%s_p%u_p99", proto.name,
                    partitions);
      json.Add(name, r.p99_ms * 1e6, 0, 0);
    }
    double p8_vs_p1 = tp[1] > 0 ? tp[8] / tp[1] : 0;
    double p8_vs_p2 = tp[2] > 0 ? tp[8] / tp[2] : 0;
    std::printf("%-8s  P=8 vs P=1: %.2fx   P=8 vs P=2: %.2fx (floor 1x)\n",
                proto.name, p8_vs_p1, p8_vs_p2);
    char name[64];
    std::snprintf(name, sizeof(name), "wallclock_%s_p8_vs_p1", proto.name);
    json.Add(name, 0, 0, p8_vs_p1);
    std::snprintf(name, sizeof(name), "wallclock_%s_p8_vs_p2", proto.name);
    json.Add(name, 0, 0, p8_vs_p2);

    // The durability column: the P=4 point again with the per-shard commit
    // log + snapshots on (batched fsync, the default). Records what
    // persistence costs end to end on this host's filesystem; warn-only in
    // bench_check — raw fsync behaviour is too host-dependent to gate.
    {
      PointSpec spec;
      spec.protocol = proto.protocol;
      spec.proto_name = proto.name;
      spec.partitions = 4;
      spec.window = kWindowPerPartition * 4;
      spec.warmup_sec = warmup_sec;
      spec.measure_sec = measure_sec;
      spec.port_base = port_block;
      port_block = static_cast<uint16_t>(port_block + 24);
      spec.data_dir = dur_root + "/" + proto.name;
      PointResult r = RunPoint(spec);
      all_ok = all_ok && r.ok;
      double vs_inline = tp[4] > 0 ? r.throughput / tp[4] : 0;
      std::printf(
          "%-8s  4+dur %6zu  %10.0f  %7.1fms  %7.1fms  %7.1fms  (%.2fx "
          "inline, fsync=batch)\n",
          proto.name, spec.window * kNodes, r.throughput, r.p50_ms, r.p95_ms,
          r.p99_ms, vs_inline);
      std::snprintf(name, sizeof(name), "wallclock_%s_p4_durable", proto.name);
      json.Add(name, r.p50_ms * 1e6, 0, r.throughput);
      std::snprintf(name, sizeof(name), "wallclock_%s_p4_durable_vs_inline",
                    proto.name);
      json.Add(name, 0, 0, vs_inline);
    }
  }
  // Provenance: P>1 speedups are amortization-only below ~4 cores (see header).
  json.Add("wallclock_host_cores", 0, 0,
           static_cast<double>(std::thread::hardware_concurrency()));
  json.WriteOut();
  std::error_code ec;
  std::filesystem::remove_all(dur_root, ec);
  return all_ok ? 0 : 1;
}
