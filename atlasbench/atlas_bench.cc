// End-to-end benchmark of the Atlas replica on the loopback TCP runtime.
//
//   atlas_bench --workload NAME --seed N --seconds S --trace 0|1
//
// One process holds the whole system under test: an in-process cluster of
// rt::Node + smr::Deployment replicas (threaded = true) on 127.0.0.1, driven
// by one load-generator thread (this one) over three client connections. No
// message delay is injected, so latency is processor and kernel time only.
//
// A run: set-up (repeated, the median is reported; the last cluster is the
// one measured), a warm-up, an open-loop phase of S/2 seconds at the
// workload's fixed Poisson rate, a drain, a closed-loop phase of S/2 seconds,
// a final drain, then the replicas stop and the outputs are checked. With
// --trace 1 a traced direct-drive simulator run follows (traced_run.h).
//
// Every metric is printed as "name = value unit"; the last line of stdout is
// one JSON object holding the end-to-end metrics (--trace 0) or the per-layer
// ones (--trace 1). The exit code is 0 only when every output check passed.
#include <signal.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.h"
#include "proc_stats.h"
#include "src/rt/node.h"
#include "src/smr/deployment.h"
#include "traced_run.h"
#include "workloads.h"

namespace atlasbench {
namespace {

// Set-ups per run; the median is reported. A set-up is mostly the
// construction of the nodes' shard runtimes (mailbox rings, worker threads),
// whose time varies by about 10% from one set-up to the next.
constexpr int kSetups = 21;
// Longest wait for outstanding replies; a drain ends as soon as none is left.
constexpr double kDrainSec = 10.0;
constexpr uint64_t kTracedOps = 20000;
// Traces and durable logs, relative to the working directory (the checkout).
constexpr const char* kOutDir = ".bench_build/atlasbench";

// The metrics the result line reports; BENCHMARK.json declares the same names.
// Everything else measured is printed for reading only:
//   * wall-clock throughput and latency: on a shared virtual host they move
//     with the host's wake-up and cross-core latency, which changes over
//     minutes, by up to 38% (quartile spread over ten seeds, README.md) on
//     the P = 1 workloads, beyond any regression bound a gate may use, while
//     CPU time per command stays within a few percent;
//   * counters that are zero on every passing run, and values that are zero
//     on some workloads (engine timers fire only at P > 1, the data
//     directory exists only when durable).
const std::vector<const char*> kEndToEnd = {"cpu_us_per_op", "bytes_per_op", "rss_mb",
                                            "setup_s"};
const std::vector<const char*> kPerLayer = {
    "rt.io_cpu_us_per_op",        "rt.worker_cpu_us_per_op",
    "rt.wakeups_per_op",          "smr.ops_per_batch",
    "core.msgs_per_op",           "core.fast_path_ratio",
    "loadgen.cpu_us_per_op",      "loadgen.lag_p99_ms",
    "trace.core.submit_us",       "trace.core.on_message_us",
    "trace.smr.apply_us",         "trace.codec.encode_us",
    "trace.codec.decode_us",      "trace.msgs_per_op.MCollect",
    "trace.msgs_per_op.MCollectAck", "trace.msgs_per_op.MCommit",
    "trace.ops_per_batch",        "trace.fast_path_ratio",
    "trace.total_us_per_op",      "trace.rt_residual_us_per_op",
    "trace.overhead_pct"};

// The replicas of one workload on loopback TCP, each node on its own thread.
class Cluster {
 public:
  Cluster() = default;
  ~Cluster() { Stop(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Binds a free block of ports and starts every node's I/O thread.
  bool Start(const WorkloadSpec& spec, const std::string& data_dir) {
    static uint32_t block = static_cast<uint32_t>(getpid()) * 7u;
    for (int attempt = 0; attempt < 64; attempt++) {
      auto base = static_cast<uint16_t>(15000 + (block++ * 8u) % 15000u);
      std::vector<rt::PeerAddress> addrs;
      for (uint32_t i = 0; i < spec.n; i++) {
        addrs.push_back(rt::PeerAddress{"127.0.0.1", static_cast<uint16_t>(base + i)});
      }
      std::error_code ec;
      std::filesystem::remove_all(data_dir, ec);
      bool bound = true;
      for (uint32_t i = 0; i < spec.n && bound; i++) {
        replicas_.push_back(std::make_unique<smr::Deployment>(
            DeploymentFor(spec, i, data_dir, /*threaded=*/true)));
        nodes_.push_back(std::make_unique<rt::Node>(i, addrs, replicas_.back().get()));
        bound = nodes_.back()->Listen();
      }
      if (!bound) {
        nodes_.clear();
        replicas_.clear();
        continue;
      }
      for (uint32_t i = 0; i < spec.n; i++) {
        ports_.push_back(addrs[i].port);
        threads_.emplace_back([this, i]() { nodes_[i]->Run(); });
      }
      return true;
    }
    return false;
  }

  void Stop() {
    for (auto& node : nodes_) {
      node->Stop();
    }
    for (auto& t : threads_) {
      if (t.joinable()) {
        t.join();
      }
    }
  }

  // CPU seconds of the nodes' I/O threads (the shard workers are not counted).
  double IoCpuSec() {
    double total = 0;
    for (auto& t : threads_) {
      total += ThreadCpuSec(t.native_handle());
    }
    return total;
  }

  // Waits until every replica has applied the same number of client commands,
  // at least `want`; false after max_sec.
  bool WaitConverged(uint64_t want, double max_sec) {
    int64_t deadline = NowNs() + static_cast<int64_t>(max_sec * 1e9);
    while (NowNs() < deadline) {
      uint64_t lo = UINT64_MAX;
      uint64_t hi = 0;
      for (auto& node : nodes_) {
        lo = std::min(lo, node->applied_ops());
        hi = std::max(hi, node->applied_ops());
      }
      if (lo == hi && lo >= want) {
        return true;
      }
      usleep(2000);
    }
    return false;
  }

  const std::vector<uint16_t>& ports() const { return ports_; }
  size_t size() const { return nodes_.size(); }
  rt::Node& node(size_t i) { return *nodes_[i]; }
  smr::Deployment& replica(size_t i) { return *replicas_[i]; }

 private:
  // Declaration order: the nodes borrow the deployments, the threads run the nodes.
  std::vector<std::unique_ptr<smr::Deployment>> replicas_;
  std::vector<std::unique_ptr<rt::Node>> nodes_;
  std::vector<std::thread> threads_;
  std::vector<uint16_t> ports_;
};

// Nearest-rank percentile (q in [0, 1]) of ns samples, in ms.
double PercentileMs(std::vector<int64_t> v, double q) {
  if (v.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(idx), v.end());
  return static_cast<double>(v[idx]) * 1e-6;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

void PrintMetrics(const char* title, const Metrics& m) {
  std::printf("%s\n", title);
  for (const auto& [name, metric] : m) {
    std::printf("  %-34s = %.6g %s\n", name.c_str(), metric.value, metric.unit);
  }
}

// Kernel-side accounting at a phase boundary.
struct Snapshot {
  double process_cpu;
  double loadgen_cpu;
  double io_cpu;
  uint64_t sut_switches;
  uint64_t out_bytes;  // replica TCP payload plus commit-log bytes

  static Snapshot Take(Cluster& cluster, const LoadGen& lg, pid_t loadgen_tid,
                       const std::string& data_dir) {
    return Snapshot{ProcessCpuSec(), SelfCpuSec(), cluster.IoCpuSec(),
                    VoluntarySwitchesExcept({loadgen_tid}),
                    TcpBytesSentExcept(lg.fds()) + FileBytes(data_dir, "log-")};
  }
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds >= 1 &&
         (a->trace == 0 || a->trace == 1);
}

// The cluster under measurement and its load generator.
struct Rig {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<LoadGen> lg;
  std::string data_dir;
  std::vector<double> setup_s;  // one per set-up
};

// Builds the deployments, forms the mesh, connects and waits for the first
// reply, kSetups times. The last cluster stays up to be measured.
void SetUp(const WorkloadSpec& spec, wl::Workload* gen, uint64_t seed,
           const std::string& run_dir, Rig* rig, std::vector<std::string>* errors) {
  std::error_code ec;
  for (int k = 0; k < kSetups && errors->empty(); k++) {
    rig->cluster.reset();
    std::filesystem::remove_all(rig->data_dir, ec);
    rig->data_dir = run_dir + "/data-" + std::to_string(k);
    rig->lg = std::make_unique<LoadGen>(spec, gen, seed);
    int64_t t0 = NowNs();
    rig->cluster = std::make_unique<Cluster>();
    if (!rig->cluster->Start(spec, rig->data_dir)) {
      errors->push_back("could not bind a block of loopback ports");
    } else if (!rig->lg->Connect(rig->cluster->ports()) || !rig->lg->Probe(10.0)) {
      errors->push_back("set-up probe got no reply");
    }
    rig->setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
}

void PrintSeries(const char* name, uint32_t segments,
                 const std::function<double(uint32_t)>& f) {
  std::printf("  %-15s", name);
  for (uint32_t s = 0; s < segments; s++) {
    std::printf(" %.4g", f(s));
  }
  std::printf("\n");
}

// The timed run: warm-up, open loop, closed loop, drain, stop, output checks.
void MeasureTimed(const WorkloadSpec& spec, double seconds, Rig& rig, Metrics* e2e,
                  Metrics* layer, std::vector<std::string>* errors) {
  Cluster& cluster = *rig.cluster;
  LoadGen& lg = *rig.lg;
  const pid_t loadgen_tid = CurrentTid();
  // Each loop is cut into one-second segments and a metric reports the median
  // over segments, so a short disturbance from elsewhere on the host moves a
  // few segments, not the result.
  const auto segments = static_cast<uint32_t>(std::max(1.0, std::round(seconds / 2)));
  const double seg_sec = seconds / 2 / segments;

  // Precise wake-ups for the generator only: the replica threads already
  // exist and keep the default timer slack.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  lg.RunOpen(Phase::kWarmup, std::clamp(seconds / 10, 0.5, 2.0));
  std::vector<Snapshot> snap;
  for (uint32_t s = 0; s < segments; s++) {
    snap.push_back(Snapshot::Take(cluster, lg, loadgen_tid, rig.data_dir));
    lg.RunOpen(Phase::kOpen, seg_sec);
  }
  lg.Drain(kDrainSec);
  snap.push_back(Snapshot::Take(cluster, lg, loadgen_tid, rig.data_dir));
  const double rss_mb = RssMb();
  lg.RunClosed(segments, seg_sec);
  lg.Drain(kDrainSec);
  const bool converged = cluster.WaitConverged(lg.answered() - lg.dropped(), kDrainSec);
  cluster.Stop();

  const auto& open_lat = lg.latencies(Phase::kOpen);
  const auto& closed_lat = lg.latencies(Phase::kClosed);
  auto over_segments = [&](auto f) {
    std::vector<double> v;
    for (uint32_t s = 0; s < segments; s++) {
      v.push_back(f(s));
    }
    return Median(v);
  };
  // Kernel accounting of open-loop segment s, per command sent in it.
  auto per_open_op = [&](uint32_t s, auto field) {
    return static_cast<double>(snap[s + 1].*field - snap[s].*field) /
           static_cast<double>(lg.sent(Phase::kOpen)[s]);
  };
  auto sut_cpu_us = [&](uint32_t s) {
    return (per_open_op(s, &Snapshot::process_cpu) -
            per_open_op(s, &Snapshot::loadgen_cpu)) * 1e6;
  };
  auto io_cpu_us = [&](uint32_t s) { return per_open_op(s, &Snapshot::io_cpu) * 1e6; };
  auto p50 = [&](uint32_t s) { return PercentileMs(open_lat[s], 0.50); };
  auto p99 = [&](uint32_t s) { return PercentileMs(closed_lat[s], 0.99); };
  auto throughput = [&](uint32_t s) {
    return static_cast<double>(lg.closed_completed()[s]) / seg_sec;
  };

  Metrics& m = *e2e;
  m["cpu_us_per_op"] = {over_segments(sut_cpu_us), "us"};
  m["bytes_per_op"] = {
      over_segments([&](uint32_t s) { return per_open_op(s, &Snapshot::out_bytes); }), "B"};
  m["rss_mb"] = {rss_mb, "MB"};
  m["setup_s"] = {Median(rig.setup_s), "s"};
  m["throughput_ops"] = {over_segments(throughput), "ops/s"};
  m["p50_ms"] = {over_segments(p50), "ms"};
  m["p99_ms"] = {over_segments(p99), "ms"};

  smr::EngineStats es;
  uint64_t inputs_dropped = 0;
  for (size_t i = 0; i < cluster.size(); i++) {
    es += cluster.replica(i).stats();
    inputs_dropped += cluster.node(i).shard_runtime()->inputs_dropped();
  }
  const double ops = static_cast<double>(lg.attempted());
  Metrics& l = *layer;
  l["rt.io_cpu_us_per_op"] = {over_segments(io_cpu_us), "us"};
  l["rt.worker_cpu_us_per_op"] = {
      over_segments([&](uint32_t s) { return sut_cpu_us(s) - io_cpu_us(s); }), "us"};
  l["rt.wakeups_per_op"] = {
      over_segments([&](uint32_t s) { return per_open_op(s, &Snapshot::sut_switches); }),
      "count"};
  l["smr.ops_per_batch"] = {ops / static_cast<double>(es.submitted), "count"};
  l["core.msgs_per_op"] = {static_cast<double>(es.messages_sent) / ops, "count"};
  l["core.fast_path_ratio"] = {static_cast<double>(es.fast_paths) /
                                   static_cast<double>(es.fast_paths + es.slow_paths),
                               "ratio"};
  l["loadgen.cpu_us_per_op"] = {over_segments([&](uint32_t s) {
                                  return per_open_op(s, &Snapshot::loadgen_cpu) * 1e6;
                                }),
                                "us"};
  l["loadgen.lag_p99_ms"] = {PercentileMs(lg.lag(), 0.99), "ms"};

  std::vector<int64_t> all_open;
  std::vector<int64_t> all_closed;
  for (uint32_t s = 0; s < segments; s++) {
    all_open.insert(all_open.end(), open_lat[s].begin(), open_lat[s].end());
    all_closed.insert(all_closed.end(), closed_lat[s].begin(), closed_lat[s].end());
  }
  Metrics info;
  info["open_p99_ms"] = {PercentileMs(all_open, 0.99), "ms"};
  info["open_p999_ms"] = {PercentileMs(all_open, 0.999), "ms"};
  info["open_samples"] = {static_cast<double>(all_open.size()), "count"};
  info["closed_p50_ms"] = {PercentileMs(all_closed, 0.50), "ms"};
  info["closed_samples"] = {static_cast<double>(all_closed.size()), "count"};
  info["rss_end_mb"] = {RssMb(), "MB"};
  info["loadgen.open_cap_waits"] = {static_cast<double>(lg.held()), "count"};
  info["rt.inputs_dropped"] = {static_cast<double>(inputs_dropped), "count"};
  info["core.recoveries"] = {static_cast<double>(es.recoveries_started), "count"};
  info["dur.bytes_per_op"] = {static_cast<double>(FileBytes(rig.data_dir)) / ops, "B"};
  PrintMetrics("end-to-end (median over segments):", m);
  PrintMetrics("per-layer (timed run):", l);
  PrintMetrics("not gated:", info);
  std::printf("segments (%u x %.3g s):\n", segments, seg_sec);
  PrintSeries("cpu_us_per_op", segments, sut_cpu_us);
  PrintSeries("p50_ms", segments, p50);
  PrintSeries("p99_ms", segments, p99);
  PrintSeries("throughput_ops", segments, throughput);
  std::printf("set-ups:\n");
  PrintSeries("setup_s", static_cast<uint32_t>(rig.setup_s.size()),
              [&](uint32_t k) { return rig.setup_s[k]; });

  // ---- Output checks. ----
  if (lg.outstanding() != 0 || lg.dropped() != 0 || lg.io_errors() != 0) {
    errors->push_back(std::to_string(lg.outstanding()) + " unanswered, " +
                      std::to_string(lg.dropped()) + " dropped, " +
                      std::to_string(lg.io_errors()) + " broken connections");
  }
  if (lg.unknown_replies() != 0) {
    errors->push_back(std::to_string(lg.unknown_replies()) +
                      " duplicate or unmatched replies");
  }
  if (lg.bad_values() != 0) {
    errors->push_back(std::to_string(lg.bad_values()) + " replies with a wrong value");
  }
  if (inputs_dropped != 0) {
    errors->push_back(std::to_string(inputs_dropped) + " inputs dropped by shard inboxes");
  }
  if (!converged) {
    errors->push_back("replicas did not apply the same commands within the drain");
  }
  if (m["bytes_per_op"].value <= 0) {
    errors->push_back("no byte counter in TCP_INFO");
  }
  for (uint32_t s = 0; s < spec.partitions; s++) {
    for (size_t i = 1; i < cluster.size(); i++) {
      if (cluster.replica(i).store(s).StateDigest() !=
              cluster.replica(0).store(s).StateDigest() ||
          cluster.replica(i).applied_count(s) != cluster.replica(0).applied_count(s)) {
        errors->push_back("replica " + std::to_string(i) + " diverged on shard " +
                          std::to_string(s));
      }
    }
  }
}

// The traced direct-drive run: adds its metrics to `layer`.
void MeasureTraced(const WorkloadSpec& spec, uint64_t seed, const std::string& run_dir,
                   double cpu_us_per_op, Metrics* layer, std::vector<std::string>* errors) {
  const std::string json_path = std::string(kOutDir) + "/trace-" + spec.name + ".json";
  TraceResult tr = RunTraced(spec, seed, kTracedOps, run_dir, json_path);
  if (!tr.ok) {
    errors->push_back(tr.error);
    return;
  }
  Metrics traced;
  for (const auto& [name, us] : tr.self_us_per_op) {
    traced["trace." + name + "_us"] = {us, "us"};
  }
  for (const auto& [kind, n] : tr.msgs_per_op) {
    traced["trace.msgs_per_op." + kind] = {n, "count"};
  }
  traced["trace.total_us_per_op"] = {tr.total_us_per_op, "us"};
  traced["trace.rt_residual_us_per_op"] = {cpu_us_per_op - tr.total_us_per_op, "us"};
  traced["trace.overhead_pct"] = {tr.overhead_pct, "%"};
  traced["trace.ops_per_batch"] = {tr.ops_per_batch, "count"};
  traced["trace.fast_path_ratio"] = {tr.fast_path_ratio, "ratio"};
  PrintMetrics("per-layer (traced run):", traced);
  std::printf("  %llu spans, %llu written to %s\n", static_cast<unsigned long long>(tr.spans),
              static_cast<unsigned long long>(tr.spans_written), json_path.c_str());
  layer->insert(traced.begin(), traced.end());
}

int Main(int argc, char** argv) {
  // A peer or client socket closed under a write must fail the write with
  // EPIPE, not kill the process.
  signal(SIGPIPE, SIG_IGN);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: atlas_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload.c_str());
  if (spec == nullptr) {
    std::fprintf(stderr, "atlas_bench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string run_dir = std::string(kOutDir) + "/run-" + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(run_dir, ec);
  std::vector<std::string> errors;
  std::unique_ptr<wl::Workload> gen = MakeGenerator(*spec);

  Rig rig;
  Metrics e2e;
  Metrics layer;
  SetUp(*spec, gen.get(), args.seed, run_dir, &rig, &errors);
  if (errors.empty()) {
    MeasureTimed(*spec, args.seconds, rig, &e2e, &layer, &errors);
  }
  if (args.trace == 1 && errors.empty()) {
    MeasureTraced(*spec, args.seed, run_dir, e2e["cpu_us_per_op"].value, &layer, &errors);
  }
  rig.cluster.reset();
  std::filesystem::remove_all(run_dir, ec);

  const Metrics& measured = args.trace == 1 ? layer : e2e;
  const auto& reported = args.trace == 1 ? kPerLayer : kEndToEnd;
  if (errors.empty()) {
    for (const char* name : reported) {
      if (measured.count(name) == 0) {
        errors.push_back(std::string("metric ") + name + " was not measured");
      }
    }
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "atlas_bench: CHECK FAILED: %s\n", e.c_str());
  }
  const bool correct = errors.empty();
  const LoadGen* lg = rig.lg.get();
  const uint64_t attempted = lg != nullptr ? lg->attempted() : 0;
  const uint64_t good = lg != nullptr ? lg->answered() - lg->dropped() - lg->bad_values() : 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(attempted - std::min(attempted, good)));
  const char* sep = "";
  for (const char* name : reported) {
    auto it = measured.find(name);
    if (it != measured.end()) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name,
                  it->second.value, it->second.unit);
      sep = ", ";
    }
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace atlasbench

int main(int argc, char** argv) { return atlasbench::Main(argc, argv); }
