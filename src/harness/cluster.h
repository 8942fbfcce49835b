// Simulated cluster harness: builds a protocol deployment over the WAN model, attaches
// closed-loop clients, failure injection and metrics — the machinery behind every
// benchmark and integration test.
#ifndef SRC_HARNESS_CLUSTER_H_
#define SRC_HARNESS_CLUSTER_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/chk/checker.h"
#include "src/common/histogram.h"
#include "src/common/timeseries.h"
#include "src/common/types.h"
#include "src/kvs/kvs.h"
#include "src/sim/simulator.h"
#include "src/smr/conflict_index.h"
#include "src/smr/deployment.h"
#include "src/smr/engine.h"
#include "src/wl/workload.h"

namespace harness {

// Protocol selection lives with the replica assembly layer now; the harness names
// are aliases so existing call sites (tests, benches) read unchanged.
using Protocol = smr::Protocol;
using smr::ProtocolName;

struct ClusterOptions {
  Protocol protocol = Protocol::kAtlas;
  uint32_t f = 1;
  bool nfr = false;
  bool prune_slow_path = true;
  smr::IndexMode index_mode = smr::IndexMode::kCompressed;

  // Site placement: indexes into sim::AllRegions().
  std::vector<size_t> site_regions;

  uint64_t seed = 1;
  double jitter_frac = 0.02;
  bool fifo_links = true;

  // Egress model (0 = unconstrained). ~128 MB/s with a 25us per-message CPU cost
  // approximates the paper's n1-standard-8 nodes closely enough to reproduce the
  // saturation shapes of Figures 6 and 7.
  double egress_bytes_per_sec = 0;
  common::Duration per_message_cost = 0;

  // FPaxos/Paxos leader; kInvalidProcess selects the fairest site automatically.
  common::ProcessId leader = common::kInvalidProcess;

  // Record histories and verify the SMR specification at Finish().
  bool enable_checker = false;

  // Recovery knobs forwarded to every site's deployment (see DeploymentOptions);
  // all 0 keeps the failure-free defaults.
  common::Duration commit_timeout = 0;
  common::Duration recovery_scan_interval = 0;
  common::Duration recovery_retry_interval = 0;
  common::Duration revoke_retry_interval = 0;

  // Bounds client-side resubmission (ClientSpec::retry_timeout): after this many
  // retries of one operation the client gives up on it and moves on, bumping
  // gave_up() — which Finish() reports as a liveness failure when the checker is
  // enabled. 0 keeps the legacy unbounded behaviour.
  uint32_t max_client_retries = 0;

  // Durable persistence (see src/dur): when non-empty, every site commit-logs
  // its executed commands and snapshots under data_dir/site-N, and a scheduled
  // restart recovers that site's stores from disk (snapshot + log tail) instead
  // of rebuilding them empty. Simulations default to no real fsync — the
  // simulated crash model only needs the on-disk bytes, not their ordering
  // against power loss; the TCP runtime picks its own mode.
  std::string data_dir;
  uint64_t snapshot_every = 4096;
  dur::FsyncMode fsync_mode = dur::FsyncMode::kNone;

  // Partitioned replicas: each site runs `partitions` independent engines behind a
  // smr::ShardedEngine, with per-(site, partition) stores and per-partition checkers.
  // partitions == 1 is one unbatched shard, behaviour-identical to the classic
  // single-engine deployment (seeded runs stay byte-identical; the determinism
  // pins enforce this).
  uint32_t partitions = 1;
  // Submission batching on sharded replicas (ignored when partitions == 1, which
  // must stay identical to the unbatched seed): commands arriving at one (site,
  // partition) within the window coalesce into a single kBatch protocol command.
  common::Duration batch_window = 0;
  size_t batch_max = 64;
};

struct ClientSpec {
  size_t region = 0;  // index into sim::AllRegions()
  std::shared_ptr<wl::Workload> workload;
  uint64_t max_ops = ~uint64_t{0};
  common::Duration think_time = 0;
  // Client-side retry: if an operation does not complete within this delay, it is
  // resubmitted under a fresh sequence number (at-least-once). 0 disables retries.
  common::Duration retry_timeout = 0;
};

struct Metrics {
  common::Histogram latency;         // client-perceived, within the measure window
  common::Histogram commit_latency;  // submit -> commit at the submitting site
  // Unweighted average of per-client mean latencies (closed-loop clients complete ops
  // at different rates, so the per-op mean under-weights slow clients; the paper's
  // "average latency" and optimal bars are per-client).
  double per_client_mean_us = 0;
  uint64_t completed_in_window = 0;
  double window_seconds = 0;
  uint64_t bytes_sent = 0;     // total wire bytes, whole run
  double fast_path_ratio = 0;  // over coordinated commands, whole run
  uint64_t fast_paths = 0;
  uint64_t slow_paths = 0;
  uint64_t total_executions = 0;  // engine-level; a kBatch counts once
  size_t max_batch = 0;
  // Partitioned deployments: engine stats aggregated across sites, one entry per
  // partition (empty when partitions == 1). Load balance across shards is the
  // fig-shard sweep's sanity metric.
  std::vector<smr::EngineStats> per_shard;

  double ThroughputOpsPerSec() const {
    return window_seconds > 0 ? static_cast<double>(completed_in_window) / window_seconds
                              : 0;
  }
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions opts);
  ~Cluster();

  // Adds `count` clients with the given spec. Call before Start().
  void AddClients(const ClientSpec& spec, size_t count);

  // Builds engines and starts client loops. Call once.
  void Start();

  // Advances simulated time.
  void RunFor(common::Duration d);

  // Sets the measurement window for latency/throughput metrics (absolute sim times).
  void SetMeasureWindow(common::Time start, common::Time end);

  // Crashes a site at `at`; all surviving replicas suspect it (and clients of that
  // site reconnect to their closest alive site) after `detection_timeout`.
  void ScheduleCrash(common::ProcessId site, common::Time at,
                     common::Duration detection_timeout);

  // Restarts a previously crashed site at `at`: tears down its deployment, builds a
  // fresh one (crash-stop with amnesia), seeds the dead incarnation's stable-storage
  // floors, gives the new incarnation its own checker column, and notifies the
  // surviving replicas (OnRestore) so they clear suspicion and take over recovery of
  // the dead incarnation's abandoned commands.
  void ScheduleRestart(common::ProcessId site, common::Time at);

  // Stops clients from issuing new commands (lets the system drain).
  void StopClients();

  Metrics Snapshot() const;
  // Per-site completed ops, 1-second buckets (Figure 8).
  const common::TimeSeries& SiteThroughput(common::ProcessId site) const;
  common::TimeSeries AggregateThroughput() const;

  // Drains in-flight work and validates the execution history (requires
  // enable_checker); aborts the process on violation when `abort_on_error`.
  chk::CheckResult Finish(bool abort_on_error = true);

  // Execution trace (recorded when the checker is enabled), for debugging and tests.
  struct ExecRecord {
    common::ProcessId process;
    common::Dot dot;
    smr::Command cmd;
  };
  const std::vector<ExecRecord>& ExecTrace() const { return exec_trace_; }

  sim::Simulator& simulator() { return *sim_; }
  smr::Engine& engine(common::ProcessId p) { return replicas_[p]->engine(); }
  smr::Deployment& replica(common::ProcessId p) { return *replicas_[p]; }
  // Per-(site, partition) service replica. The one-argument form is partition 0 —
  // the whole store at P=1. The harness always deploys the default state
  // machine, so the KvStore downcast is safe.
  const kvs::KvStore& store(common::ProcessId p, uint32_t shard = 0) const {
    return static_cast<const kvs::KvStore&>(replicas_[p]->store(shard));
  }
  uint32_t n() const { return static_cast<uint32_t>(opts_.site_regions.size()); }
  uint32_t partitions() const { return opts_.partitions; }
  common::ProcessId leader() const { return leader_; }
  uint64_t total_completed() const { return total_completed_; }
  // Operations abandoned after max_client_retries unsuccessful resubmissions.
  uint64_t gave_up() const { return gave_up_; }
  // Whether the site has been through a crash/restart cycle (its store digests are
  // not comparable to full replicas; see Finish).
  bool Restarted(common::ProcessId site) const { return site_restarted_[site]; }
  // Clients still waiting on an operation. Nonzero after Finish() means an op is
  // wedged: neither completed, resubmitted, nor given up.
  uint64_t InFlightClients() const {
    uint64_t stuck = 0;
    for (const auto& c : clients_) {
      if (c.in_flight) {
        stuck++;
      }
    }
    return stuck;
  }

 private:
  struct Client {
    uint64_t id = 0;
    size_t region = 0;
    size_t site = 0;  // index into site_regions
    std::shared_ptr<wl::Workload> workload;
    uint64_t next_seq = 1;
    uint64_t issued = 0;
    uint64_t max_ops = ~uint64_t{0};
    common::Duration think_time = 0;
    common::Duration retry_timeout = 0;
    uint64_t attempts = 0;  // retry-timeout resubmissions of the current op
    bool in_flight = false;
    bool stopped = false;
    common::Time submit_time = 0;     // measured from client submit
    smr::Command current;             // in-flight command
    double window_latency_sum = 0;    // within the measure window
    uint64_t window_latency_count = 0;
  };

  void BuildReplicas();
  smr::DeploymentOptions MakeDeploymentOptions(common::ProcessId site) const;
  void RestartSite(common::ProcessId site);
  void IssueNext(uint64_t client_index);
  void OnExecuted(common::ProcessId p, const common::Dot& dot, const smr::Command& cmd);
  // Accounts one applied (non-composite) command at site p: checker history,
  // execution trace, client completion. Store apply and applied counts already
  // happened inside the site's Deployment.
  void AccountExecuted(common::ProcessId p, const common::Dot& dot, uint32_t shard,
                       const smr::Command& cmd);
  void OnCommitted(common::ProcessId p, const common::Dot& dot, const smr::Command& cmd,
                   bool fast);
  void CommitOne(common::ProcessId p, const smr::Command& cmd);
  void OnDropped(common::ProcessId p, const common::Dot& dot, const smr::Command& orig);
  void DropOne(const smr::Command& orig);
  void CompleteClient(uint64_t client_index, common::Time completion_time);
  void MigrateClients(common::ProcessId dead_site);

  // Partition of a client command's key, for checker routing. Delegates to the
  // replica assembly's partitioner so the key-to-shard policy has one definition
  // (every site's deployment shares the same partitioner configuration).
  uint32_t ShardOfCmd(const smr::Command& cmd) const {
    return replicas_[0]->partitioner().ShardOf(cmd.key);
  }

  ClusterOptions opts_;
  std::unique_ptr<sim::Simulator> sim_;
  // One Deployment per site: the replica assembly layer owns engines, per-shard
  // stores, applied counts and the kBatch unpack scratch. The harness adds only
  // what the simulation needs on top (checkers, clients, metrics).
  std::vector<std::unique_ptr<smr::Deployment>> replicas_;
  // One history checker per partition: commands in different partitions never
  // conflict, so each partition's history is independently checkable.
  std::vector<std::unique_ptr<chk::HistoryChecker>> checkers_;

  std::vector<Client> clients_;
  // (client, seq) -> client index, for completion routing.
  std::unordered_map<chk::CmdKey, uint64_t, chk::CmdKeyHash> pending_;

  common::ProcessId leader_ = common::kInvalidProcess;
  common::Time measure_start_ = 0;
  common::Time measure_end_ = 0;

  Metrics metrics_;
  std::vector<ExecRecord> exec_trace_;
  std::vector<common::TimeSeries> site_throughput_;
  std::vector<bool> site_alive_;
  // Checker process column per site: identity until a site restarts, after which the
  // new incarnation writes history under a fresh column (see AddRestartColumn).
  std::vector<uint32_t> checker_col_;
  std::vector<bool> site_restarted_;
  uint64_t total_completed_ = 0;
  uint64_t gave_up_ = 0;
  bool started_ = false;
};

}  // namespace harness

#endif  // SRC_HARNESS_CLUSTER_H_
