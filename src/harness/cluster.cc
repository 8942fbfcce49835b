#include "src/harness/cluster.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/core/atlas.h"
#include "src/harness/topology.h"
#include "src/paxos/multipaxos.h"
#include "src/sim/regions.h"

namespace harness {

Cluster::Cluster(ClusterOptions opts)
    : opts_(std::move(opts)) {
  CHECK_GE(opts_.site_regions.size(), 3u);
  CHECK_GE(opts_.partitions, 1u);
  sim::Simulator::Options sim_opts;
  sim_opts.seed = opts_.seed;
  sim_opts.fifo_links = opts_.fifo_links;
  sim_opts.egress_bytes_per_sec = opts_.egress_bytes_per_sec;
  sim_opts.per_message_cost = opts_.per_message_cost;
  sim_ = std::make_unique<sim::Simulator>(
      BuildLatency(opts_.site_regions, opts_.jitter_frac), sim_opts);

  uint32_t n = this->n();
  for (uint32_t i = 0; i < n; i++) {
    site_throughput_.emplace_back(common::kSecond);
  }
  site_alive_.assign(n, true);
  site_restarted_.assign(n, false);
  checker_col_.resize(n);
  for (uint32_t i = 0; i < n; i++) {
    checker_col_[i] = i;
  }
  if (opts_.enable_checker) {
    for (uint32_t s = 0; s < opts_.partitions; s++) {
      checkers_.push_back(std::make_unique<chk::HistoryChecker>(n));
      checkers_.back()->SetNfrMode(opts_.nfr);
    }
  }
  BuildReplicas();
}

Cluster::~Cluster() = default;

smr::DeploymentOptions Cluster::MakeDeploymentOptions(common::ProcessId site) const {
  smr::DeploymentOptions d;
  d.protocol = opts_.protocol;
  d.n = n();
  d.f = opts_.f;
  d.nfr = opts_.nfr;
  d.prune_slow_path = opts_.prune_slow_path;
  d.index_mode = opts_.index_mode;
  d.by_proximity = ByProximity(sim_->latency(), n(), site);
  d.leader = leader_;
  d.partitions = opts_.partitions;
  d.batch_window = opts_.batch_window;
  d.batch_max = opts_.batch_max;
  d.commit_timeout = opts_.commit_timeout;
  d.recovery_scan_interval = opts_.recovery_scan_interval;
  d.recovery_retry_interval = opts_.recovery_retry_interval;
  d.revoke_retry_interval = opts_.revoke_retry_interval;
  if (!opts_.data_dir.empty()) {
    d.data_dir = opts_.data_dir + "/site-" + std::to_string(site);
    d.snapshot_every = opts_.snapshot_every;
    d.fsync_mode = opts_.fsync_mode;
  }
  return d;
}

void Cluster::BuildReplicas() {
  uint32_t n = this->n();

  // Leader selection needs the latency model and client placement, so it stays a
  // harness concern; the chosen leader is handed to the assembly layer. The quorum
  // geometry used to pick the fairest leader is the one the engines run.
  if (opts_.protocol == Protocol::kFPaxos || opts_.protocol == Protocol::kPaxos) {
    paxos::Config paxos_base;
    paxos_base.n = n;
    paxos_base.f = opts_.f;
    paxos_base.mode = opts_.protocol == Protocol::kFPaxos
                          ? paxos::QuorumMode::kFlexible
                          : paxos::QuorumMode::kClassic;
    leader_ = opts_.leader != common::kInvalidProcess
                  ? opts_.leader
                  : FairestLeader(opts_.site_regions, sim::ClientSites(),
                                  paxos_base.Phase2Size());
  }

  // All replica assembly goes through smr::Deployment — the harness builds no
  // engine directly.
  for (uint32_t i = 0; i < n; i++) {
    replicas_.push_back(
        std::make_unique<smr::Deployment>(MakeDeploymentOptions(i)));
  }

  for (auto& r : replicas_) {
    sim_->AddEngine(&r->engine());
  }
  sim_->SetExecutedHandler([this](common::ProcessId p, const common::Dot& d,
                                  const smr::Command& c) { OnExecuted(p, d, c); });
  sim_->SetCommittedHandler([this](common::ProcessId p, const common::Dot& d,
                                   const smr::Command& c,
                                   bool fast) { OnCommitted(p, d, c, fast); });
  sim_->SetDroppedHandler([this](common::ProcessId p, const common::Dot& d,
                                 const smr::Command& c) { OnDropped(p, d, c); });
}

void Cluster::AddClients(const ClientSpec& spec, size_t count) {
  CHECK(!started_);
  CHECK(spec.workload != nullptr);
  for (size_t i = 0; i < count; i++) {
    Client c;
    c.id = clients_.size() + 1;
    c.region = spec.region;
    c.site = ClosestSite(spec.region, opts_.site_regions);
    c.workload = spec.workload;
    c.max_ops = spec.max_ops;
    c.think_time = spec.think_time;
    c.retry_timeout = spec.retry_timeout;
    clients_.push_back(std::move(c));
  }
}

void Cluster::Start() {
  CHECK(!started_);
  started_ = true;
  sim_->Start();
  for (uint64_t i = 0; i < clients_.size(); i++) {
    IssueNext(i);
  }
}

void Cluster::IssueNext(uint64_t client_index) {
  Client& c = clients_[client_index];
  if (c.stopped || c.issued >= c.max_ops || c.in_flight) {
    return;
  }
  c.in_flight = true;
  c.issued++;
  c.current = c.workload->Next(c.id, c.next_seq++, sim_->rng());
  c.submit_time = sim_->Now();
  pending_[chk::CmdKey{c.current.client, c.current.seq}] = client_index;
  if (!checkers_.empty()) {
    checkers_[ShardOfCmd(c.current)]->OnSubmit(
        c.current, c.submit_time,
        static_cast<common::ProcessId>(checker_col_[c.site]));
  }
  common::Duration oneway =
      ClientOneWay(c.region, opts_.site_regions[c.site]);
  common::ProcessId site = static_cast<common::ProcessId>(c.site);
  // Typed ClientOp event: no closure allocation per issued command. If the site
  // crashed while the request was in flight, the submission is skipped and the
  // client's migration logic resubmits it elsewhere.
  sim_->PostSubmitIn(oneway, site, c.current);
  if (c.retry_timeout > 0) {
    // Pack (client_index, seq) into one word so the retry closure fits libstdc++'s
    // inline std::function storage (16 bytes) and needs no heap allocation.
    uint64_t packed = (client_index << 44) | c.current.seq;
    CHECK_LT(client_index, 1u << 20);
    CHECK_LT(c.current.seq, 1ull << 44);
    sim_->PostIn(c.retry_timeout, [this, packed]() {
      uint64_t client_index = packed >> 44;
      uint64_t seq = packed & ((1ull << 44) - 1);
      Client& cl = clients_[client_index];
      if (!cl.in_flight || cl.current.seq != seq) {
        return;  // already completed or superseded
      }
      pending_.erase(chk::CmdKey{cl.current.client, cl.current.seq});
      cl.in_flight = false;
      if (opts_.max_client_retries > 0 &&
          ++cl.attempts >= opts_.max_client_retries) {
        // Bounded retry exhausted: the operation is stuck (not merely delayed).
        // Give it up — Finish() reports any gave-up op as a liveness failure —
        // and let the client move on to its next operation.
        gave_up_++;
        cl.attempts = 0;
        IssueNext(client_index);
        return;
      }
      // Abandon the stuck operation (its command may have died with a crashed
      // leader/coordinator) and resubmit under a fresh sequence number.
      cl.issued--;
      IssueNext(client_index);
    });
  }
}

void Cluster::OnCommitted(common::ProcessId p, const common::Dot& dot,
                          const smr::Command& cmd, bool fast) {
  // A batch commit commits every client command it carries; record each one's
  // commit latency.
  replicas_[p]->ForEachCommitted(
      cmd, [this, p](const smr::Command& sub) { CommitOne(p, sub); });
}

void Cluster::CommitOne(common::ProcessId p, const smr::Command& cmd) {
  auto it = pending_.find(chk::CmdKey{cmd.client, cmd.seq});
  if (it == pending_.end()) {
    return;
  }
  Client& c = clients_[it->second];
  if (static_cast<common::ProcessId>(c.site) != p || !c.in_flight) {
    return;
  }
  common::Time now = sim_->Now();
  if (now >= measure_start_ && (measure_end_ == 0 || now < measure_end_)) {
    metrics_.commit_latency.Record(now - c.submit_time);
  }
}

void Cluster::OnExecuted(common::ProcessId p, const common::Dot& dot,
                         const smr::Command& cmd) {
  // The site's Deployment applies the command (unpacking composite submission
  // batches) to its per-shard stores and counts; the harness accounts each client
  // command on top — checker history, execution trace, client completion.
  replicas_[p]->ApplyExecuted(
      dot, cmd,
      [this, p, &dot](uint32_t shard, const smr::Command& sub, std::string&&) {
        AccountExecuted(p, dot, shard, sub);
      });
}

void Cluster::AccountExecuted(common::ProcessId p, const common::Dot& dot,
                              uint32_t shard, const smr::Command& cmd) {
  if (!checkers_.empty()) {
    checkers_[shard]->OnExecute(static_cast<common::ProcessId>(checker_col_[p]), cmd,
                                sim_->Now());
    exec_trace_.push_back(ExecRecord{p, dot, cmd});
  }
  if (cmd.is_noop()) {
    return;
  }
  auto it = pending_.find(chk::CmdKey{cmd.client, cmd.seq});
  if (it == pending_.end()) {
    return;
  }
  uint64_t client_index = it->second;
  Client& c = clients_[client_index];
  if (static_cast<common::ProcessId>(c.site) != p || !c.in_flight) {
    return;
  }
  pending_.erase(it);
  common::Duration oneway = ClientOneWay(c.region, opts_.site_regions[c.site]);
  // The completion time is exactly the event's firing time, so the closure only
  // captures (this, client_index) — small enough for std::function's inline storage.
  sim_->PostIn(oneway, [this, client_index]() {
    CompleteClient(client_index, sim_->Now());
  });
}

void Cluster::CompleteClient(uint64_t client_index, common::Time completion_time) {
  Client& c = clients_[client_index];
  if (!c.in_flight) {
    return;
  }
  c.in_flight = false;
  c.attempts = 0;
  total_completed_++;
  site_throughput_[c.site].Record(completion_time);
  common::Time now = completion_time;
  if (now >= measure_start_ && (measure_end_ == 0 || now < measure_end_)) {
    metrics_.latency.Record(now - c.submit_time);
    metrics_.completed_in_window++;
    c.window_latency_sum += static_cast<double>(now - c.submit_time);
    c.window_latency_count++;
  }
  if (c.think_time > 0) {
    sim_->PostIn(c.think_time, [this, client_index]() { IssueNext(client_index); });
  } else {
    IssueNext(client_index);
  }
}

void Cluster::OnDropped(common::ProcessId p, const common::Dot& dot,
                        const smr::Command& orig) {
  // A dropped batch drops every client command it carried; resubmit each.
  replicas_[p]->ForEachDropped(orig,
                               [this](const smr::Command& sub) { DropOne(sub); });
}

void Cluster::DropOne(const smr::Command& orig) {
  // The command was replaced by noOp during recovery and will never execute; resubmit
  // it under a fresh sequence number if its client is still waiting.
  auto it = pending_.find(chk::CmdKey{orig.client, orig.seq});
  if (it == pending_.end()) {
    return;
  }
  uint64_t client_index = it->second;
  pending_.erase(it);
  Client& c = clients_[client_index];
  if (!c.in_flight) {
    return;
  }
  c.in_flight = false;
  c.issued--;  // retry does not count as a new op
  IssueNext(client_index);
}

void Cluster::SetMeasureWindow(common::Time start, common::Time end) {
  measure_start_ = start;
  measure_end_ = end;
  metrics_.window_seconds =
      static_cast<double>(end - start) / static_cast<double>(common::kSecond);
}

void Cluster::ScheduleCrash(common::ProcessId site, common::Time at,
                            common::Duration detection_timeout) {
  CHECK_LT(site, n());
  sim_->Post(at, [this, site]() {
    sim_->Crash(site);
    site_alive_[site] = false;
  });
  sim_->Post(at + detection_timeout, [this, site]() {
    for (uint32_t p = 0; p < n(); p++) {
      if (p != site && !sim_->IsCrashed(p)) {
        replicas_[p]->engine().OnSuspect(site);
      }
    }
    MigrateClients(site);
  });
}

void Cluster::ScheduleRestart(common::ProcessId site, common::Time at) {
  CHECK_LT(site, n());
  sim_->Post(at, [this, site]() { RestartSite(site); });
}

void Cluster::RestartSite(common::ProcessId site) {
  CHECK(sim_->IsCrashed(site));
  // Crash-stop with amnesia: the only state that survives is the per-shard
  // stable-storage floors (smr::RestartHint). Everything else — protocol state,
  // stores, conflict indexes — is rebuilt empty and re-learned via recovery.
  std::vector<smr::RestartHint> hints = replicas_[site]->RestartHints();
  // Destroy the dead incarnation before constructing its replacement: the
  // durable deployment flushes its buffered commit-log tail on destruction,
  // and the fresh one reads the data_dir in its constructor.
  replicas_[site].reset();
  auto fresh = std::make_unique<smr::Deployment>(MakeDeploymentOptions(site));
  if (fresh->HasRecoveredState()) {
    // Durable restart: the new incarnation restored its stores from disk, and
    // the persisted seq-floor reservations supersede the dead incarnation's
    // in-memory floors (they are what a real power loss would leave behind).
    hints = fresh->RecoveredRestartHints();
  }
  // Binds + starts the new engine under a new incarnation; in-flight messages and
  // timers addressed to the dead incarnation are dropped on delivery.
  sim_->Restart(site, &fresh->engine());
  replicas_[site] = std::move(fresh);
  replicas_[site]->ApplyRestartHints(hints);
  site_alive_[site] = true;
  site_restarted_[site] = true;
  // The new incarnation records history as a fresh process: the amnesia model lets
  // it re-execute commands the dead incarnation already executed.
  if (!checkers_.empty()) {
    uint32_t col = 0;
    for (auto& checker : checkers_) {
      col = checker->AddRestartColumn();
    }
    checker_col_[site] = col;
  }
  // Surviving replicas clear suspicion of `site` and adopt recovery of the dead
  // incarnation's abandoned commands (below the seq floors).
  for (uint32_t p = 0; p < n(); p++) {
    if (p != site && !sim_->IsCrashed(p)) {
      replicas_[p]->NotifyRestore(site, hints);
    }
  }
}

void Cluster::MigrateClients(common::ProcessId dead_site) {
  for (uint64_t i = 0; i < clients_.size(); i++) {
    Client& c = clients_[i];
    if (static_cast<common::ProcessId>(c.site) != dead_site) {
      continue;
    }
    // Reconnect to the closest alive site.
    size_t best = c.site;
    common::Duration best_d = 0;
    bool found = false;
    for (size_t s = 0; s < opts_.site_regions.size(); s++) {
      if (!site_alive_[s]) {
        continue;
      }
      common::Duration d = ClientOneWay(c.region, opts_.site_regions[s]);
      if (!found || d < best_d) {
        best = s;
        best_d = d;
        found = true;
      }
    }
    CHECK(found);
    c.site = best;
    if (c.in_flight) {
      // Retry the in-flight command at the new site under a fresh sequence number
      // (at-least-once on fail-over; client sessions would dedup in a production stack).
      pending_.erase(chk::CmdKey{c.current.client, c.current.seq});
      c.in_flight = false;
      c.issued--;
      IssueNext(i);
    }
  }
}

void Cluster::StopClients() {
  for (auto& c : clients_) {
    c.stopped = true;
  }
}

void Cluster::RunFor(common::Duration d) { sim_->RunFor(d); }

Metrics Cluster::Snapshot() const {
  Metrics m = metrics_;
  uint64_t fast = 0;
  uint64_t slow = 0;
  uint64_t executed = 0;
  size_t max_batch = 0;
  if (opts_.partitions > 1) {
    m.per_shard.assign(opts_.partitions, smr::EngineStats{});
  }
  for (uint32_t p = 0; p < n(); p++) {
    const smr::Deployment& replica = *replicas_[p];
    smr::EngineStats s = replica.stats();
    fast += s.fast_paths;
    slow += s.slow_paths;
    executed += s.executed;
    for (uint32_t shard = 0; shard < opts_.partitions; shard++) {
      if (opts_.partitions > 1) {
        m.per_shard[shard] += replica.shard_stats(shard);
      }
      if (opts_.protocol == Protocol::kAtlas) {
        max_batch = std::max(max_batch,
                             static_cast<const atlas::AtlasEngine&>(
                                 replica.shard_engine(shard))
                                 .MaxBatch());
      }
    }
  }
  m.fast_paths = fast;
  m.slow_paths = slow;
  m.total_executions = executed;
  m.max_batch = max_batch;
  m.bytes_sent = sim_->bytes_sent();
  m.fast_path_ratio =
      (fast + slow) > 0 ? static_cast<double>(fast) / static_cast<double>(fast + slow)
                        : 0;
  double sum = 0;
  uint64_t clients_with_data = 0;
  for (const auto& c : clients_) {
    if (c.window_latency_count > 0) {
      sum += c.window_latency_sum / static_cast<double>(c.window_latency_count);
      clients_with_data++;
    }
  }
  m.per_client_mean_us = clients_with_data > 0
                             ? sum / static_cast<double>(clients_with_data)
                             : 0;
  return m;
}

const common::TimeSeries& Cluster::SiteThroughput(common::ProcessId site) const {
  CHECK_LT(site, site_throughput_.size());
  return site_throughput_[site];
}

common::TimeSeries Cluster::AggregateThroughput() const {
  common::TimeSeries agg(common::kSecond);
  for (const auto& ts : site_throughput_) {
    for (size_t b = 0; b < ts.num_buckets(); b++) {
      agg.Record(static_cast<common::Time>(b) * common::kSecond, ts.buckets()[b]);
    }
  }
  return agg;
}

chk::CheckResult Cluster::Finish(bool abort_on_error) {
  // Clients with finite max_ops are allowed to run to completion; open-ended clients
  // are stopped so the simulation can drain.
  bool all_finite = true;
  for (const auto& c : clients_) {
    if (c.max_ops == ~uint64_t{0}) {
      all_finite = false;
      break;
    }
  }
  if (!all_finite) {
    StopClients();
  }
  sim_->RunUntilIdle();
  chk::CheckResult result;
  if (!checkers_.empty()) {
    for (uint32_t p = 0; p < n(); p++) {
      if (sim_->IsCrashed(p) || site_restarted_[p]) {
        // Restarted sites rebuilt their stores mid-history and re-execute only what
        // recovery resurfaces; their digests are not comparable to full replicas.
        continue;
      }
      // Replica convergence holds per partition: replicas may interleave shard
      // streams differently, but each (site, shard) store must match its peers
      // that applied the same number of that shard's commands.
      for (uint32_t s = 0; s < opts_.partitions; s++) {
        checkers_[s]->OnStateDigest(p, replicas_[p]->store(s).StateDigest(),
                                    replicas_[p]->applied_count(s));
      }
    }
    for (auto& checker : checkers_) {
      chk::CheckResult r = checker->Validate();
      if (!r.ok) {
        result.ok = false;
        for (auto& e : r.errors) {
          result.Fail(std::move(e));
        }
      }
    }
    if (gave_up_ > 0) {
      result.Fail("Liveness: " + std::to_string(gave_up_) +
                  " client operation(s) gave up after " +
                  std::to_string(opts_.max_client_retries) + " retries");
    }
    if (!result.ok && abort_on_error) {
      std::fprintf(stderr, "%s\n", result.Describe().c_str());
      CHECK(result.ok);
    }
  }
  return result;
}

}  // namespace harness
