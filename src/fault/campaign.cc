#include "src/fault/campaign.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/common/check.h"
#include "src/sim/regions.h"
#include "src/wl/workload.h"

namespace fault {

namespace {

uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ull;
  }
  return h;
}

}  // namespace

std::optional<harness::Protocol> ParseProtocol(const std::string& name) {
  if (name == "atlas") {
    return harness::Protocol::kAtlas;
  }
  if (name == "epaxos") {
    return harness::Protocol::kEPaxos;
  }
  if (name == "mencius") {
    return harness::Protocol::kMencius;
  }
  return std::nullopt;
}

const char* ProtocolFlagName(harness::Protocol p) {
  switch (p) {
    case harness::Protocol::kAtlas:
      return "atlas";
    case harness::Protocol::kEPaxos:
      return "epaxos";
    case harness::Protocol::kMencius:
      return "mencius";
    default:
      return "?";
  }
}

std::string RerunCommand(const RunSpec& spec) {
  std::string cmd = "fault_campaign --pack " + spec.pack + " --seed " +
                    std::to_string(spec.seed) + " --protocol " +
                    ProtocolFlagName(spec.protocol) + " --partitions " +
                    std::to_string(spec.partitions);
  if (spec.batch_window != 0) {
    cmd += " --batch-window-ms " +
           std::to_string(spec.batch_window / common::kMillisecond);
  }
  if (!spec.data_dir.empty()) {
    cmd += " --data-dir " + spec.data_dir;
  }
  return cmd;
}

RunResult RunScenario(const RunSpec& spec) {
  RunResult result;
  const Scenario* sc = FindScenario(spec.pack);
  if (sc == nullptr) {
    result.failures.push_back("unknown scenario pack: " + spec.pack);
    return result;
  }

  harness::ClusterOptions opts;
  opts.protocol = spec.protocol;
  opts.f = 1;
  opts.site_regions = sim::ThreeSites();
  opts.seed = spec.seed;
  opts.enable_checker = true;
  opts.partitions = spec.partitions;
  opts.batch_window = spec.batch_window;
  // Recovery machinery a fault run relies on: commit-outcome watches (so a lost
  // commit cannot wedge a replica) plus paced recovery scans after crashes.
  opts.commit_timeout = 1 * common::kSecond;
  opts.recovery_scan_interval = 400 * common::kMillisecond;
  opts.recovery_retry_interval = 800 * common::kMillisecond;
  opts.revoke_retry_interval = 400 * common::kMillisecond;
  opts.max_client_retries = sc->max_client_retries;
  if (!spec.data_dir.empty()) {
    // Keep tuples from clobbering each other when one campaign sweeps many
    // (pack, protocol, partitions, seed) combinations over a shared directory.
    opts.data_dir = spec.data_dir + "/" + sc->name + "-" +
                    ProtocolFlagName(spec.protocol) + "-p" +
                    std::to_string(spec.partitions) + "-s" +
                    std::to_string(spec.seed);
  }

  harness::Cluster cluster(opts);
  const uint32_t n = cluster.n();

  // The injector's stream is keyed off (seed, pack, protocol, partitions): every
  // tuple draws an unrelated deterministic schedule.
  uint64_t salt = Fnv1a(sc->name) ^ (static_cast<uint64_t>(spec.protocol) << 8) ^
                  spec.partitions;
  Injector injector(spec.seed, salt, sc->profile);
  sim::Simulator& sim = cluster.simulator();
  sim.SetFaultHook(&injector);

  // Message-fault arming window.
  if (sc->fault_from > 0) {
    injector.Disarm();
    sim.Post(sc->fault_from, [&injector]() { injector.Arm(); });
  }
  if (sc->fault_until > 0) {
    sim.Post(sc->fault_until, [&injector]() { injector.Disarm(); });
  }

  // Crash / restart schedule; victims rotate with the seed.
  for (const Scenario::CrashEvent& c : sc->crashes) {
    common::ProcessId victim =
        static_cast<common::ProcessId>((spec.seed + c.victim_rank) % n);
    cluster.ScheduleCrash(victim, c.at, c.detection_timeout);
    if (c.restart) {
      cluster.ScheduleRestart(victim, c.at + c.down_for);
    }
  }

  // Directed region partition (both directions, all peers), with a scheduled heal.
  if (sc->partition) {
    common::ProcessId victim = static_cast<common::ProcessId>(spec.seed % n);
    sim.Post(sc->partition_at, [&sim, victim, n]() {
      for (common::ProcessId p = 0; p < n; p++) {
        if (p != victim) {
          sim.SetLinkDown(victim, p, true);
          sim.SetLinkDown(p, victim, true);
        }
      }
    });
    sim.Post(sc->partition_at + sc->partition_for, [&sim, victim, n]() {
      for (common::ProcessId p = 0; p < n; p++) {
        if (p != victim) {
          sim.SetLinkDown(victim, p, false);
          sim.SetLinkDown(p, victim, false);
        }
      }
    });
  }

  // Grey failure: one seed-chosen directed link turns slow, then heals.
  if (sc->slow_link) {
    common::ProcessId a = static_cast<common::ProcessId>(spec.seed % n);
    common::ProcessId b = static_cast<common::ProcessId>((spec.seed + 1) % n);
    common::Duration extra = sc->slow_extra;
    sim.Post(sc->slow_from, [&sim, a, b, extra]() { sim.SetLinkDelay(a, b, extra); });
    sim.Post(sc->slow_from + sc->slow_for,
             [&sim, a, b]() { sim.SetLinkDelay(a, b, 0); });
  }

  // Workload: one closed-loop client per site, bounded retry.
  // At P=1 this is exactly wl::MicroWorkload.
  auto workload = std::make_shared<wl::PartitionedMicroWorkload>(
      spec.partitions, sc->conflict_rate, /*value_size=*/16);
  for (uint32_t i = 0; i < n; i++) {
    harness::ClientSpec client;
    client.region = opts.site_regions[i];
    client.workload = workload;
    client.max_ops = sc->ops_per_client;
    client.retry_timeout = sc->retry_timeout;
    cluster.AddClients(client, 1);
  }

  if (sc->measure_from > 0) {
    cluster.SetMeasureWindow(sc->measure_from, sc->run_for);
  }

  cluster.Start();
  cluster.RunFor(sc->run_for);
  cluster.StopClients();
  chk::CheckResult check = cluster.Finish(/*abort_on_error=*/false);
  sim.SetFaultHook(nullptr);

  // --- Gate evaluation -----------------------------------------------------
  result.failures = check.errors;

  // Debug aid: FAULT_DUMP_TRACE=<key-prefix> dumps the per-process execution
  // order of matching keys after a failing run (not part of any gate).
  if (const char* want = std::getenv("FAULT_DUMP_TRACE")) {
    for (const harness::Cluster::ExecRecord& r : cluster.ExecTrace()) {
      if (r.cmd.key.rfind(want, 0) == 0) {
        std::fprintf(stderr, "[trace] p=%u dot=%u:%llu key=%s client=%llu seq=%llu\n",
                     r.process, r.dot.proc,
                     static_cast<unsigned long long>(r.dot.seq), r.cmd.key.c_str(),
                     static_cast<unsigned long long>(r.cmd.client),
                     static_cast<unsigned long long>(r.cmd.seq));
      }
    }
  }

  result.stuck_clients = cluster.InFlightClients();
  if (result.stuck_clients > 0) {
    result.failures.push_back("liveness: " + std::to_string(result.stuck_clients) +
                              " client(s) wedged on an operation after drain");
  }

  // Equal per-shard digests across every full replica (alive and never restarted):
  // after a complete drain they must agree on the state. Applied *counts* may
  // legitimately differ — a dropped commit of a command that conflicts with nothing
  // applied later (e.g. a read) is never pulled in by dependency chains, so a
  // replica can finish one command short with an identical digest. Counts still
  // feed the determinism fold: same seed must reproduce the same counts.
  uint64_t fold = Mix64(spec.seed ^ Fnv1a(sc->name));
  for (uint32_t s = 0; s < spec.partitions; s++) {
    bool have_ref = false;
    uint64_t ref_digest = 0;
    for (common::ProcessId p = 0; p < n; p++) {
      if (sim.IsCrashed(p) || cluster.Restarted(p)) {
        continue;
      }
      uint64_t count = cluster.replica(p).applied_count(s);
      uint64_t digest = cluster.store(p, s).StateDigest();
      fold = Mix64(fold ^ count);
      fold = Mix64(fold ^ digest);
      if (!have_ref) {
        have_ref = true;
        ref_digest = digest;
      } else if (digest != ref_digest) {
        result.failures.push_back(
            "convergence: shard " + std::to_string(s) + " replica " +
            std::to_string(p) + " digest " + std::to_string(digest) +
            " vs reference " + std::to_string(ref_digest));
      }
    }
  }
  result.store_digest = fold;

  harness::Metrics metrics = cluster.Snapshot();
  if (sc->max_commit_latency_after_heal > 0 && metrics.commit_latency.count() > 0) {
    result.commit_p99_us = static_cast<uint64_t>(metrics.commit_latency.Percentile(99));
    if (result.commit_p99_us >
        static_cast<uint64_t>(sc->max_commit_latency_after_heal)) {
      result.failures.push_back(
          "latency: post-heal commit p99 " + std::to_string(result.commit_p99_us) +
          "us exceeds the pack bound " +
          std::to_string(sc->max_commit_latency_after_heal) + "us");
    }
  }

  result.schedule_digest = injector.schedule_digest();
  result.completed = cluster.total_completed();
  result.gave_up = cluster.gave_up();
  result.inject = injector.counters();
  result.drops = sim.drop_stats();
  result.delivered = sim.messages_delivered();
  result.pass = result.failures.empty();
  return result;
}

}  // namespace fault
