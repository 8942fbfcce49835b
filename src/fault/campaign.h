// Campaign runner: interprets a (pack, seed, protocol, partitions) tuple against a
// seeded harness::Cluster with a fault::Injector attached, evaluates the pack's
// acceptance gates, and returns a structured result. One tuple fully determines a
// run — two executions produce byte-identical fault schedules and store digests
// (the determinism test pins this).
#ifndef SRC_FAULT_CAMPAIGN_H_
#define SRC_FAULT_CAMPAIGN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/fault/injector.h"
#include "src/fault/scenario.h"
#include "src/harness/cluster.h"
#include "src/sim/simulator.h"

namespace fault {

struct RunSpec {
  std::string pack;
  uint64_t seed = 1;
  harness::Protocol protocol = harness::Protocol::kAtlas;
  uint32_t partitions = 1;
  // Submission batching window (ClusterOptions::batch_window; only sharded
  // replicas batch). 0 submits every command on its own.
  common::Duration batch_window = 0;
  // When non-empty, every site persists its commit log + snapshots under
  // data_dir/site-N (see src/dur) and scheduled restarts recover from disk
  // instead of restarting with amnesia. The pack's gates are unchanged — a
  // durable run must pass the same acceptance criteria.
  std::string data_dir;
};

struct RunResult {
  bool pass = false;
  std::vector<std::string> failures;

  // Determinism fingerprints: the injector's decision fold and a fold of every
  // full (non-restarted, alive) replica's per-shard (applied count, store digest).
  uint64_t schedule_digest = 0;
  uint64_t store_digest = 0;

  uint64_t completed = 0;
  uint64_t gave_up = 0;
  uint64_t stuck_clients = 0;
  Injector::Counters inject;
  sim::Simulator::DropStats drops;
  uint64_t delivered = 0;
  // p99 of the post-heal commit-latency window, microseconds (0 when the pack has
  // no latency gate or nothing was measured).
  uint64_t commit_p99_us = 0;
};

// Runs one scenario-pack instance. Unknown pack names fail with a message rather
// than aborting (the campaign tool surfaces them).
RunResult RunScenario(const RunSpec& spec);

// "atlas" / "epaxos" / "mencius" — the protocols the packs sweep.
std::optional<harness::Protocol> ParseProtocol(const std::string& name);
const char* ProtocolFlagName(harness::Protocol p);

// One-line rerun command for a failing tuple.
std::string RerunCommand(const RunSpec& spec);

}  // namespace fault

#endif  // SRC_FAULT_CAMPAIGN_H_
