// Kill + restart drills on the real threaded TCP cluster, with persistence on.
//
// The drills are parameterized from the PR-4 fault scenario packs
// (kill_one_replica, rolling_restarts): each pack's crash schedule is replayed
// against a 3-node loopback cluster running thread-per-shard deployments with
// P=4 shards and a data_dir per node. A victim node is torn
// down completely (node + deployment destroyed — process-death equivalent; the
// commit log's torn-tail handling is pinned separately in durability_test),
// traffic continues on the survivors, and the victim restarts from its
// data_dir: the fresh deployment recovers snapshot + log tail, the mesh
// re-dials, the restarted node advertises its executed-dot frontiers, and
// peers stream the commits it missed. The gate: every node — including the
// restarted one — converges to per-(node, shard) store digests equal to the
// discrete-event simulator running the identical command script fault-free.
//
// The client drill exercises the other half of the reconnect story: a client
// with bounded retries survives its serving node dying mid-stream (reconnect,
// resubmit, durable-node idempotency), and a client whose server never comes
// back gives up with gave_up() accounting instead of hanging.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/fault/scenario.h"
#include "src/rt/node.h"
#include "src/sim/simulator.h"
#include "src/smr/deployment.h"

namespace rt {
namespace {

namespace fs = std::filesystem;

constexpr uint32_t kNodes = 3;
constexpr uint32_t kPartitions = 4;
constexpr uint64_t kClients = 4;
// Folds a pack's victim_rank into a concrete node id (the sim campaign folds
// the seed the same way); 2 makes the first victim the highest id, so the
// drill covers both mesh directions: survivors re-dial a restarted high id,
// while a restarted low id dials out itself.
constexpr uint32_t kDrillSeed = 2;

struct TempDir {
  explicit TempDir(const std::string& tag) {
    path = (fs::temp_directory_path() /
            ("atlas_rtrec_" + tag + "_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

smr::DeploymentOptions MakeOptions(smr::Protocol protocol,
                                   const std::string& data_dir, uint32_t site) {
  smr::DeploymentOptions d;
  d.protocol = protocol;
  d.n = kNodes;
  d.f = 1;
  d.partitions = kPartitions;
  d.data_dir = data_dir + "/site-" + std::to_string(site);
  d.snapshot_every = 32;  // small: restarts recover snapshot + tail, not just log
  d.fsync_mode = dur::FsyncMode::kNone;  // survives process death, which is
                                         // what the drill simulates
  // Recovery machinery the crash cycles rely on (the sim fault campaign sets
  // the same knobs): the TCP runtime has no failure detector, so a commit
  // waiting on a dead fast-quorum member must time out and recover via the
  // slow path instead of stalling forever. Which survivors' default quorums
  // contain the victim depends on the victim's id, so some crash cycles pass
  // without this and others wedge.
  d.commit_timeout = 300 * common::kMillisecond;
  d.recovery_scan_interval = 100 * common::kMillisecond;
  d.recovery_retry_interval = 200 * common::kMillisecond;
  d.revoke_retry_interval = 100 * common::kMillisecond;
  return d;
}

// The full command script, precomputed so the TCP run and the simulator
// reference submit the identical sequence. Each client owns disjoint keys and
// runs blocking calls, so per-key order is client program order in any driver.
struct Op {
  uint64_t client;
  uint64_t seq;
  smr::Command cmd;
};

smr::Command ScriptedOp(uint64_t client, uint64_t seq) {
  std::string key = "c" + std::to_string(client) + "-k" + std::to_string(seq % 5);
  std::string value = "v" + std::to_string(seq);
  return (seq % 2 == 1) ? smr::MakePut(client, seq, key, std::move(value))
                        : smr::MakeRmw(client, seq, key, std::move(value));
}

// One traffic phase: `ops_per_client` ops for each listed client, submitted
// through blocking TCP clients pointed at `target_node_of(client)`.
struct Phase {
  std::vector<uint64_t> clients;
  uint64_t ops_per_client;
};

class Script {
 public:
  // Appends a phase; returns the ops, bumping each client's running seq.
  std::vector<Op> Extend(const Phase& phase) {
    std::vector<Op> ops;
    for (uint64_t c : phase.clients) {
      if (next_seq_.size() <= c) {
        next_seq_.resize(c + 1, 1);
      }
      for (uint64_t i = 0; i < phase.ops_per_client; i++) {
        uint64_t seq = next_seq_[c]++;
        ops.push_back(Op{c, seq, ScriptedOp(c, seq)});
      }
    }
    all_.insert(all_.end(), ops.begin(), ops.end());
    return ops;
  }
  const std::vector<Op>& all() const { return all_; }

 private:
  std::vector<uint64_t> next_seq_;
  std::vector<Op> all_;
};

struct ShardState {
  std::vector<uint64_t> digests;  // [node * kPartitions + shard]
  std::vector<uint64_t> counts;
};

// The same script through the discrete-event simulator, fault-free, through
// the same Deployment assembly (single-threaded, no persistence).
ShardState SimulatorReference(smr::Protocol protocol, const std::vector<Op>& ops) {
  sim::Simulator::Options sopts;
  sopts.seed = 7;
  sim::Simulator sim(
      std::make_unique<sim::UniformLatency>(5 * common::kMillisecond,
                                            common::kMillisecond),
      sopts);
  std::vector<std::unique_ptr<smr::Deployment>> replicas;
  for (uint32_t i = 0; i < kNodes; i++) {
    smr::DeploymentOptions d;
    d.protocol = protocol;
    d.n = kNodes;
    d.f = 1;
    d.partitions = kPartitions;
    replicas.push_back(std::make_unique<smr::Deployment>(d));
    sim.AddEngine(&replicas[i]->engine());
  }
  sim.SetExecutedHandler([&](common::ProcessId p, const common::Dot& dot,
                             const smr::Command& cmd) {
    replicas[p]->ApplyExecuted(
        dot, cmd, [](uint32_t, const smr::Command&, std::string&&) {});
  });
  sim.Start();
  for (const Op& op : ops) {
    sim.Submit(static_cast<common::ProcessId>(op.client % kNodes), op.cmd);
  }
  sim.RunUntilIdle();

  ShardState st;
  for (uint32_t p = 0; p < kNodes; p++) {
    for (uint32_t s = 0; s < kPartitions; s++) {
      st.digests.push_back(replicas[p]->store(s).StateDigest());
      st.counts.push_back(replicas[p]->applied_count(s));
    }
  }
  return st;
}

// ---------------------------------------------------------------------------
// The live cluster under drill.

class DrillCluster {
 public:
  // Node ports sit below Linux's ephemeral range (32768 and up), so no
  // connection the test or its nodes open can hold a node's port when that
  // node binds it — a restarted victim must re-bind its old port.
  DrillCluster(smr::Protocol protocol, const std::string& data_dir,
               uint16_t port_base)
      : protocol_(protocol), data_dir_(data_dir) {
    uint16_t base =
        static_cast<uint16_t>(port_base + (getpid() % 512));
    for (uint32_t i = 0; i < kNodes; i++) {
      addrs_.push_back(PeerAddress{"127.0.0.1", static_cast<uint16_t>(base + i)});
    }
    replicas_.resize(kNodes);
    nodes_.resize(kNodes);
    threads_.resize(kNodes);
    for (uint32_t i = 0; i < kNodes; i++) {
      ok_ = ok_ && StartNode(i, /*expect_recovery=*/false);
    }
  }

  ~DrillCluster() { StopAll(); }

  bool ok() const { return ok_; }
  uint16_t port(uint32_t n) const { return addrs_[n].port; }

  bool StartNode(uint32_t i, bool expect_recovery) {
    replicas_[i] = std::make_unique<smr::Deployment>(
        MakeOptions(protocol_, data_dir_, i));
    if (expect_recovery && !replicas_[i]->HasRecoveredState()) {
      ADD_FAILURE() << "node " << i << " found no state to recover";
      return false;
    }
    nodes_[i] = std::make_unique<Node>(i, addrs_, replicas_[i].get());
    // The freed listen port can lag a moment behind the old node's teardown.
    bool listening = false;
    for (int attempt = 0; attempt < 50 && !listening; attempt++) {
      listening = nodes_[i]->Listen();
      if (!listening) {
        usleep(20 * 1000);
      }
    }
    if (!listening) {
      ADD_FAILURE() << "node " << i << " could not bind port " << addrs_[i].port;
      return false;
    }
    threads_[i] = std::thread([this, i]() { nodes_[i]->Run(); });
    return true;
  }

  // Full teardown of one node — the process-death stand-in. The deployment's
  // destructor flushes the buffered commit-log tail (a literal kill-9 instead
  // loses up to one unflushed buffer, which Open() truncates to the last clean
  // record boundary — the torn-tail pins in durability_test cover that).
  void KillNode(uint32_t i) {
    nodes_[i]->Stop();
    threads_[i].join();
    nodes_[i].reset();
    replicas_[i].reset();
  }

  void StopAll() {
    for (uint32_t i = 0; i < kNodes; i++) {
      if (nodes_[i] != nullptr) {
        nodes_[i]->Stop();
      }
    }
    for (uint32_t i = 0; i < kNodes; i++) {
      if (threads_[i].joinable()) {
        threads_[i].join();
      }
    }
  }

  // Runs one phase of blocking client traffic. Each op's client routes to
  // client % kNodes unless that node is the current victim, in which case it
  // shifts to the next live node. Returns false on any failed call.
  bool RunPhase(const std::vector<Op>& ops, int victim) {
    // Group ops per client (each client is a thread with its own connection).
    std::vector<std::vector<const Op*>> per_client(kClients + 1);
    for (const Op& op : ops) {
      per_client[op.client].push_back(&op);
    }
    std::atomic<int> failures{0};
    std::vector<std::thread> client_threads;
    for (uint64_t c = 1; c <= kClients; c++) {
      if (per_client[c].empty()) {
        continue;
      }
      client_threads.emplace_back([&, c]() {
        uint32_t target = static_cast<uint32_t>(c % kNodes);
        while (victim >= 0 && target == static_cast<uint32_t>(victim)) {
          target = (target + 1) % kNodes;
        }
        Client client("127.0.0.1", addrs_[target].port);
        bool connected = false;
        for (int i = 0; i < 250 && !connected; i++) {
          connected = client.Connect();
          if (!connected) {
            usleep(20 * 1000);
          }
        }
        if (!connected) {
          failures.fetch_add(1);
          return;
        }
        std::string result;
        for (const Op* op : per_client[c]) {
          // A dropped reply means the command executed nowhere: Mencius
          // revokes an in-flight proposal into a skip when a restarted peer's
          // revocation wins the race. Resubmit it, as a real client must;
          // every op still has to apply exactly once.
          int drops = 0;
          bool ok = client.Call(op->cmd, &result);
          while (ok && result == "<dropped>" && ++drops <= 10) {
            ok = client.Call(op->cmd, &result);
          }
          if (!ok || result == "<dropped>") {
            failures.fetch_add(1);
            return;
          }
        }
      });
    }
    for (auto& t : client_threads) {
      t.join();
    }
    return failures.load() == 0;
  }

  // Waits until node `i` has applied `expected` client ops (recovered ops
  // included — the per-shard applied counts are atomics, safe to poll).
  bool WaitApplied(uint32_t i, uint64_t expected, int deadline_sec = 30) {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(deadline_sec);
    while (std::chrono::steady_clock::now() < deadline) {
      uint64_t total = 0;
      for (uint32_t s = 0; s < kPartitions; s++) {
        total += replicas_[i]->applied_count(s);
      }
      if (total >= expected) {
        return true;
      }
      usleep(10 * 1000);
    }
    ADD_FAILURE() << "node " << i << " stuck below " << expected << " applied ops";
    return false;
  }

  bool WaitAllApplied(uint64_t expected) {
    bool ok = true;
    for (uint32_t i = 0; i < kNodes; i++) {
      if (nodes_[i] != nullptr) {
        ok = WaitApplied(i, expected) && ok;
      }
    }
    return ok;
  }

  // Read per-(node, shard) state. Only valid after StopAll (workers joined).
  ShardState CollectState() {
    ShardState st;
    for (uint32_t p = 0; p < kNodes; p++) {
      for (uint32_t s = 0; s < kPartitions; s++) {
        st.digests.push_back(replicas_[p]->store(s).StateDigest());
        st.counts.push_back(replicas_[p]->applied_count(s));
      }
    }
    return st;
  }

 private:
  smr::Protocol protocol_;
  std::string data_dir_;
  std::vector<PeerAddress> addrs_;
  std::vector<std::unique_ptr<smr::Deployment>> replicas_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::thread> threads_;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// The pack-parameterized drill.

// Replays `pack`'s crash schedule against a live TCP cluster:
//   phase A (all clients) -> for each CrashEvent: kill victim, [traffic on the
//   survivors], restart victim from disk, wait for catch-up -> phase C (all
//   clients) -> drain -> digests == fault-free simulator reference.
// `traffic_while_down` is off for Mencius: the TCP runtime has no failure
// detector, and Mencius needs the victim's slots revoked to commit without it.
void RunPackDrill(const fault::Scenario& pack, smr::Protocol protocol,
                  uint16_t port_base, bool traffic_while_down,
                  const std::string& tag) {
  TempDir dir(tag);
  DrillCluster cluster(protocol, dir.path, port_base);
  ASSERT_TRUE(cluster.ok());

  Script script;
  uint64_t expected = 0;
  auto run_phase = [&](const Phase& phase, int victim) {
    std::vector<Op> ops = script.Extend(phase);
    expected += ops.size();
    ASSERT_TRUE(cluster.RunPhase(ops, victim)) << "client calls failed";
  };

  run_phase(Phase{{1, 2, 3, 4}, 8}, /*victim=*/-1);
  ASSERT_TRUE(cluster.WaitAllApplied(expected));

  for (const fault::Scenario::CrashEvent& ev : pack.crashes) {
    ASSERT_TRUE(ev.restart) << "TCP drill packs must restart their victims";
    uint32_t victim = (kDrillSeed + ev.victim_rank) % kNodes;
    cluster.KillNode(victim);

    if (traffic_while_down) {
      run_phase(Phase{{1, 2}, 6}, static_cast<int>(victim));
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
    // Scaled-down real downtime (the sim pack's seconds become milliseconds).
    usleep(static_cast<useconds_t>(ev.down_for / 10000));

    ASSERT_TRUE(cluster.StartNode(victim, /*expect_recovery=*/true));
    // The restarted node must converge to everything committed so far: its
    // recovered state plus the catch-up stream for what it missed.
    ASSERT_TRUE(cluster.WaitApplied(victim, expected));
  }

  run_phase(Phase{{1, 2, 3, 4}, 6}, /*victim=*/-1);
  if (::testing::Test::HasFatalFailure()) {
    return;
  }
  ASSERT_TRUE(cluster.WaitAllApplied(expected));

  cluster.StopAll();
  ShardState got = cluster.CollectState();
  ShardState ref = SimulatorReference(protocol, script.all());
  EXPECT_EQ(got.digests, ref.digests)
      << "TCP cluster with kill+restart diverged from fault-free simulator";
  EXPECT_EQ(got.counts, ref.counts);
}

const fault::Scenario& Pack(const std::string& name) {
  const fault::Scenario* s = fault::FindScenario(name);
  CHECK(s != nullptr);
  return *s;
}

TEST(RtRecoveryTest, KillOneReplicaAtlas) {
  RunPackDrill(Pack("kill_one_replica"), smr::Protocol::kAtlas, 27000,
               /*traffic_while_down=*/true, "kill_atlas");
}

TEST(RtRecoveryTest, KillOneReplicaEPaxos) {
  RunPackDrill(Pack("kill_one_replica"), smr::Protocol::kEPaxos, 27100,
               /*traffic_while_down=*/true, "kill_epaxos");
}

TEST(RtRecoveryTest, KillOneReplicaMencius) {
  RunPackDrill(Pack("kill_one_replica"), smr::Protocol::kMencius, 27200,
               /*traffic_while_down=*/false, "kill_mencius");
}

TEST(RtRecoveryTest, RollingRestartsAtlas) {
  RunPackDrill(Pack("rolling_restarts"), smr::Protocol::kAtlas, 27300,
               /*traffic_while_down=*/true, "rolling_atlas");
}

// ---------------------------------------------------------------------------
// Client reconnect-and-resubmit.

// A retrying client survives its serving node dying mid-stream: the node is
// killed after the client's third call and restarted from disk ~300ms later;
// every call completes (reconnect + resubmit), nothing gives up, and the
// cluster still converges. Puts only: a resubmitted command re-executes under
// a fresh dot on the restarted node (the durable idempotency cache dies with
// the incarnation), which is at-least-once — value-idempotent for kPut.
TEST(RtRecoveryTest, ClientReconnectsAndResubmitsAcrossNodeRestart) {
  TempDir dir("client_retry");
  DrillCluster cluster(smr::Protocol::kAtlas, dir.path, 27400);
  ASSERT_TRUE(cluster.ok());

  constexpr uint32_t kVictim = 2;
  constexpr uint64_t kOps = 10;
  std::atomic<uint64_t> completed{0};
  std::atomic<int> failures{0};

  std::thread client_thread([&]() {
    Client::Options copts;
    copts.max_retries = 300;  // ~30s of 100ms-backoff retries
    Client client("127.0.0.1", cluster.port(kVictim), copts);
    for (int i = 0; i < 250 && !client.connected(); i++) {
      if (!client.Connect()) {
        usleep(20 * 1000);
      }
    }
    if (!client.connected()) {
      failures.fetch_add(1);
      return;
    }
    std::string result;
    for (uint64_t seq = 1; seq <= kOps; seq++) {
      if (!client.Call(smr::MakePut(9, seq, "retry-k" + std::to_string(seq),
                                    "v" + std::to_string(seq)),
                       &result)) {
        failures.fetch_add(1);
        return;
      }
      completed.fetch_add(1);
    }
    if (client.gave_up() != 0) {
      failures.fetch_add(1);
    }
  });

  // Kill the serving node once the client is mid-stream, then bring it back.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (completed.load() < 3 && std::chrono::steady_clock::now() < deadline) {
    usleep(5 * 1000);
  }
  ASSERT_GE(completed.load(), 3u) << "client never got off the ground";
  cluster.KillNode(kVictim);
  usleep(300 * 1000);
  ASSERT_TRUE(cluster.StartNode(kVictim, /*expect_recovery=*/true));

  client_thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(completed.load(), kOps);

  // Everything drains (>= : a resubmission that raced the kill may legally
  // re-execute, see header comment) and the cluster converges.
  ASSERT_TRUE(cluster.WaitAllApplied(kOps));
  cluster.StopAll();
  ShardState st = cluster.CollectState();
  for (uint32_t s = 0; s < kPartitions; s++) {
    for (uint32_t p = 1; p < kNodes; p++) {
      EXPECT_EQ(st.digests[p * kPartitions + s], st.digests[s])
          << "node " << p << " diverged on shard " << s;
    }
  }
}

// A client whose server never comes back exhausts its retries and reports it,
// instead of hanging forever or pretending success.
TEST(RtRecoveryTest, ClientGivesUpAfterBoundedRetries) {
  Client::Options copts;
  copts.max_retries = 2;
  copts.retry_backoff = 10 * common::kMillisecond;
  // A port with (almost certainly) no listener.
  Client client("127.0.0.1", 47999, copts);
  std::string result;
  EXPECT_FALSE(client.Call(smr::MakePut(1, 1, "k", "v"), &result));
  EXPECT_EQ(client.gave_up(), 1u);
  EXPECT_FALSE(client.Call(smr::MakePut(1, 2, "k", "v"), &result));
  EXPECT_EQ(client.gave_up(), 2u);
}

}  // namespace
}  // namespace rt
