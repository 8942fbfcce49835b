// Sharded replicas over real TCP: 3 nodes, P=4, one worker thread per shard
// owning its peer sockets, mixed kPut/kRmw.
//
// The same smr::Deployment assembly runs on the simulator and the TCP
// runtime, so the I/O tier must be a pure transport change: the same fixed
// command script produces byte-identical per-(node, shard) store digests and
// applied counts on the TCP cluster and on the discrete-event simulator, for
// Atlas, EPaxos and Mencius — and, for Atlas, also with worker-local
// submission batching. Each client owns a disjoint key set and blocks on
// every call, so the per-key apply order is the client's program order in
// every run — which is what makes the cross-driver digest comparison exact
// even for order-sensitive kRmw.
//
// The crash drill stops one shard's worker thread mid-run: the dead shard's
// input is dropped (never wedging the node), every other shard keeps
// committing across all three nodes, and full-cluster shutdown still joins
// cleanly (the 120s ctest timeout is the deadlock guard).
//
// The hop-ledger tests pin the runtime's shape: peer traffic and clients run
// on the workers' own sockets, so at P=1 no request crosses a mailbox, and at
// P=4 only the requests for another shard than the client's home worker's
// cross, to the owning worker and back.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/rt/node.h"
#include "src/sim/simulator.h"
#include "src/smr/deployment.h"
#include "src/smr/partitioner.h"

namespace rt {
namespace {

constexpr uint32_t kNodes = 3;
constexpr uint32_t kPartitions = 4;
constexpr uint64_t kClients = 4;
constexpr uint64_t kOpsPerClient = 20;

smr::DeploymentOptions MakeOptions(smr::Protocol protocol,
                                   common::Duration batch_window) {
  smr::DeploymentOptions d;
  d.protocol = protocol;
  d.n = kNodes;
  d.f = 1;
  d.partitions = kPartitions;
  d.batch_window = batch_window;
  d.batch_max = 16;
  return d;
}

// The fixed command script: client c's op i (1-based), client-owned keys
// cycling over 5 slots so kRmw appends stack up.
smr::Command ScriptedOp(uint64_t client, uint64_t i) {
  std::string key = "c" + std::to_string(client) + "-k" + std::to_string(i % 5);
  std::string value = "v" + std::to_string(i);
  return (i % 2 == 1) ? smr::MakePut(client, i, key, std::move(value))
                      : smr::MakeRmw(client, i, key, std::move(value));
}

struct ShardState {
  std::vector<uint64_t> digests;  // per (node, shard)
  std::vector<uint64_t> counts;
};

// The identical script on the discrete-event simulator through the same
// Deployment assembly (single-threaded by construction).
ShardState SimulatorReference(smr::Protocol protocol) {
  sim::Simulator::Options opts;
  opts.seed = 7;
  sim::Simulator sim(std::make_unique<sim::UniformLatency>(5 * common::kMillisecond,
                                                           common::kMillisecond),
                     opts);
  std::vector<std::unique_ptr<smr::Deployment>> replicas;
  for (uint32_t i = 0; i < kNodes; i++) {
    replicas.push_back(std::make_unique<smr::Deployment>(MakeOptions(protocol, 0)));
    sim.AddEngine(&replicas[i]->engine());
  }
  sim.SetExecutedHandler([&](common::ProcessId p, const common::Dot& dot,
                             const smr::Command& cmd) {
    replicas[p]->ApplyExecuted(
        dot, cmd, [](uint32_t, const smr::Command&, std::string&&) {});
  });
  sim.Start();
  for (uint64_t c = 1; c <= kClients; c++) {
    for (uint64_t i = 1; i <= kOpsPerClient; i++) {
      sim.Submit(static_cast<common::ProcessId>(c % kNodes), ScriptedOp(c, i));
    }
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

// Brings up a 3-node loopback cluster, drives the script through blocking
// clients (one thread per client), drains, and returns per-(node, shard) state.
void RunTcpCluster(smr::Protocol protocol, common::Duration batch_window,
                   uint16_t port_base, ShardState* out) {
  for (int attempt = 0; attempt < 5; attempt++) {
    uint16_t base =
        static_cast<uint16_t>(port_base + attempt * 16 + (getpid() % 512));
    std::vector<PeerAddress> addrs;
    for (uint32_t i = 0; i < kNodes; i++) {
      addrs.push_back(PeerAddress{"127.0.0.1", static_cast<uint16_t>(base + i)});
    }
    std::vector<std::unique_ptr<smr::Deployment>> replicas;
    std::vector<std::unique_ptr<Node>> nodes;
    bool bind_ok = true;
    for (uint32_t i = 0; i < kNodes; i++) {
      replicas.push_back(
          std::make_unique<smr::Deployment>(MakeOptions(protocol, batch_window)));
      nodes.push_back(std::make_unique<Node>(i, addrs, replicas[i].get()));
      if (!nodes.back()->Listen()) {
        bind_ok = false;
        break;
      }
    }
    if (!bind_ok) {
      continue;
    }
    std::vector<std::thread> node_threads;
    for (uint32_t i = 0; i < kNodes; i++) {
      node_threads.emplace_back([&, i]() { nodes[i]->Run(); });
    }

    std::atomic<int> failures{0};
    std::vector<std::thread> client_threads;
    for (uint64_t c = 1; c <= kClients; c++) {
      client_threads.emplace_back([&, c]() {
        Client client("127.0.0.1", addrs[c % kNodes].port);
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
        std::string result;
        for (uint64_t i = 1; i <= kOpsPerClient; i++) {
          if (!client.Call(ScriptedOp(c, i), &result)) {
            failures.fetch_add(1);
            return;
          }
        }
      });
    }
    for (auto& t : client_threads) {
      t.join();
    }

    // Every node executes every command; wait (with a guard) for the commit
    // stream to drain everywhere before stopping the loops. Nodes are always
    // stopped and joined before any assertion fires — a fatal failure with
    // joinable node threads would std::terminate the whole binary.
    const uint64_t expected = kClients * kOpsPerClient;
    if (failures.load() == 0) {
      auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
      bool drained = false;
      while (!drained && std::chrono::steady_clock::now() < deadline) {
        drained = true;
        for (auto& node : nodes) {
          if (node->applied_ops() < expected) {
            drained = false;
            break;
          }
        }
        if (!drained) {
          usleep(10 * 1000);
        }
      }
    }
    for (auto& node : nodes) {
      node->Stop();
    }
    for (auto& t : node_threads) {
      t.join();
    }
    ASSERT_EQ(failures.load(), 0) << "client calls failed";
    for (auto& node : nodes) {
      EXPECT_EQ(node->applied_ops(), expected) << "node failed to drain";
    }
    // Workers are joined (Run returned), so per-shard state is safe to read.
    for (uint32_t p = 0; p < kNodes; p++) {
      for (uint32_t s = 0; s < kPartitions; s++) {
        out->digests.push_back(replicas[p]->store(s).StateDigest());
        out->counts.push_back(replicas[p]->applied_count(s));
      }
    }
    return;
  }
  FAIL() << "could not bind a port block after 5 attempts";
}

void ExpectConvergedAndMatching(const ShardState& got, const ShardState& ref) {
  ASSERT_EQ(got.digests.size(), kNodes * kPartitions);
  for (uint32_t s = 0; s < kPartitions; s++) {
    for (uint32_t p = 1; p < kNodes; p++) {
      EXPECT_EQ(got.digests[p * kPartitions + s], got.digests[s])
          << "node " << p << " diverged on shard " << s;
      EXPECT_EQ(got.counts[p * kPartitions + s], got.counts[s])
          << "node " << p << " count mismatch on shard " << s;
    }
  }
  // Parity with the simulator driving the same assembly over the same script.
  EXPECT_EQ(got.digests, ref.digests);
  EXPECT_EQ(got.counts, ref.counts);
  // The workload really is spread over multiple partitions.
  uint32_t busy = 0;
  for (uint32_t s = 0; s < kPartitions; s++) {
    if (got.counts[s] > 0) {
      busy++;
    }
  }
  EXPECT_GE(busy, 2u);
}

// The parity gate: TCP == simulator, per (node, shard), digests and counts.
void ExpectTcpMatchesSimulator(smr::Protocol protocol, uint16_t port_base) {
  SCOPED_TRACE(smr::ProtocolName(protocol));
  ShardState ref = SimulatorReference(protocol);
  ShardState tcp;
  RunTcpCluster(protocol, /*batch_window=*/0, port_base, &tcp);
  if (::testing::Test::HasFatalFailure()) {
    return;
  }
  ExpectConvergedAndMatching(tcp, ref);
}

TEST(RtThreadedTest, TcpMatchesSimulator) {
  ExpectTcpMatchesSimulator(smr::Protocol::kAtlas, 45000);
  ExpectTcpMatchesSimulator(smr::Protocol::kEPaxos, 47000);
  ExpectTcpMatchesSimulator(smr::Protocol::kMencius, 49000);
}

// Worker-local submission batching (the flush timer lives in the worker's own
// timer wheel, not the I/O loop) must not change the final replicated state.
TEST(RtThreadedTest, BatchedSubmissionConvergesToSameState) {
  ShardState ref = SimulatorReference(smr::Protocol::kAtlas);
  ShardState tcp;
  RunTcpCluster(smr::Protocol::kAtlas, /*batch_window=*/2 * common::kMillisecond,
                45400, &tcp);
  if (HasFatalFailure()) {
    return;
  }
  ExpectConvergedAndMatching(tcp, ref);
}

// Crash drill: stop one shard's worker thread on node 0 mid-run. The other
// shards keep committing on ALL nodes (including node 0 — a dead shard must
// not wedge its node), and full shutdown joins cleanly.
TEST(RtThreadedTest, CrashedShardThreadDoesNotWedgeNodeAndJoinsCleanly) {
  for (int attempt = 0; attempt < 5; attempt++) {
    uint16_t base =
        static_cast<uint16_t>(46000 + attempt * 16 + (getpid() % 512));
    std::vector<PeerAddress> addrs;
    for (uint32_t i = 0; i < kNodes; i++) {
      addrs.push_back(PeerAddress{"127.0.0.1", static_cast<uint16_t>(base + i)});
    }
    std::vector<std::unique_ptr<smr::Deployment>> replicas;
    std::vector<std::unique_ptr<Node>> nodes;
    bool bind_ok = true;
    for (uint32_t i = 0; i < kNodes; i++) {
      replicas.push_back(
          std::make_unique<smr::Deployment>(MakeOptions(smr::Protocol::kAtlas, 0)));
      nodes.push_back(std::make_unique<Node>(i, addrs, replicas[i].get()));
      if (!nodes.back()->Listen()) {
        bind_ok = false;
        break;
      }
    }
    if (!bind_ok) {
      continue;
    }
    std::vector<std::thread> node_threads;
    for (uint32_t i = 0; i < kNodes; i++) {
      node_threads.emplace_back([&, i]() { nodes[i]->Run(); });
    }

    const uint32_t dead = 2;
    smr::Partitioner part(kPartitions);
    // Keys that avoid the to-be-killed shard, for the post-crash phase.
    std::vector<std::string> live_keys;
    for (int i = 0; live_keys.size() < 8 && i < 10000; i++) {
      std::string k = "live" + std::to_string(i);
      if (part.ShardOf(k) != dead) {
        live_keys.push_back(k);
      }
    }

    bool connected = false;
    uint64_t phase1_ok = 0;
    uint64_t phase2_ok = 0;
    bool stop_one = false;
    bool stop_again = true;
    const uint64_t kPhaseOps = 8;
    auto drained_to = [&nodes](uint64_t target) {
      auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (std::chrono::steady_clock::now() < deadline) {
        bool ok = true;
        for (auto& node : nodes) {
          if (node->applied_ops() < target) {
            ok = false;
            break;
          }
        }
        if (ok) {
          return true;
        }
        usleep(10 * 1000);
      }
      return false;
    };
    bool drain1 = false;
    bool drain2 = false;
    {
      Client client("127.0.0.1", addrs[1].port);
      for (int i = 0; i < 200 && !connected; i++) {
        connected = client.Connect();
        if (!connected) {
          usleep(20 * 1000);
        }
      }
      if (connected) {
        std::string result;
        // Phase 1: ops across every shard, all healthy.
        for (uint64_t i = 1; i <= kPhaseOps; i++) {
          if (client.Call(ScriptedOp(1, i), &result)) {
            phase1_ok++;
          }
        }
        drain1 = drained_to(kPhaseOps);

        // Kill shard `dead`'s worker on node 0 (a thread-level fault, not a
        // process crash: the node's I/O loop and other workers keep running).
        stop_one = nodes[0]->shard_runtime()->StopOne(dead);
        stop_again = nodes[0]->shard_runtime()->StopOne(dead);

        // Phase 2: ops confined to surviving shards complete on all nodes —
        // node 0 included, via commit messages its live workers still process.
        for (uint64_t i = 0; i < kPhaseOps; i++) {
          smr::Command cmd = smr::MakePut(
              2, i + 1, live_keys[i % live_keys.size()], "after-crash");
          if (client.Call(cmd, &result)) {
            phase2_ok++;
          }
        }
        drain2 = drained_to(kPhaseOps * 2);
      }
    }
    for (auto& node : nodes) {
      node->Stop();
    }
    for (auto& t : node_threads) {
      t.join();  // the clean-shutdown assertion: a wedged node hangs here
    }
    ASSERT_TRUE(connected);
    ASSERT_GE(live_keys.size(), 8u);
    EXPECT_TRUE(stop_one) << "StopOne should stop a running worker";
    EXPECT_FALSE(stop_again) << "second StopOne must report already-stopped";
    EXPECT_EQ(phase1_ok, kPhaseOps);
    EXPECT_TRUE(drain1) << "healthy phase failed to drain";
    EXPECT_EQ(phase2_ok, kPhaseOps);
    EXPECT_TRUE(drain2) << "post-crash phase failed to drain on all nodes";
    return;
  }
  FAIL() << "could not bind a port block after 5 attempts";
}

// The hop ledger around N blocking client calls: one client on node 0 of a
// 3-node Atlas cluster with `partitions` shards makes kCalls calls after a
// warm-up that every node applied (so every worker holds its peers and no
// socket handoff lands in the window).
struct HopLedger {
  bool warm = false;
  bool drained = false;
  uint64_t ok_calls = 0;
  uint64_t first_seq = 0;  // the calls are seqs [first_seq, first_seq + kCalls)
  std::vector<HopCounts> before = std::vector<HopCounts>(kNodes);
  std::vector<HopCounts> after = std::vector<HopCounts>(kNodes);
};

constexpr uint64_t kLedgerCalls = 50;

void RunHopLedger(uint32_t partitions, uint16_t port_base, HopLedger* out) {
  constexpr uint64_t kWarmup = 5;
  for (int attempt = 0; attempt < 5; attempt++) {
    uint16_t base = static_cast<uint16_t>(port_base + attempt * 16 + (getpid() % 512));
    std::vector<PeerAddress> addrs;
    for (uint32_t i = 0; i < kNodes; i++) {
      addrs.push_back(PeerAddress{"127.0.0.1", static_cast<uint16_t>(base + i)});
    }
    std::vector<std::unique_ptr<smr::Deployment>> replicas;
    std::vector<std::unique_ptr<Node>> nodes;
    bool bind_ok = true;
    for (uint32_t i = 0; i < kNodes && bind_ok; i++) {
      smr::DeploymentOptions d = MakeOptions(smr::Protocol::kAtlas, 0);
      d.partitions = partitions;
      replicas.push_back(std::make_unique<smr::Deployment>(d));
      nodes.push_back(std::make_unique<Node>(i, addrs, replicas[i].get()));
      bind_ok = nodes.back()->Listen();
    }
    if (!bind_ok) {
      continue;
    }
    std::vector<std::thread> node_threads;
    for (uint32_t i = 0; i < kNodes; i++) {
      node_threads.emplace_back([&, i]() { nodes[i]->Run(); });
    }
    auto all_applied = [&nodes](uint64_t target) {
      auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (std::chrono::steady_clock::now() < deadline) {
        bool ok = true;
        for (auto& node : nodes) {
          ok = ok && node->applied_ops() >= target;
        }
        if (ok) {
          return true;
        }
        usleep(5 * 1000);
      }
      return false;
    };

    {
      Client client("127.0.0.1", addrs[0].port);
      bool connected = false;
      for (int i = 0; i < 200 && !connected; i++) {
        connected = client.Connect() || (usleep(20 * 1000), false);
      }
      std::string result;
      for (uint64_t i = 1; connected && i <= kWarmup; i++) {
        client.Call(ScriptedOp(1, i), &result);
      }
      out->warm = connected && all_applied(kWarmup);
      for (uint32_t i = 0; i < kNodes; i++) {
        out->before[i] = nodes[i]->shard_runtime()->hops();
      }
      out->first_seq = kWarmup + 1;
      for (uint64_t i = kWarmup + 1; out->warm && i <= kWarmup + kLedgerCalls; i++) {
        out->ok_calls += client.Call(ScriptedOp(1, i), &result) ? 1 : 0;
      }
      out->drained = out->warm && all_applied(kWarmup + kLedgerCalls);
      for (uint32_t i = 0; i < kNodes; i++) {
        out->after[i] = nodes[i]->shard_runtime()->hops();
      }
    }
    for (auto& node : nodes) {
      node->Stop();
    }
    for (auto& t : node_threads) {
      t.join();
    }
    return;
  }
  FAIL() << "could not bind a port block after 5 attempts";
}

// At P=1 a node's one worker owns its peer sockets and its clients, so
// across the calls no node sees a mailbox item of any kind: no socket
// handoff, no forward, no returned reply and no doorbell write.
TEST(RtThreadedTest, PeerTrafficNeverCrossesAMailbox) {
  HopLedger l;
  RunHopLedger(/*partitions=*/1, 46500, &l);
  if (HasFatalFailure()) {
    return;
  }
  ASSERT_TRUE(l.warm) << "warm-up did not reach every node";
  EXPECT_EQ(l.ok_calls, kLedgerCalls);
  EXPECT_TRUE(l.drained);
  for (uint32_t i = 0; i < kNodes; i++) {
    EXPECT_EQ(l.after[i].inbox_items, l.before[i].inbox_items) << "node " << i;
    EXPECT_EQ(l.after[i].forwarded, l.before[i].forwarded) << "node " << i;
    EXPECT_EQ(l.after[i].returned, l.before[i].returned) << "node " << i;
    EXPECT_EQ(l.after[i].bell_writes, l.before[i].bell_writes) << "node " << i;
  }
}

// At P=4 the client's home worker submits the calls for its own shard and
// forwards each of the others to its shard's owner, which sends exactly one
// reply back. Node 0's first client connection is homed on worker 0 (the
// round-robin starts there). Nodes 1 and 2 serve no client and see nothing.
TEST(RtThreadedTest, HomeWorkerForwardsOnlyOtherShardsRequests) {
  HopLedger l;
  RunHopLedger(kPartitions, 46600, &l);
  if (HasFatalFailure()) {
    return;
  }
  ASSERT_TRUE(l.warm) << "warm-up did not reach every node";
  smr::Partitioner part(kPartitions);
  uint64_t foreign = 0;
  for (uint64_t i = l.first_seq; i < l.first_seq + kLedgerCalls; i++) {
    foreign += part.ShardOf(ScriptedOp(1, i).key) != 0 ? 1 : 0;
  }
  ASSERT_GT(foreign, 0u);
  ASSERT_LT(foreign, kLedgerCalls);
  EXPECT_EQ(l.ok_calls, kLedgerCalls);
  EXPECT_TRUE(l.drained);
  EXPECT_EQ(l.after[0].inbox_items, l.before[0].inbox_items);
  EXPECT_EQ(l.after[0].forwarded - l.before[0].forwarded, foreign);
  EXPECT_EQ(l.after[0].returned - l.before[0].returned, foreign);
  for (uint32_t i = 1; i < kNodes; i++) {
    EXPECT_EQ(l.after[i].inbox_items, l.before[i].inbox_items) << "node " << i;
    EXPECT_EQ(l.after[i].forwarded, l.before[i].forwarded) << "node " << i;
    EXPECT_EQ(l.after[i].returned, l.before[i].returned) << "node " << i;
  }
}

// Deadlock freedom at the forward cap. One client on node 0 (homed on worker
// 0) pipelines kMailboxCapacity + 2048 requests, all for one other shard,
// while nodes 1 and 2 are bound but not yet running: nothing can commit, so
// the home forwards exactly kMailboxCapacity of them and then stops reading
// the client. Once nodes 1 and 2 run, replies bring the home back under the
// cap, it reads the rest, and every request is answered exactly once.
TEST(RtThreadedTest, PipelinedBurstPastTheForwardCapCompletes) {
  const uint64_t kBurst = kMailboxCapacity + 2048;
  smr::Partitioner part(kPartitions);
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < 32; i++) {
    std::string k = "burst" + std::to_string(i);
    if (part.ShardOf(k) == 1) {
      keys.push_back(k);
    }
  }
  for (int attempt = 0; attempt < 5; attempt++) {
    uint16_t base = static_cast<uint16_t>(46700 + attempt * 16 + (getpid() % 512));
    std::vector<PeerAddress> addrs;
    for (uint32_t i = 0; i < kNodes; i++) {
      addrs.push_back(PeerAddress{"127.0.0.1", static_cast<uint16_t>(base + i)});
    }
    std::vector<std::unique_ptr<smr::Deployment>> replicas;
    std::vector<std::unique_ptr<Node>> nodes;
    bool bind_ok = true;
    for (uint32_t i = 0; i < kNodes && bind_ok; i++) {
      replicas.push_back(
          std::make_unique<smr::Deployment>(MakeOptions(smr::Protocol::kAtlas, 0)));
      nodes.push_back(std::make_unique<Node>(i, addrs, replicas[i].get()));
      bind_ok = nodes.back()->Listen();
    }
    if (!bind_ok) {
      continue;
    }
    std::vector<std::thread> node_threads;
    node_threads.emplace_back([&]() { nodes[0]->Run(); });

    std::atomic<uint64_t> sent{0};
    std::atomic<uint64_t> replies{0};
    std::atomic<uint64_t> strays{0};  // duplicate or unknown seqs
    std::thread client_thread([&]() {
      Client client("127.0.0.1", addrs[0].port);
      bool connected = false;
      for (int i = 0; i < 200 && !connected; i++) {
        connected = client.Connect() || (usleep(20 * 1000), false);
      }
      for (uint64_t seq = 1; connected && seq <= kBurst; seq++) {
        if (!client.Send(smr::MakePut(7, seq, keys[seq % keys.size()], "v"))) {
          return;
        }
        sent.fetch_add(1);
      }
      std::vector<bool> answered(kBurst + 1, false);
      uint64_t seq = 0;
      while (replies.load() < kBurst && client.RecvReply(&seq, nullptr)) {
        if (seq >= 1 && seq <= kBurst && !answered[seq]) {
          answered[seq] = true;
          replies.fetch_add(1);
        } else {
          strays.fetch_add(1);
        }
      }
    });

    auto wait_for = [](const std::function<bool()>& done) {
      auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (!done() && std::chrono::steady_clock::now() < deadline) {
        usleep(5 * 1000);
      }
      return done();
    };
    ShardRuntime* home = nodes[0]->shard_runtime();
    bool capped = wait_for([&]() { return home->hops().forwarded >= kMailboxCapacity; });
    usleep(50 * 1000);
    uint64_t forwarded_at_cap = home->hops().forwarded;
    for (uint32_t i = 1; i < kNodes; i++) {
      node_threads.emplace_back([&, i]() { nodes[i]->Run(); });
    }
    bool answered = wait_for([&]() { return replies.load() >= kBurst; });
    HopCounts after = home->hops();
    for (auto& node : nodes) {
      node->Stop();  // also unblocks a client still waiting on its socket
    }
    for (auto& t : node_threads) {
      t.join();
    }
    client_thread.join();
    EXPECT_TRUE(capped) << "the home never reached the forward cap";
    EXPECT_EQ(forwarded_at_cap, kMailboxCapacity) << "the home read past the cap";
    EXPECT_TRUE(answered);
    EXPECT_EQ(sent.load(), kBurst);
    EXPECT_EQ(replies.load(), kBurst);
    EXPECT_EQ(strays.load(), 0u);
    EXPECT_EQ(after.forwarded, kBurst);
    EXPECT_EQ(after.returned, kBurst);
    return;
  }
  FAIL() << "could not bind a port block after 5 attempts";
}

}  // namespace
}  // namespace rt
