// Real-runtime tests: a P=1 Atlas deployment over actual TCP sockets on localhost,
// one shard worker per node (framing and behavior must stay exactly as seeded;
// rt_threaded_test covers P>1).
#include "src/rt/node.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>

#include "src/smr/deployment.h"

namespace rt {
namespace {

// A three-replica P=1 Atlas cluster on loopback, each node on its own thread.
struct Cluster {
  static constexpr uint32_t kN = 3;

  Cluster() = default;
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster() { Stop(); }  // a failed assertion must not leave nodes unjoined

  // Binds a fixed port block chosen from the ephemeral range, retrying the next
  // block on collision, and starts every node. Returns false if no block binds.
  bool Start(uint16_t first_port) {
    for (int attempt = 0; attempt < 5; attempt++) {
      uint16_t base =
          static_cast<uint16_t>(first_port + attempt * 16 + (getpid() % 512));
      addrs.clear();
      replicas.clear();
      nodes.clear();
      for (uint32_t i = 0; i < kN; i++) {
        addrs.push_back(PeerAddress{"127.0.0.1", static_cast<uint16_t>(base + i)});
      }
      bool bind_ok = true;
      for (uint32_t i = 0; i < kN && bind_ok; i++) {
        smr::DeploymentOptions d;
        d.protocol = smr::Protocol::kAtlas;
        d.n = kN;
        d.f = 1;
        replicas.push_back(std::make_unique<smr::Deployment>(std::move(d)));
        nodes.push_back(std::make_unique<Node>(i, addrs, replicas[i].get()));
        bind_ok = nodes.back()->Listen();
      }
      if (!bind_ok) {
        continue;
      }
      for (uint32_t i = 0; i < kN; i++) {
        threads.emplace_back([this, i]() { nodes[i]->Run(); });
      }
      return true;
    }
    return false;
  }

  // The cluster needs a moment to mesh up; retries the connection.
  bool Connect(Client& client) {
    for (int i = 0; i < 100; i++) {
      if (client.Connect()) {
        return true;
      }
      usleep(20 * 1000);
    }
    return false;
  }

  void Stop() {
    if (threads.empty()) {
      return;
    }
    for (auto& node : nodes) {
      node->Stop();
    }
    for (auto& t : threads) {
      t.join();
    }
    threads.clear();
  }

  std::vector<PeerAddress> addrs;
  std::vector<std::unique_ptr<smr::Deployment>> replicas;
  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<std::thread> threads;
};

TEST(RtTest, ThreeNodeClusterServesClients) {
  Cluster c;
  ASSERT_TRUE(c.Start(42000))
      << "could not bind a port block after 5 attempts";
  Client client("127.0.0.1", c.addrs[0].port);
  ASSERT_TRUE(c.Connect(client));

  std::string result;
  ASSERT_TRUE(client.Call(smr::MakePut(1, 1, "k", "hello"), &result));
  ASSERT_TRUE(client.Call(smr::MakeGet(1, 2, "k"), &result));
  EXPECT_EQ(result, "hello");
  ASSERT_TRUE(client.Call(smr::MakeRmw(1, 3, "k", "!"), &result));
  EXPECT_EQ(result, "hello");
  ASSERT_TRUE(client.Call(smr::MakeGet(1, 4, "k"), &result));
  EXPECT_EQ(result, "hello!");

  // A second client at another replica observes the same data (linearizable read
  // via SMR execution at that site).
  Client client2("127.0.0.1", c.addrs[1].port);
  ASSERT_TRUE(client2.Connect());
  ASSERT_TRUE(client2.Call(smr::MakeGet(2, 1, "k"), &result));
  EXPECT_EQ(result, "hello!");

  // kBatch is an internal composite; a client injecting one (here with a
  // garbage payload that would fail the deployment's unpack CHECK) must be
  // rejected at the node, not crash the cluster.
  smr::Command bogus_batch;
  bogus_batch.client = 2;
  bogus_batch.seq = 2;
  bogus_batch.op = smr::Op::kBatch;
  bogus_batch.key = "k";
  ASSERT_TRUE(client2.Call(bogus_batch, &result));
  EXPECT_EQ(result, "<dropped>");
  ASSERT_TRUE(client2.Call(smr::MakeGet(2, 3, "k"), &result));
  EXPECT_EQ(result, "hello!");

  c.Stop();
  // The replicas that served clients applied identical state.
  EXPECT_EQ(c.replicas[0]->store().StateDigest(), c.replicas[1]->store().StateDigest());
}

// No code in the tree may paper over a SIGPIPE by ignoring the signal: every
// socket write passes MSG_NOSIGNAL and turns EPIPE into a closed connection.
bool SigpipeIsDefault() {
  struct sigaction sa;
  EXPECT_EQ(sigaction(SIGPIPE, nullptr, &sa), 0);
  return sa.sa_handler == SIG_DFL;
}

TEST(RtTest, ClientSendToVanishedServerFailsWithoutSignal) {
  ASSERT_TRUE(SigpipeIsDefault());
  int lfd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(lfd, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = 0;  // any free port
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(bind(lfd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(lfd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(getsockname(lfd, reinterpret_cast<struct sockaddr*>(&addr), &len), 0);

  Client client("127.0.0.1", ntohs(addr.sin_port));
  ASSERT_TRUE(client.Connect());
  // Closing with the client's hello still unread resets the connection: the
  // client's next write fails, and every write after that one hits EPIPE.
  int cfd = accept(lfd, nullptr, nullptr);
  ASSERT_GE(cfd, 0);
  close(cfd);
  close(lfd);
  int failed = 0;
  for (uint64_t seq = 1; seq <= 20; seq++) {
    if (!client.Send(smr::MakePut(1, seq, "k", "v"))) {
      failed++;
    }
    usleep(1000);
  }
  EXPECT_GE(failed, 2);  // still alive after writes past the reset
  EXPECT_TRUE(SigpipeIsDefault());
}

TEST(RtTest, NodeKeepsServingWhenClientsVanishMidReply) {
  ASSERT_TRUE(SigpipeIsDefault());
  Cluster c;
  ASSERT_TRUE(c.Start(43000))
      << "could not bind a port block after 5 attempts";
  Client steady("127.0.0.1", c.addrs[0].port);
  ASSERT_TRUE(c.Connect(steady));
  std::string result;
  ASSERT_TRUE(steady.Call(smr::MakePut(1, 1, "k", "v1"), &result));

  // Each rude client pipelines a burst, waits for its first reply and hangs
  // up, so the node keeps writing replies to a socket the peer has closed.
  for (uint64_t round = 0; round < 64; round++) {
    Client rude("127.0.0.1", c.addrs[round % Cluster::kN].port);
    ASSERT_TRUE(rude.Connect());
    const uint64_t client_id = 100 + round;
    for (uint64_t seq = 1; seq <= 256; seq++) {
      ASSERT_TRUE(
          rude.Send(smr::MakePut(client_id, seq, "r" + std::to_string(seq % 8), "x")));
    }
    uint64_t seq_out = 0;
    ASSERT_TRUE(rude.RecvReply(&seq_out, &result));
    rude.Disconnect();
  }

  // The nodes survived and still serve the remaining client and new ones.
  ASSERT_TRUE(steady.Call(smr::MakePut(1, 2, "k", "v2"), &result));
  ASSERT_TRUE(steady.Call(smr::MakeGet(1, 3, "k"), &result));
  EXPECT_EQ(result, "v2");
  Client other("127.0.0.1", c.addrs[2].port);
  ASSERT_TRUE(other.Connect());
  ASSERT_TRUE(other.Call(smr::MakeGet(2, 1, "k"), &result));
  EXPECT_EQ(result, "v2");
  c.Stop();
  EXPECT_TRUE(SigpipeIsDefault());
}

}  // namespace
}  // namespace rt
