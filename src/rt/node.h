// Real-runtime replica node: runs one smr::Deployment over TCP.
//
// A node listens on one port for both peer and client connections; frames are
// 4-byte little-endian length + codec-encoded payload (rt::Connection):
//   message:          [u8 = 0][msg::Message]
//   peer hello:       [u8 = 1][u32 sender_id][varint shard]
//   client hello:     [u8 = 2]
//   catch-up request: [u8 = 3][varint seq_floor][bytes(frontier)]
//   catch-up entries: [u8 = 4][(dot, cmd) ... to the end of the frame]
// Peers form a full mesh with one connection per (peer, shard) pair: node i
// dials every shard of every peer j > i, all at once and non-blocking; lower
// ids accept. A peer connection carries one shard's traffic: its envelopes
// bear that shard's tag, and its catch-up frames are that shard's.
//
// Who owns which socket: the node's I/O thread (the one in Run()) owns the
// listen socket, every connection until its hello, client connections, and
// dialing. A peer connection, once its hello is sent (dialer) or read
// (acceptor), belongs to its shard's worker (src/rt/shard_runtime.h), which
// reports its loss back so the dialing side redials with backoff (the
// accepting side waits for a fresh hello). Client requests go through the
// deployment's smr::Partitioner to their partition's worker, which returns
// the reply once the command executes locally.
//
// Durable restart: a node constructed over a non-empty data_dir recovers its
// stores from disk (snapshot + log tail, see src/dur), and each worker
// catches its shard up from its peers once the shard's mesh re-forms. Clients
// that vanish mid-request are reaped; on durable nodes a reconnecting client
// may resubmit the same (client, seq) and gets the cached result instead of a
// re-execution.
#ifndef SRC_RT_NODE_H_
#define SRC_RT_NODE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/chk/checker.h"
#include "src/codec/codec.h"
#include "src/rt/event_loop.h"
#include "src/rt/shard_runtime.h"
#include "src/smr/deployment.h"

namespace rt {

struct PeerAddress {
  std::string host;
  uint16_t port = 0;
};

class Node final : public ShardOutputSink {
 public:
  // The deployment (one node's full replica assembly: engine, per-shard stores,
  // batching) is borrowed and must outlive the node.
  Node(common::ProcessId id, std::vector<PeerAddress> peers,
       smr::Deployment* deployment);
  ~Node();

  // Binds the listen socket; returns false on bind failure.
  bool Listen();
  // Starts the shard workers, dials every shard of every higher-id peer and
  // serves until Stop(), which ends it at any point (mesh complete or not).
  // Each worker starts its engine once its shard's peer connections are all
  // up. Blocks.
  void Run();
  void Stop();

  uint16_t port() const { return peers_[self_].port; }

  // Client commands applied to this node's stores so far (sub-commands of a batch
  // count individually; noOps excluded). Safe to read from other threads: tests
  // poll it to detect quiescence before stopping the cluster.
  uint64_t applied_ops() const { return shards_->applied_ops(); }

  // The node's shard workers. Exposed for fault drills (tests stop one shard's
  // worker and assert clean node shutdown), drop monitoring and the hop ledger.
  ShardRuntime* shard_runtime() { return shards_.get(); }

  // ShardOutputSink (I/O thread): replies are queued per connection and
  // FlushDirty writes each touched socket once per drain pass; a lost peer
  // connection this node dialed is redialed.
  void OnClientReply(uint64_t client, uint64_t seq, std::string&& value,
                     bool dropped) override;
  void OnPeerLost(uint32_t shard, common::ProcessId peer) override;

 private:
  // A dialed (peer, shard) connection: in progress, handed to its worker, or
  // waiting out its redial backoff.
  struct PeerLink {
    int dial_fd = -1;
    bool up = false;
    common::Duration backoff = 0;  // next redial delay; 0 = the floor
  };

  void AcceptReady();
  void OnConnReady(Connection* conn, uint32_t events);
  // Handles one frame of a connection the node owns; false once the
  // connection was handed to a worker (the rest of its input goes along).
  bool OnFrame(Connection* conn, const uint8_t* data, size_t size);
  // A client's message frame: validates and routes its ClientRequest.
  void OnClientMessage(Connection* conn, codec::Reader& r);
  // Gives a peer socket and the input read past its hello to `shard`'s worker.
  void HandOff(uint32_t shard, common::ProcessId peer, int fd,
               std::vector<uint8_t>&& unread);
  // Connection teardown: a closed socket schedules a reap on the loop (never
  // destroyed mid-callback); the reap scrubs every raw pointer to the
  // connection (waiting_clients_, dirty_conns_) before freeing it.
  void NoteClosed();
  void ReapConnections();
  PeerLink& link(common::ProcessId p, uint32_t shard) {
    return links_[p * shards_->partitions() + shard];
  }
  void ScheduleRedial(common::ProcessId p, uint32_t shard);
  void DialPeer(common::ProcessId p, uint32_t shard);
  void OnDialReady(common::ProcessId p, uint32_t shard, int fd);
  // Completion bookkeeping for durable client idempotency (no-op otherwise).
  void CompleteClient(uint64_t client, uint64_t seq, const std::string& value,
                      bool dropped);
  // Routes `in` until the shard's inbox takes it, draining worker outboxes
  // while it is full (never a blocking wait; bounded retries, then the input
  // is dropped and counted, and false returned).
  bool RouteWithRetry(uint32_t shard, ShardInput& in);
  // Doorbell callback: drain outboxes, flush dirty sockets.
  void OnWorkerOutput();
  void MarkDirty(Connection* conn);
  void FlushDirty();
  // Queues a ClientReply frame on the connection and marks it dirty.
  void SendReply(Connection* conn, uint64_t client, uint64_t seq, std::string&& value,
                 bool dropped);

  common::ProcessId self_;
  std::vector<PeerAddress> peers_;
  smr::Deployment* deployment_;

  EventLoop loop_;
  int listen_fd_ = -1;
  std::vector<std::unique_ptr<Connection>> conns_;  // pre-hello + client conns
  // (client, seq) -> connection serving that client.
  std::unordered_map<chk::CmdKey, Connection*, chk::CmdKeyHash> waiting_clients_;
  // Dialed links by (peer * partitions + shard); only peers above self_.
  std::vector<PeerLink> links_;
  bool reap_scheduled_ = false;
  // Durable client idempotency: commands submitted but not yet completed, and
  // each client's last completed (seq, result) for resubmit short-circuiting.
  std::unordered_set<chk::CmdKey, chk::CmdKeyHash> in_flight_;
  std::unordered_map<uint64_t, std::pair<uint64_t, std::string>> client_done_;
  std::vector<Connection*> dirty_conns_;

  // Declaration order matters: workers reference the deployment, so shards_
  // (declared last) is destroyed — and its workers joined — first.
  std::unique_ptr<ShardRuntime> shards_;
};

// Minimal synchronous client for examples and tests. Also supports pipelined
// use (a fixed window of outstanding requests per connection) via Send/RecvReply;
// Call is Send + RecvReply with one outstanding request.
//
// With Options::max_retries > 0, Call() survives a dying server socket: it
// reconnects with backoff and resubmits the same (client, seq). Durable nodes
// deduplicate the resubmission (cached result for a completed command,
// re-pointing for one still in flight), so the retry is idempotent. A Call
// that exhausts its retries bumps gave_up() and returns false — the caller
// knows the command's fate is unknown rather than silently hanging.
class Client {
 public:
  struct Options {
    int max_retries = 0;  // reconnect-and-resubmit attempts after a failure
    common::Duration retry_backoff = 100 * common::kMillisecond;
  };

  Client(const std::string& host, uint16_t port);
  Client(const std::string& host, uint16_t port, Options opts);
  ~Client();

  bool Connect();
  void Disconnect();
  bool connected() const { return fd_ >= 0; }
  // Sends cmd and blocks until the reply arrives, reconnecting/resubmitting up
  // to max_retries times. Returns false on connection error or retry exhaustion.
  bool Call(const smr::Command& cmd, std::string* result_out);

  // Calls that exhausted every retry (their outcome is unknown).
  uint64_t gave_up() const { return gave_up_; }

  // Pipelined path: enqueue one request without waiting for its reply.
  bool Send(const smr::Command& cmd);
  // Blocks until the next ClientReply frame arrives. Replies to one connection
  // can arrive out of submission order (commands on different shards complete
  // independently), so the reply's seq is reported for correlation.
  bool RecvReply(uint64_t* seq_out, std::string* result_out);

 private:
  std::string host_;
  uint16_t port_;
  Options opts_;
  int fd_ = -1;
  uint64_t gave_up_ = 0;
  std::vector<uint8_t> in_;  // partial-frame carry across RecvReply calls
};

}  // namespace rt

#endif  // SRC_RT_NODE_H_
