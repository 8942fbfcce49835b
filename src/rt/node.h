// Real-runtime replica node: runs one smr::Deployment over TCP.
//
// A node listens on one port for both peer and client connections; frames are
// 4-byte little-endian length + codec-encoded payload (rt::Connection):
//   message:          [u8 = 0][msg::Message]
//   peer hello:       [u8 = 1][u32 sender_id][varint shard]
//   client hello:     [u8 = 2]
//   catch-up request: [u8 = 3][varint seq_floor][bytes(frontier)]
//   catch-up entries: [u8 = 4][(dot, cmd) ... to the end of the frame]
// Peers form a full mesh with one connection per (peer, shard) pair: node i's
// worker for shard s dials shard s of every peer j > i, non-blocking; lower
// ids accept. A peer connection carries one shard's traffic: its envelopes
// bear that shard's tag, and its catch-up frames are that shard's.
//
// Who owns which socket: the node's I/O thread (the one in Run()) only
// accepts connections, reads their hellos and hands each socket, with any
// bytes read past the hello, to a shard worker (src/rt/shard_runtime.h): a
// peer's to its shard's worker, a client's to its home worker. The workers
// own the sockets from then on. Each worker dials its own shard's connections
// to the higher-id peers and redials one it loses, with backoff; the
// accepting side waits for a fresh hello. A client's home worker decodes its
// requests, forwards those for other shards to their owning worker, and
// writes every reply to the client itself. A client homed on a worker that
// StopOne stopped sees its socket close, as it would see a crashed node.
//
// Durable restart: a node constructed over a non-empty data_dir recovers its
// stores from disk (snapshot + log tail, see src/dur), and each worker
// catches its shard up from its peers once the shard's mesh re-forms. Clients
// that vanish mid-request are reaped; on durable nodes a reconnecting client
// may resubmit the same (client, seq) and gets the cached result instead of a
// re-execution.
#ifndef SRC_RT_NODE_H_
#define SRC_RT_NODE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/codec/codec.h"
#include "src/rt/shard_runtime.h"
#include "src/smr/deployment.h"

namespace rt {

class Node final {
 public:
  // The deployment (one node's full replica assembly: engine, per-shard stores,
  // batching) is borrowed and must outlive the node.
  Node(common::ProcessId id, std::vector<PeerAddress> peers,
       smr::Deployment* deployment);
  ~Node();

  // Binds the listen socket; returns false on bind failure.
  bool Listen();
  // Starts the shard workers (each dials its shard of every higher-id peer)
  // and accepts until Stop(), which ends it at any point (mesh complete or
  // not). Each worker starts its engine once its shard's peer connections
  // are all up. Blocks.
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

 private:
  void AcceptReady();
  // Reads an accepted connection until its hello, then hands it over.
  void ServeHello(Connection* conn);

  common::ProcessId self_;
  std::vector<PeerAddress> peers_;

  int epfd_ = -1;
  int wake_fd_ = -1;  // Stop() writes it to end epoll_wait
  std::atomic<bool> stop_{false};
  int listen_fd_ = -1;
  std::vector<std::unique_ptr<Connection>> conns_;  // accepted, before the hello

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
