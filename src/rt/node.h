// Real-runtime replica node: runs one smr::Deployment — bare or sharded — over TCP.
//
// A node listens on one port for both peer and client connections; frames are
// 4-byte little-endian length + codec-encoded payload:
//   message:         [u8 = 0][msg::Message]
//   peer hello:      [u8 = 1][u32 sender_id]
//   client hello:    [u8 = 2]
//   catch-up request [u8 = 3][u32 requester][varint nshards]
//                    [per shard: varint seq_floor, bytes(frontier)]
//   catch-up entries [u8 = 4][varint shard][varint count][count x (dot, cmd)]
// Peers form a full mesh (node i dials every peer j > i; lower ids accept). Client
// ClientRequest commands are routed through the deployment's smr::Partitioner
// straight to their partition's worker, and the reply is sent when the command
// executes locally. The message envelope's shard tag round-trips through the
// node unchanged.
//
// Thread per shard, at every partition count (P=1 runs one worker): the epoll
// thread is a pure I/O tier — it decodes envelopes, routes them by shard tag
// into SPSC mailboxes feeding one worker thread per shard
// (src/rt/shard_runtime.h), and drains worker output back out, coalescing
// outbound frames so each socket is written at most once per drain pass no
// matter how many shards fed it. The workers, not the node, are the engines'
// smr::Context.
//
// Fault tolerance: a lost peer socket is reaped and re-dialed with backoff
// (the dialing side per the mesh rule above; the accepting side waits for the
// fresh hello). A node constructed over a non-empty data_dir recovers its
// stores from disk (snapshot + log tail, see src/dur), then — once the mesh
// re-forms — advertises its per-shard executed-dot frontiers to every peer;
// peers stream back the commits it missed, which apply through the normal
// executed path (the durable admit filter deduplicates). Clients that vanish
// mid-request are reaped too; on durable nodes a reconnecting client may
// resubmit the same (client, seq) and gets the cached result instead of a
// re-execution.
#ifndef SRC_RT_NODE_H_
#define SRC_RT_NODE_H_

#include <map>
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

class Connection;

class Node final : public ShardOutputSink {
 public:
  // The deployment (one node's full replica assembly: engine, per-shard stores,
  // batching) is borrowed and must outlive the node.
  Node(common::ProcessId id, std::vector<PeerAddress> peers,
       smr::Deployment* deployment);
  ~Node();

  // Binds the listen socket; returns false on bind failure.
  bool Listen();
  // Dials higher-id peers, waits for lower-id peers, then starts the engine and
  // serves until Stop(), which ends it at any point (mesh complete or not).
  // Blocks.
  void Run();
  void Stop();

  uint16_t port() const { return peers_[self_].port; }

  // Client commands applied to this node's stores so far (sub-commands of a batch
  // count individually; noOps excluded). Safe to read from other threads: tests
  // poll it to detect quiescence before stopping the cluster.
  uint64_t applied_ops() const { return shards_->applied_ops(); }

  // The node's shard workers. Exposed for fault drills (tests stop one shard's
  // worker and assert clean node shutdown) and drop monitoring.
  ShardRuntime* shard_runtime() { return shards_.get(); }

  // ShardOutputSink (I/O thread): queue frames per connection; FlushDirty
  // writes each touched socket once per drain pass.
  void OnPeerSend(common::ProcessId to, msg::Message& m) override;
  void OnClientReply(uint64_t client, uint64_t seq, std::string&& value,
                     bool dropped) override;
  void OnCatchupFrame(common::ProcessId to, std::string&& payload) override;

 private:
  friend class Connection;

  void AcceptReady();
  void OnPeerConnected(common::ProcessId peer, std::unique_ptr<Connection> conn);
  void OnFrame(Connection* conn, const uint8_t* data, size_t size);
  void MaybeStartEngine();
  // Connection teardown: a closed socket schedules a reap on the loop (never
  // destroyed mid-callback); the reap scrubs every raw pointer to the
  // connection (waiting_clients_, dirty_conns_) before freeing it, and
  // schedules a backoff re-dial when the lost peer is one this node dials.
  void NoteClosed(Connection* conn);
  void ReapConnections();
  void ForgetConn(Connection* conn);
  void ScheduleRedial(common::ProcessId p);
  void DialPeer(common::ProcessId p);
  void OnDialReady(common::ProcessId p, int fd);
  // Pre-start peer traffic: frames from peers whose engines started before ours
  // are held and replayed in arrival order the moment our engine starts (see
  // pending_peer_frames_).
  void BufferPeerFrame(common::ProcessId from, const uint8_t* data, size_t size);
  void ReplayPendingPeerFrames();
  // Durable restart: advertise recovered frontiers to every peer (once, when
  // the engine starts) so they stream back what this node missed.
  void SendCatchupRequests();
  void HandleCatchupRequest(codec::Reader& r);
  void HandleCatchupEntries(codec::Reader& r);
  // Completion bookkeeping for durable client idempotency (no-op otherwise).
  void CompleteClient(uint64_t client, uint64_t seq, const std::string& value,
                      bool dropped);
  // Calls try_route until a shard inbox takes the input, draining worker
  // outboxes while it is full (never a blocking wait; bounded retries, then
  // the input is dropped and counted). Instantiated in node.cc only.
  template <class TryRoute>
  void RouteWithRetry(TryRoute&& try_route);
  // Routes one decoded message or client command to its shard's inbox.
  void RouteInput(common::ProcessId from, msg::Message* m, uint32_t shard,
                  smr::Command* cmd);
  // Doorbell callback: drain outboxes, flush dirty sockets.
  void OnWorkerOutput();
  size_t DrainShardOutputs();
  void MarkDirty(Connection* conn);
  void FlushDirty();
  // Sends a ClientReply frame on a specific connection (rejection path). With
  // `flush` false the frame is queued and the connection marked dirty instead
  // (drain path).
  void SendReply(Connection* conn, uint64_t client, uint64_t seq, std::string&& value,
                 bool dropped, bool flush = true);

  common::ProcessId self_;
  std::vector<PeerAddress> peers_;
  smr::Deployment* deployment_;

  EventLoop loop_;
  int listen_fd_ = -1;
  std::map<common::ProcessId, std::unique_ptr<Connection>> peer_conns_;
  std::vector<std::unique_ptr<Connection>> anonymous_;  // pre-hello + client conns
  // (client, seq) -> connection serving that client.
  std::unordered_map<chk::CmdKey, Connection*, chk::CmdKeyHash> waiting_clients_;
  // Reconnect state: in-progress non-blocking dials (peer -> fd) and the
  // per-peer re-dial backoff (reset on successful connect).
  std::map<common::ProcessId, int> dialing_;
  std::map<common::ProcessId, common::Duration> redial_backoff_;
  bool reap_scheduled_ = false;
  bool catchup_requested_ = false;
  // Durable client idempotency: commands submitted but not yet completed, and
  // each client's last completed (seq, result) for resubmit short-circuiting.
  std::unordered_set<chk::CmdKey, chk::CmdKeyHash> in_flight_;
  std::unordered_map<uint64_t, std::pair<uint64_t, std::string>> client_done_;
  // Client commands that arrived before the peer mesh completed; submitted the
  // moment the engine starts (previously they were dropped and the client hung).
  std::vector<smr::Command> pending_submits_;
  // Peer frames (messages / catch-up) that arrived before this node's own mesh
  // completed, replayed at engine start. Nodes start their engines at different
  // moments — a faster peer's first proposal must not be dropped here: protocols
  // whose commit needs every live replica's ack (Mencius) would wedge that slot
  // forever. Bounded; overflow falls back to the old drop behaviour.
  struct PendingPeerFrame {
    common::ProcessId from;
    std::vector<uint8_t> bytes;  // full frame, kind byte included
  };
  std::vector<PendingPeerFrame> pending_peer_frames_;
  // Reused (clear-not-reallocate) encode scratch for all outbound frames; pre-sized
  // per message via msg::EncodedSize so encoding never grows it mid-message.
  codec::Writer encode_scratch_;
  bool engine_started_ = false;

  // Declaration order matters: workers ring out_bell_ and reference the
  // deployment, so shards_ (declared last) is destroyed — and its workers
  // joined — first.
  Doorbell out_bell_;
  std::vector<Connection*> dirty_conns_;
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
