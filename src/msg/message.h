// Protocol messages for all four SMR protocols plus the client RPCs of the real
// runtime, wrapped in a single envelope: a std::variant body plus a partition (shard)
// tag that routes the message to the right per-partition engine on sharded replicas
// (smr::ShardedEngine). Unsharded deployments leave the tag at 0.
//
// Every message is fully serializable through src/codec (exercised by the TCP transport
// and round-trip tests); the discrete-event simulator passes Message values directly but
// charges the wire size computed by EncodedSize().
#ifndef SRC_MSG_MESSAGE_H_
#define SRC_MSG_MESSAGE_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <variant>

#include "src/common/dep_set.h"
#include "src/common/quorum.h"
#include "src/common/types.h"
#include "src/smr/command.h"

namespace msg {

using common::Ballot;
using common::DepSet;
using common::Dot;
using common::Quorum;

// ---------------------------------------------------------------------------
// Atlas (Algorithm 1 + Algorithm 2)
// ---------------------------------------------------------------------------

struct MCollect {
  Dot dot;
  smr::Command cmd;
  DepSet past;     // coordinator's conflicts(c)
  Quorum quorum;   // the fast quorum Q
  bool nfr = false;  // command processed via the NFR read optimization (§4)
};

struct MCollectAck {
  Dot dot;
  DepSet deps;
};

struct MConsensus {
  Dot dot;
  smr::Command cmd;
  DepSet deps;
  Ballot ballot = 0;
};

struct MConsensusAck {
  Dot dot;
  Ballot ballot = 0;
};

// The initial coordinator's commit to a fast-quorum member that acked its MCollect
// carries no payload (has_cmd = false): that member already stores the command.
// Every other commit carries it.
struct MCommit {
  Dot dot;
  smr::Command cmd;  // encoded only when has_cmd
  DepSet deps;
  bool has_cmd = true;
};

struct MRec {
  Dot dot;
  smr::Command cmd;  // noOp when the recoverer never saw the payload
  Ballot ballot = 0;
};

struct MRecAck {
  Dot dot;
  smr::Command cmd;
  DepSet deps;
  Quorum quorum;      // fast quorum if this process saw MCollect, empty otherwise
  Ballot accepted_ballot = 0;  // abal: last ballot at which a proposal was accepted
  Ballot ballot = 0;
};

// ---------------------------------------------------------------------------
// EPaxos (commit protocol; same message flow, different fast-path rule)
// ---------------------------------------------------------------------------

struct EpPreAccept {
  Dot dot;
  smr::Command cmd;
  DepSet deps;
  uint64_t seqno = 0;
  Quorum quorum;     // the fast quorum chosen by the command leader
  bool nfr = false;  // command processed via the NFR read optimization (§4)
};

struct EpPreAcceptAck {
  Dot dot;
  DepSet deps;
  uint64_t seqno = 0;
};

struct EpAccept {
  Dot dot;
  smr::Command cmd;
  DepSet deps;
  uint64_t seqno = 0;
  Ballot ballot = 0;
};

struct EpAcceptAck {
  Dot dot;
  Ballot ballot = 0;
};

// Bare (has_cmd = false) from the command leader to pre-accept quorum members that
// acked, as for MCommit.
struct EpCommit {
  Dot dot;
  smr::Command cmd;  // encoded only when has_cmd
  DepSet deps;
  uint64_t seqno = 0;
  bool has_cmd = true;
};

struct EpPrepare {
  Dot dot;
  Ballot ballot = 0;
  // The payload, when the recoverer knows it. Carrying it lets every replier report
  // its *current* conflicts against the command (EpPrepareAck::fresh_deps), which is
  // what makes a recovery-chosen value intersect the quorum of every conflicting
  // commit — the recoverer's local index alone cannot guarantee that.
  smr::Command cmd;
  bool has_cmd = false;
};

struct EpPrepareAck {
  Dot dot;
  smr::Command cmd;
  DepSet deps;
  uint64_t seqno = 0;
  uint8_t phase = 0;  // 0=never seen, 1=preaccepted, 2=accepted, 3=committed
  Ballot accepted_ballot = 0;
  Ballot ballot = 0;
  bool was_initial_coordinator_reply = false;  // preaccepted at the command leader
  DepSet fresh_deps;         // replier's current conflicts of the prepare's payload
  uint64_t fresh_seqno = 0;  // 1 + the max conflict seqno behind fresh_deps
};

// ---------------------------------------------------------------------------
// Multi-Paxos / Flexible Paxos (leader-based log)
// ---------------------------------------------------------------------------

struct PxForward {  // non-leader replica forwards a client command to the leader
  smr::Command cmd;
};

struct PxAccept {  // Paxos phase 2a for a log slot
  uint64_t slot = 0;
  Ballot ballot = 0;
  smr::Command cmd;
};

struct PxAccepted {  // phase 2b
  uint64_t slot = 0;
  Ballot ballot = 0;
};

struct PxCommit {  // learn notification, broadcast to all for execution
  uint64_t slot = 0;
  smr::Command cmd;
};

struct PxPrepare {  // phase 1a (leader election / fail-over)
  Ballot ballot = 0;
  uint64_t from_slot = 0;
};

struct PxPromiseEntry {
  uint64_t slot = 0;
  Ballot ballot = 0;
  smr::Command cmd;
};

struct PxPromise {  // phase 1b
  Ballot ballot = 0;
  std::vector<PxPromiseEntry> accepted;
};

struct PxHeartbeat {
  Ballot ballot = 0;
  uint64_t committed_upto = 0;
};

// ---------------------------------------------------------------------------
// Mencius (round-robin slot ownership with skips)
// ---------------------------------------------------------------------------

struct MnPropose {
  uint64_t slot = 0;
  smr::Command cmd;
  uint64_t own_next = 0;  // proposer's next owned slot, for implicit-skip tracking
};

struct MnAck {
  uint64_t slot = 0;
  uint64_t own_next = 0;  // acker's next owned slot after skipping past `slot`
};

struct MnCommit {
  uint64_t slot = 0;
  smr::Command cmd;
};

struct MnSkipRange {  // owner skipped its own slots in [from, to)
  common::ProcessId owner = 0;
  uint64_t from = 0;
  uint64_t to = 0;
};

// Mencius revocation (classic Paxos per slot, used when the slot's owner is
// suspected). The owner's MnPropose doubles as an accept at ballot 0; a revoker runs
// Prepare/Promise/Accept/Accepted with a higher ballot to decide either the owner's
// command (if any acceptor saw it) or a skip.
struct MnRevoke {  // phase 1a for one revoked slot
  uint64_t slot = 0;
  Ballot ballot = 0;
};

struct MnRevokePromise {  // phase 1b
  uint64_t slot = 0;
  Ballot ballot = 0;
  Ballot vbal = 0;    // highest ballot at which this process accepted a value
  uint8_t vkind = 0;  // 0 = nothing accepted, 1 = cmd below, 2 = skip
  smr::Command cmd;
};

struct MnRevokeAccept {  // phase 2a
  uint64_t slot = 0;
  Ballot ballot = 0;
  uint8_t choice = 0;  // 1 = cmd below, 2 = skip
  smr::Command cmd;
};

struct MnRevokeAccepted {  // phase 2b
  uint64_t slot = 0;
  Ballot ballot = 0;
};

struct MnRevokeSkip {  // learn notification: the slot was decided as a skip
  uint64_t slot = 0;
};

// ---------------------------------------------------------------------------
// Client RPCs (real runtime)
// ---------------------------------------------------------------------------

struct ClientRequest {
  smr::Command cmd;
};

struct ClientReply {
  uint64_t client = 0;
  uint64_t seq = 0;
  std::string value;
  bool dropped = false;  // command was replaced by noOp during recovery
};

// ---------------------------------------------------------------------------

// Message envelope: protocol body plus the partition tag. Engines construct messages
// from any body type implicitly (`msg::MCommit c; SendTo(p, c);`); the shard tag is
// stamped by the sharded replica's per-partition context, never by protocol code.
struct Message {
  using Body = std::variant<
      MCollect, MCollectAck, MConsensus, MConsensusAck, MCommit, MRec, MRecAck,
      EpPreAccept, EpPreAcceptAck, EpAccept, EpAcceptAck, EpCommit, EpPrepare,
      EpPrepareAck, PxForward, PxAccept, PxAccepted, PxCommit, PxPrepare, PxPromise,
      PxHeartbeat, MnPropose, MnAck, MnCommit, MnSkipRange, ClientRequest, ClientReply,
      MnRevoke, MnRevokePromise, MnRevokeAccept, MnRevokeAccepted, MnRevokeSkip>;

  Body body;
  uint32_t shard = 0;  // destination partition on sharded replicas; 0 otherwise

  Message() = default;
  template <class T, class = std::enable_if_t<
                         !std::is_same_v<std::decay_t<T>, Message> &&
                         std::is_constructible_v<Body, T&&>>>
  Message(T&& alt) : body(std::forward<T>(alt)) {}  // NOLINT: implicit by design

  size_t index() const { return body.index(); }
};

// std::get / std::get_if analogs for the envelope (std's overloads cannot deduce
// through the wrapping struct).
template <class T>
T* get_if(Message* m) {
  return std::get_if<T>(&m->body);
}
template <class T>
const T* get_if(const Message* m) {
  return std::get_if<T>(&m->body);
}
template <class T>
T& get(Message& m) {
  return std::get<T>(m.body);
}
template <class T>
const T& get(const Message& m) {
  return std::get<T>(m.body);
}

// Human-readable message type name, for traces and debugging.
const char* TypeName(const Message& m);

// Serialization. Encode writes a type tag followed by the payload; Decode returns
// nullopt on malformed input.
void Encode(codec::Writer& w, const Message& m);
bool Decode(codec::Reader& r, Message& out);

// Size of the encoded representation, used by the simulator's bandwidth/latency model.
size_t EncodedSize(const Message& m);

}  // namespace msg

#endif  // SRC_MSG_MESSAGE_H_
