#include "src/msg/message.h"

#include "src/common/check.h"

namespace msg {

namespace {

// Wire type tags. Never reorder: the tag is the wire contract.
enum class Tag : uint8_t {
  kMCollect = 0,
  kMCollectAck = 1,
  kMConsensus = 2,
  kMConsensusAck = 3,
  kMCommit = 4,
  kMRec = 5,
  kMRecAck = 6,
  kEpPreAccept = 7,
  kEpPreAcceptAck = 8,
  kEpAccept = 9,
  kEpAcceptAck = 10,
  kEpCommit = 11,
  kEpPrepare = 12,
  kEpPrepareAck = 13,
  kPxForward = 14,
  kPxAccept = 15,
  kPxAccepted = 16,
  kPxCommit = 17,
  kPxPrepare = 18,
  kPxPromise = 19,
  kPxHeartbeat = 20,
  kMnPropose = 21,
  kMnAck = 22,
  kMnCommit = 23,
  kMnSkipRange = 24,
  kClientRequest = 25,
  kClientReply = 26,
  kMnRevoke = 27,
  kMnRevokePromise = 28,
  kMnRevokeAccept = 29,
  kMnRevokeAccepted = 30,
  kMnRevokeSkip = 31,
};

template <class W>
void Put(W& w, const MCollect& m) {
  w.Dot(m.dot);
  m.cmd.EncodeTo(w);
  w.Deps(m.past);
  w.U32(m.quorum.mask());
  w.Bool(m.nfr);
}
MCollect GetMCollect(codec::Reader& r) {
  MCollect m;
  m.dot = r.Dot();
  m.cmd = smr::Command::Decode(r);
  m.past = r.Deps();
  m.quorum = Quorum(r.U32());
  m.nfr = r.Bool();
  return m;
}

template <class W>
void Put(W& w, const MCollectAck& m) {
  w.Dot(m.dot);
  w.Deps(m.deps);
}
MCollectAck GetMCollectAck(codec::Reader& r) {
  MCollectAck m;
  m.dot = r.Dot();
  m.deps = r.Deps();
  return m;
}

template <class W>
void Put(W& w, const MConsensus& m) {
  w.Dot(m.dot);
  m.cmd.EncodeTo(w);
  w.Deps(m.deps);
  w.Varint(m.ballot);
}
MConsensus GetMConsensus(codec::Reader& r) {
  MConsensus m;
  m.dot = r.Dot();
  m.cmd = smr::Command::Decode(r);
  m.deps = r.Deps();
  m.ballot = r.Varint();
  return m;
}

template <class W>
void Put(W& w, const MConsensusAck& m) {
  w.Dot(m.dot);
  w.Varint(m.ballot);
}
MConsensusAck GetMConsensusAck(codec::Reader& r) {
  MConsensusAck m;
  m.dot = r.Dot();
  m.ballot = r.Varint();
  return m;
}

template <class W>
void Put(W& w, const MCommit& m) {
  w.Dot(m.dot);
  w.Bool(m.has_cmd);
  if (m.has_cmd) {
    m.cmd.EncodeTo(w);
  }
  w.Deps(m.deps);
}
MCommit GetMCommit(codec::Reader& r) {
  MCommit m;
  m.dot = r.Dot();
  m.has_cmd = r.Bool();
  if (m.has_cmd) {
    m.cmd = smr::Command::Decode(r);
  }
  m.deps = r.Deps();
  return m;
}

template <class W>
void Put(W& w, const MRec& m) {
  w.Dot(m.dot);
  m.cmd.EncodeTo(w);
  w.Varint(m.ballot);
}
MRec GetMRec(codec::Reader& r) {
  MRec m;
  m.dot = r.Dot();
  m.cmd = smr::Command::Decode(r);
  m.ballot = r.Varint();
  return m;
}

template <class W>
void Put(W& w, const MRecAck& m) {
  w.Dot(m.dot);
  m.cmd.EncodeTo(w);
  w.Deps(m.deps);
  w.U32(m.quorum.mask());
  w.Varint(m.accepted_ballot);
  w.Varint(m.ballot);
}
MRecAck GetMRecAck(codec::Reader& r) {
  MRecAck m;
  m.dot = r.Dot();
  m.cmd = smr::Command::Decode(r);
  m.deps = r.Deps();
  m.quorum = Quorum(r.U32());
  m.accepted_ballot = r.Varint();
  m.ballot = r.Varint();
  return m;
}

template <class W>
void Put(W& w, const EpPreAccept& m) {
  w.Dot(m.dot);
  m.cmd.EncodeTo(w);
  w.Deps(m.deps);
  w.Varint(m.seqno);
  w.U32(m.quorum.mask());
  w.Bool(m.nfr);
}
EpPreAccept GetEpPreAccept(codec::Reader& r) {
  EpPreAccept m;
  m.dot = r.Dot();
  m.cmd = smr::Command::Decode(r);
  m.deps = r.Deps();
  m.seqno = r.Varint();
  m.quorum = Quorum(r.U32());
  m.nfr = r.Bool();
  return m;
}

template <class W>
void Put(W& w, const EpPreAcceptAck& m) {
  w.Dot(m.dot);
  w.Deps(m.deps);
  w.Varint(m.seqno);
}
EpPreAcceptAck GetEpPreAcceptAck(codec::Reader& r) {
  EpPreAcceptAck m;
  m.dot = r.Dot();
  m.deps = r.Deps();
  m.seqno = r.Varint();
  return m;
}

template <class W>
void Put(W& w, const EpAccept& m) {
  w.Dot(m.dot);
  m.cmd.EncodeTo(w);
  w.Deps(m.deps);
  w.Varint(m.seqno);
  w.Varint(m.ballot);
}
EpAccept GetEpAccept(codec::Reader& r) {
  EpAccept m;
  m.dot = r.Dot();
  m.cmd = smr::Command::Decode(r);
  m.deps = r.Deps();
  m.seqno = r.Varint();
  m.ballot = r.Varint();
  return m;
}

template <class W>
void Put(W& w, const EpAcceptAck& m) {
  w.Dot(m.dot);
  w.Varint(m.ballot);
}
EpAcceptAck GetEpAcceptAck(codec::Reader& r) {
  EpAcceptAck m;
  m.dot = r.Dot();
  m.ballot = r.Varint();
  return m;
}

template <class W>
void Put(W& w, const EpCommit& m) {
  w.Dot(m.dot);
  w.Bool(m.has_cmd);
  if (m.has_cmd) {
    m.cmd.EncodeTo(w);
  }
  w.Deps(m.deps);
  w.Varint(m.seqno);
}
EpCommit GetEpCommit(codec::Reader& r) {
  EpCommit m;
  m.dot = r.Dot();
  m.has_cmd = r.Bool();
  if (m.has_cmd) {
    m.cmd = smr::Command::Decode(r);
  }
  m.deps = r.Deps();
  m.seqno = r.Varint();
  return m;
}

template <class W>
void Put(W& w, const EpPrepare& m) {
  w.Dot(m.dot);
  w.Varint(m.ballot);
  w.Bool(m.has_cmd);
  if (m.has_cmd) {
    m.cmd.EncodeTo(w);
  }
}
EpPrepare GetEpPrepare(codec::Reader& r) {
  EpPrepare m;
  m.dot = r.Dot();
  m.ballot = r.Varint();
  m.has_cmd = r.Bool();
  if (m.has_cmd) {
    m.cmd = smr::Command::Decode(r);
  }
  return m;
}

template <class W>
void Put(W& w, const EpPrepareAck& m) {
  w.Dot(m.dot);
  m.cmd.EncodeTo(w);
  w.Deps(m.deps);
  w.Varint(m.seqno);
  w.U8(m.phase);
  w.Varint(m.accepted_ballot);
  w.Varint(m.ballot);
  w.Bool(m.was_initial_coordinator_reply);
  w.Deps(m.fresh_deps);
  w.Varint(m.fresh_seqno);
}
EpPrepareAck GetEpPrepareAck(codec::Reader& r) {
  EpPrepareAck m;
  m.dot = r.Dot();
  m.cmd = smr::Command::Decode(r);
  m.deps = r.Deps();
  m.seqno = r.Varint();
  m.phase = r.U8();
  m.accepted_ballot = r.Varint();
  m.ballot = r.Varint();
  m.was_initial_coordinator_reply = r.Bool();
  m.fresh_deps = r.Deps();
  m.fresh_seqno = r.Varint();
  return m;
}

template <class W>
void Put(W& w, const PxForward& m) { m.cmd.EncodeTo(w); }
PxForward GetPxForward(codec::Reader& r) {
  PxForward m;
  m.cmd = smr::Command::Decode(r);
  return m;
}

template <class W>
void Put(W& w, const PxAccept& m) {
  w.Varint(m.slot);
  w.Varint(m.ballot);
  m.cmd.EncodeTo(w);
}
PxAccept GetPxAccept(codec::Reader& r) {
  PxAccept m;
  m.slot = r.Varint();
  m.ballot = r.Varint();
  m.cmd = smr::Command::Decode(r);
  return m;
}

template <class W>
void Put(W& w, const PxAccepted& m) {
  w.Varint(m.slot);
  w.Varint(m.ballot);
}
PxAccepted GetPxAccepted(codec::Reader& r) {
  PxAccepted m;
  m.slot = r.Varint();
  m.ballot = r.Varint();
  return m;
}

template <class W>
void Put(W& w, const PxCommit& m) {
  w.Varint(m.slot);
  m.cmd.EncodeTo(w);
}
PxCommit GetPxCommit(codec::Reader& r) {
  PxCommit m;
  m.slot = r.Varint();
  m.cmd = smr::Command::Decode(r);
  return m;
}

template <class W>
void Put(W& w, const PxPrepare& m) {
  w.Varint(m.ballot);
  w.Varint(m.from_slot);
}
PxPrepare GetPxPrepare(codec::Reader& r) {
  PxPrepare m;
  m.ballot = r.Varint();
  m.from_slot = r.Varint();
  return m;
}

template <class W>
void Put(W& w, const PxPromise& m) {
  w.Varint(m.ballot);
  w.Varint(m.accepted.size());
  for (const auto& e : m.accepted) {
    w.Varint(e.slot);
    w.Varint(e.ballot);
    e.cmd.EncodeTo(w);
  }
}
PxPromise GetPxPromise(codec::Reader& r) {
  PxPromise m;
  m.ballot = r.Varint();
  uint64_t n = r.Varint();
  if (n > r.remaining()) {
    return m;
  }
  m.accepted.reserve(n);
  for (uint64_t i = 0; i < n; i++) {
    PxPromiseEntry e;
    e.slot = r.Varint();
    e.ballot = r.Varint();
    e.cmd = smr::Command::Decode(r);
    m.accepted.push_back(std::move(e));
  }
  return m;
}

template <class W>
void Put(W& w, const PxHeartbeat& m) {
  w.Varint(m.ballot);
  w.Varint(m.committed_upto);
}
PxHeartbeat GetPxHeartbeat(codec::Reader& r) {
  PxHeartbeat m;
  m.ballot = r.Varint();
  m.committed_upto = r.Varint();
  return m;
}

template <class W>
void Put(W& w, const MnPropose& m) {
  w.Varint(m.slot);
  m.cmd.EncodeTo(w);
  w.Varint(m.own_next);
}
MnPropose GetMnPropose(codec::Reader& r) {
  MnPropose m;
  m.slot = r.Varint();
  m.cmd = smr::Command::Decode(r);
  m.own_next = r.Varint();
  return m;
}

template <class W>
void Put(W& w, const MnAck& m) {
  w.Varint(m.slot);
  w.Varint(m.own_next);
}
MnAck GetMnAck(codec::Reader& r) {
  MnAck m;
  m.slot = r.Varint();
  m.own_next = r.Varint();
  return m;
}

template <class W>
void Put(W& w, const MnCommit& m) {
  w.Varint(m.slot);
  m.cmd.EncodeTo(w);
}
MnCommit GetMnCommit(codec::Reader& r) {
  MnCommit m;
  m.slot = r.Varint();
  m.cmd = smr::Command::Decode(r);
  return m;
}

template <class W>
void Put(W& w, const MnSkipRange& m) {
  w.Varint(m.owner);
  w.Varint(m.from);
  w.Varint(m.to);
}
MnSkipRange GetMnSkipRange(codec::Reader& r) {
  MnSkipRange m;
  m.owner = static_cast<common::ProcessId>(r.Varint());
  m.from = r.Varint();
  m.to = r.Varint();
  return m;
}

template <class W>
void Put(W& w, const MnRevoke& m) {
  w.Varint(m.slot);
  w.Varint(m.ballot);
}
MnRevoke GetMnRevoke(codec::Reader& r) {
  MnRevoke m;
  m.slot = r.Varint();
  m.ballot = r.Varint();
  return m;
}

template <class W>
void Put(W& w, const MnRevokePromise& m) {
  w.Varint(m.slot);
  w.Varint(m.ballot);
  w.Varint(m.vbal);
  w.U8(m.vkind);
  m.cmd.EncodeTo(w);
}
MnRevokePromise GetMnRevokePromise(codec::Reader& r) {
  MnRevokePromise m;
  m.slot = r.Varint();
  m.ballot = r.Varint();
  m.vbal = r.Varint();
  m.vkind = r.U8();
  m.cmd = smr::Command::Decode(r);
  return m;
}

template <class W>
void Put(W& w, const MnRevokeAccept& m) {
  w.Varint(m.slot);
  w.Varint(m.ballot);
  w.U8(m.choice);
  m.cmd.EncodeTo(w);
}
MnRevokeAccept GetMnRevokeAccept(codec::Reader& r) {
  MnRevokeAccept m;
  m.slot = r.Varint();
  m.ballot = r.Varint();
  m.choice = r.U8();
  m.cmd = smr::Command::Decode(r);
  return m;
}

template <class W>
void Put(W& w, const MnRevokeAccepted& m) {
  w.Varint(m.slot);
  w.Varint(m.ballot);
}
MnRevokeAccepted GetMnRevokeAccepted(codec::Reader& r) {
  MnRevokeAccepted m;
  m.slot = r.Varint();
  m.ballot = r.Varint();
  return m;
}

template <class W>
void Put(W& w, const MnRevokeSkip& m) { w.Varint(m.slot); }
MnRevokeSkip GetMnRevokeSkip(codec::Reader& r) {
  MnRevokeSkip m;
  m.slot = r.Varint();
  return m;
}

template <class W>
void Put(W& w, const ClientRequest& m) { m.cmd.EncodeTo(w); }
ClientRequest GetClientRequest(codec::Reader& r) {
  ClientRequest m;
  m.cmd = smr::Command::Decode(r);
  return m;
}

template <class W>
void Put(W& w, const ClientReply& m) {
  w.Varint(m.client);
  w.Varint(m.seq);
  w.Bytes(m.value);
  w.Bool(m.dropped);
}
ClientReply GetClientReply(codec::Reader& r) {
  ClientReply m;
  m.client = r.Varint();
  m.seq = r.Varint();
  m.value = r.Bytes();
  m.dropped = r.Bool();
  return m;
}

}  // namespace

const char* TypeName(const Message& m) {
  static constexpr const char* kNames[] = {
      "MCollect",    "MCollectAck",   "MConsensus", "MConsensusAck", "MCommit",
      "MRec",        "MRecAck",       "EpPreAccept", "EpPreAcceptAck", "EpAccept",
      "EpAcceptAck", "EpCommit",      "EpPrepare",  "EpPrepareAck",  "PxForward",
      "PxAccept",    "PxAccepted",    "PxCommit",   "PxPrepare",     "PxPromise",
      "PxHeartbeat", "MnPropose",     "MnAck",      "MnCommit",      "MnSkipRange",
      "ClientRequest", "ClientReply",  "MnRevoke",   "MnRevokePromise",
      "MnRevokeAccept", "MnRevokeAccepted", "MnRevokeSkip"};
  return kNames[m.index()];
}

void Encode(codec::Writer& w, const Message& m) {
  // Envelope: partition tag (varint, 1 byte for unsharded deployments), type tag, body.
  w.Varint(m.shard);
  w.U8(static_cast<uint8_t>(m.index()));
  std::visit([&w](const auto& body) { Put(w, body); }, m.body);
}

bool Decode(codec::Reader& r, Message& out) {
  uint32_t shard = static_cast<uint32_t>(r.Varint());
  Tag tag = static_cast<Tag>(r.U8());
  if (!r.ok()) {
    return false;
  }
  switch (tag) {
    case Tag::kMCollect:
      out = GetMCollect(r);
      break;
    case Tag::kMCollectAck:
      out = GetMCollectAck(r);
      break;
    case Tag::kMConsensus:
      out = GetMConsensus(r);
      break;
    case Tag::kMConsensusAck:
      out = GetMConsensusAck(r);
      break;
    case Tag::kMCommit:
      out = GetMCommit(r);
      break;
    case Tag::kMRec:
      out = GetMRec(r);
      break;
    case Tag::kMRecAck:
      out = GetMRecAck(r);
      break;
    case Tag::kEpPreAccept:
      out = GetEpPreAccept(r);
      break;
    case Tag::kEpPreAcceptAck:
      out = GetEpPreAcceptAck(r);
      break;
    case Tag::kEpAccept:
      out = GetEpAccept(r);
      break;
    case Tag::kEpAcceptAck:
      out = GetEpAcceptAck(r);
      break;
    case Tag::kEpCommit:
      out = GetEpCommit(r);
      break;
    case Tag::kEpPrepare:
      out = GetEpPrepare(r);
      break;
    case Tag::kEpPrepareAck:
      out = GetEpPrepareAck(r);
      break;
    case Tag::kPxForward:
      out = GetPxForward(r);
      break;
    case Tag::kPxAccept:
      out = GetPxAccept(r);
      break;
    case Tag::kPxAccepted:
      out = GetPxAccepted(r);
      break;
    case Tag::kPxCommit:
      out = GetPxCommit(r);
      break;
    case Tag::kPxPrepare:
      out = GetPxPrepare(r);
      break;
    case Tag::kPxPromise:
      out = GetPxPromise(r);
      break;
    case Tag::kPxHeartbeat:
      out = GetPxHeartbeat(r);
      break;
    case Tag::kMnPropose:
      out = GetMnPropose(r);
      break;
    case Tag::kMnAck:
      out = GetMnAck(r);
      break;
    case Tag::kMnCommit:
      out = GetMnCommit(r);
      break;
    case Tag::kMnSkipRange:
      out = GetMnSkipRange(r);
      break;
    case Tag::kClientRequest:
      out = GetClientRequest(r);
      break;
    case Tag::kClientReply:
      out = GetClientReply(r);
      break;
    case Tag::kMnRevoke:
      out = GetMnRevoke(r);
      break;
    case Tag::kMnRevokePromise:
      out = GetMnRevokePromise(r);
      break;
    case Tag::kMnRevokeAccept:
      out = GetMnRevokeAccept(r);
      break;
    case Tag::kMnRevokeAccepted:
      out = GetMnRevokeAccepted(r);
      break;
    case Tag::kMnRevokeSkip:
      out = GetMnRevokeSkip(r);
      break;
    default:
      return false;
  }
  out.shard = shard;  // the switch above overwrote the envelope; restore the tag
  return r.ok();
}

size_t EncodedSize(const Message& m) {
  // Size-only visitor: no buffer, no allocation — the simulator calls this per send.
  codec::SizeWriter w;
  w.Varint(m.shard);
  w.U8(static_cast<uint8_t>(m.index()));
  std::visit([&w](const auto& body) { Put(w, body); }, m.body);
  return w.size();
}

}  // namespace msg
