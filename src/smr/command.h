// The command model shared by every protocol in the library.
//
// A Command is an opaque-to-the-protocol operation on the replicated state machine,
// plus the metadata protocols need without executing it: the keys it touches (for
// conflict detection, footnote 2 of the paper) and whether it is a read.
#ifndef SRC_SMR_COMMAND_H_
#define SRC_SMR_COMMAND_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/codec/codec.h"
#include "src/smr/payload.h"

namespace smr {

enum class Op : uint8_t {
  kNoOp = 0,  // conflicts with every command, executes as a no-op (recovery, §3.2.6)
  kGet = 1,
  kPut = 2,
  kRmw = 3,   // read-modify-write (e.g. increment); both reads and writes its key
  kScan = 4,  // multi-key read
  kMPut = 5,  // multi-key write
  // Composite command: `value` holds a codec-encoded sequence of sub-commands, all of
  // which live in one partition. Sharded replicas coalesce client submissions into
  // batches so a batch pays one protocol round (one dot, one MCollect fan-out) for
  // many client commands. key/more_keys carry the union of sub-command keys, so the
  // conflict index and checker-side conflict model treat the batch like the multi-key
  // write it is. Executors/state machines unpack it (UnpackBatch) and apply the
  // sub-commands in encoded order.
  kBatch = 6,
  // Ordered range read: returns the values of every key in [key, more_keys[0])
  // in key order. Supported by ordered backends (kvs::OrderedKvs); hash-map
  // backends return "". Its conflict footprint is an interval, which the
  // key-set conflict model over-approximates with just the two endpoint keys —
  // a coarse but safe-for-our-workloads bound (checker workloads never mix
  // ranges with writes to interior keys). Routing across partitions is also
  // key-set based, so at P > 1 a range is client-routable only when both
  // endpoints hash to one shard; P = 1 and per-shard local use are the
  // intended scopes.
  kRange = 7,
};

const char* OpName(Op op);

struct Command {
  uint64_t client = 0;  // submitting client id (0 = internal)
  uint64_t seq = 0;     // per-client sequence number; (client, seq) is unique
  Op op = Op::kNoOp;
  std::string key;                      // primary key (unused for kNoOp)
  std::vector<std::string> more_keys;   // extra keys for kScan / kMPut
  // Payload for writes; ignored for reads. Values above the SSO threshold are
  // refcounted (src/smr/payload.h), so the many copies a command undergoes —
  // protocol state, message fan-out, executor nodes, mailbox slots, the
  // executor-pool handoff — share one buffer instead of reallocating it.
  Payload value;

  bool is_noop() const { return op == Op::kNoOp; }
  bool is_read() const {
    return op == Op::kGet || op == Op::kScan || op == Op::kRange;
  }
  bool is_write() const {
    return op == Op::kPut || op == Op::kRmw || op == Op::kMPut || op == Op::kBatch;
  }
  bool is_batch() const { return op == Op::kBatch; }

  // Total bytes of key + payload; used by benches to model message sizes.
  size_t PayloadSize() const;

  // Works with codec::Writer (emit bytes) and codec::SizeWriter (count bytes only):
  // the simulator charges wire sizes on every send without serializing.
  template <class W>
  void EncodeTo(W& w) const {
    w.Varint(client);
    w.Varint(seq);
    w.U8(static_cast<uint8_t>(op));
    w.Bytes(key);
    w.Varint(more_keys.size());
    for (const auto& k : more_keys) {
      w.Bytes(k);
    }
    w.Bytes(value.view());
  }
  void Encode(codec::Writer& w) const { EncodeTo(w); }
  static Command Decode(codec::Reader& r);

  friend bool operator==(const Command& a, const Command& b);

  std::string ToString() const;
};

// Convenience constructors.
Command MakeGet(uint64_t client, uint64_t seq, std::string key);
Command MakePut(uint64_t client, uint64_t seq, std::string key, std::string value);
Command MakeRmw(uint64_t client, uint64_t seq, std::string key, std::string value);
Command MakeNoOp();
// Range read over [begin, end) — ordered backends only (see Op::kRange).
Command MakeRange(uint64_t client, uint64_t seq, std::string begin, std::string end);

// Rebuilds `out` as the kBatch composite of `cmds` (none may itself be a batch or
// noOp). The batch carries client=0/seq=0 — sub-commands keep their own (client,
// seq) for completion routing — and the deduplicated union of sub-command keys for
// conflict detection. Encodes through `scratch` (cleared first, capacity kept);
// smr::Batcher calls this once per flush with its reused writer, so the encode
// buffer never reallocates once warm; `out` is fully overwritten. With `pool` set,
// the composite payload lands in a recycled PayloadPool buffer instead of a fresh
// string — the last per-flush allocation on the batching hot path (pinned by
// alloc_test).
void MakeBatchInto(const std::vector<Command>& cmds, codec::Writer& scratch,
                   Command& out, PayloadPool* pool = nullptr);

// Decodes a kBatch's sub-commands into `out` (cleared first). Returns false if
// `batch` is not a well-formed batch. `out` reuses its capacity across calls.
bool UnpackBatch(const Command& batch, std::vector<Command>& out);

// Client commands `cmd` carries: a kBatch's leading sub-command count (0 when that
// varint is malformed), 1 for any other command, 0 for a noOp. Decodes nothing
// past the count.
uint64_t SubCommandCount(const Command& cmd);

}  // namespace smr

#endif  // SRC_SMR_COMMAND_H_
