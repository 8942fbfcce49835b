// Bounded log of decided (committed) values, shared by the Atlas and EPaxos engines.
//
// Recovery answers a late MRec/MConsensus (Atlas, Algorithm 4 lines 34-36) or
// EpPrepare (EPaxos) for an already-decided dot with its committed value, also after
// execution has erased the dot's per-command Info. Each engine keeps the decided
// values of its last kDecidedHorizon client commands for that purpose, in FIFO order;
// beyond the horizon it stays silent and the recoverer learns the value from another
// replica.
//
// The horizon counts client commands, not dots: an entry weighs the client commands
// it carries (smr::SubCommandCount; a kBatch weighs its sub-command count, any other
// command 1, noOps included). Record evicts the oldest entries until the new one fits,
// and an entry heavier than the whole horizon is kept alone. So a sharded replica
// whose dots each carry a dozen batched commands keeps the same history as an
// unbatched one, not a dozen times more: about 16 MB of encoded values per engine for
// 100-byte puts, whatever the partition count and batch size.
//
// Storage is compact: each entry is the wire encoding of (cmd, deps, seqno) written
// with the message codec (Command::EncodeTo, Writer::Deps, a varint seqno), packed
// back to back into kChunkBytes chunks. An entry larger than a chunk gets a chunk of
// its own. A chunk whose last entry is evicted is recycled: one spare is kept for the
// next append, any further one is freed. So cached entries pin no Payload buffers
// and cost their encoded size plus a 32-byte ring slot and their share of the
// index's 24-byte slots. The ring and the index hold live entries only, and the ring
// doubles when the live entries fill it, so it is sized by the live entry count.
//
// Everything grows lazily. Once the horizon is full, a steady stream of records
// allocates nothing: the chunk an eviction frees takes the next appends (pinned by
// alloc_test). Only an entry larger than a chunk, a burst that frees more chunks
// than it fills, or a shift to lighter entries that fills the ring allocates again.
#ifndef SRC_SMR_DECIDED_LOG_H_
#define SRC_SMR_DECIDED_LOG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/dep_set.h"
#include "src/common/dot_map.h"
#include "src/common/types.h"
#include "src/smr/command.h"

namespace smr {

// Client commands whose decided values each engine keeps answerable for recovery.
inline constexpr size_t kDecidedHorizon = size_t{1} << 17;

class DecidedLog {
 public:
  static constexpr size_t kChunkBytes = size_t{1} << 20;

  // `limit` is the FIFO horizon in client commands; engines use the default, tests
  // shrink it.
  explicit DecidedLog(size_t limit = kDecidedHorizon);

  // Records the decided value of `dot`, first evicting the oldest entries until its
  // weight fits beside theirs in `limit`. A dot is decided once: recording it again
  // keeps the first value.
  void Record(const common::Dot& dot, const Command& cmd, const common::DepSet& deps,
              uint64_t seqno = 0);

  // Decodes the value recorded for `dot` into the non-null outputs. Returns false
  // when `dot` was never recorded or has left the horizon.
  bool Find(const common::Dot& dot, Command* cmd, common::DepSet* deps,
            uint64_t* seqno = nullptr) const;

  // Entries held (dots, not client commands).
  size_t size() const { return index_.size(); }
  // Client commands the held entries carry, at most `limit`: an entry heavier than
  // the horizon counts as `limit`.
  size_t live_weight() const { return live_weight_; }
  // Encoded bytes of the entries held.
  size_t live_bytes() const { return live_bytes_; }
  // Chunk capacity held, including the spare chunk.
  size_t held_bytes() const { return held_bytes_; }

 private:
  struct Entry {
    common::Dot dot;
    uint32_t chunk = 0;
    uint32_t off = 0;
    uint32_t len = 0;
    uint32_t weight = 0;  // client commands carried, in [1, limit]
  };
  struct Chunk {
    std::vector<uint8_t> bytes;  // capacity fixed at acquisition; size = bytes used
    uint32_t entries = 0;        // live entries stored here
  };
  static constexpr uint32_t kNoChunk = 0xffffffffu;
  static constexpr size_t kMinRingSlots = 16;

  void EvictOldest();
  // Doubles the ring, keeping every live entry number's slot at `n & mask`.
  void GrowRing();
  // Returns the chunk that receives an entry of `len` bytes.
  uint32_t ChunkFor(size_t len);
  uint32_t AcquireChunk(size_t capacity);
  void ReleaseChunk(uint32_t c);

  size_t limit_;
  common::DotMap<uint64_t> index_;  // dot -> entry number
  // Entry number n lives at ring_[n & (ring_.size() - 1)]; the size is a power of
  // two, and the live entries are the numbers [head_, next_).
  std::vector<Entry> ring_;
  uint64_t head_ = 0;  // entry number of the oldest live entry
  uint64_t next_ = 0;  // entry number of the next record
  std::vector<Chunk> chunks_;
  uint32_t tail_ = kNoChunk;        // kChunkBytes chunk receiving appends
  uint32_t spare_ = kNoChunk;       // recycled kChunkBytes chunk, ready for reuse
  std::vector<uint32_t> free_slots_;  // chunks_ slots holding no buffer
  size_t live_bytes_ = 0;
  size_t live_weight_ = 0;
  size_t held_bytes_ = 0;
};

}  // namespace smr

#endif  // SRC_SMR_DECIDED_LOG_H_
