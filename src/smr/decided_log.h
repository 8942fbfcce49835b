// Bounded log of decided (committed) values, shared by the Atlas, EPaxos and Mencius
// engines.
//
// Recovery answers a late MRec/MConsensus (Atlas, Algorithm 4 lines 34-36) or
// EpPrepare (EPaxos) for an already-decided dot with its committed value, also after
// execution has erased the dot's per-command Info; Mencius answers a retransmitted
// proposal or a revocation of an executed slot the same way. Each engine keeps the
// decided values of its last kDecidedHorizon client commands for that purpose, in
// FIFO order; beyond the horizon it stays silent and the recoverer learns the value
// from another replica.
//
// The horizon counts client commands, not dots: an entry weighs the client commands
// it carries (smr::SubCommandCount; a kBatch weighs its sub-command count, any other
// command 1, noOps included). Record evicts the oldest entries until the new one fits,
// and an entry heavier than the whole horizon is kept alone. So a sharded replica
// whose dots each carry a dozen batched commands keeps the same history as an
// unbatched one, not a dozen times more: about 16 MB of encoded values per engine for
// 100-byte puts, whatever the partition count and batch size.
//
// Layout. The chunks carry everything but the lookup. Each entry is written back to
// back into kChunkBytes chunks as
//
//   [dot varints][weight varint][body-length varint][body]
//
// where the body is the wire encoding of (cmd, deps, seqno) written with the message
// codec (Command::EncodeTo, Writer::Deps, a varint seqno). The chunks are chained in
// record order, so the oldest entry is the one at (head chunk, head offset) and
// eviction reads its header and steps past it. An entry larger than a chunk gets a
// chunk of its own, which becomes the tail, so the chain stays in record order. A
// chunk whose last entry is evicted is recycled: one spare is kept for the next
// append, any further one is freed. So cached entries pin no Payload buffers.
//
// The index is one power-of-two array of 8-byte slots (linear probing, at most 70%
// load, backward-shift erase). A slot packs [24-bit dot-hash tag | chunk id + 1 |
// offset] and 0 marks it empty; the home slot is `tag & mask`, so growing the table
// and erasing never read a chunk, and a lookup reads an entry's header only when the
// tag matches. An entry costs its body, a header of about 7 bytes and about 16 bytes
// of index (8-byte slots at 35-70% load).
//
// Everything grows lazily; the constructor allocates nothing. Once the horizon is
// full, a steady stream of records allocates nothing: the chunk an eviction frees
// takes the next appends (pinned by alloc_test). Only an entry larger than a chunk, a
// burst that frees more chunks than it fills, or a shift to lighter entries that
// grows the index allocates again.
#ifndef SRC_SMR_DECIDED_LOG_H_
#define SRC_SMR_DECIDED_LOG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/dep_set.h"
#include "src/common/types.h"
#include "src/smr/command.h"

namespace smr {

// Client commands whose decided values each engine keeps answerable for recovery.
inline constexpr size_t kDecidedHorizon = size_t{1} << 17;

class DecidedLog {
 public:
  static constexpr size_t kChunkBytes = size_t{1} << 20;

  // `limit` is the FIFO horizon in client commands, at most 2^23; engines use the
  // default, tests shrink it.
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
  size_t size() const { return size_; }
  // Client commands the held entries carry, at most `limit`: an entry heavier than
  // the horizon counts as `limit`.
  size_t live_weight() const { return live_weight_; }
  // Encoded body bytes of the entries held (entry headers not included).
  size_t live_bytes() const { return live_bytes_; }
  // Chunk capacity held, including the spare chunk.
  size_t held_bytes() const { return held_bytes_; }
  // Everything the log holds: the chunk capacity plus the index.
  size_t footprint_bytes() const {
    return held_bytes_ + slots_.capacity() * sizeof(uint64_t);
  }

 private:
  static constexpr uint32_t kNoChunk = 0xffffffffu;
  struct Chunk {
    std::vector<uint8_t> bytes;  // capacity fixed at acquisition; size = bytes used
    uint32_t entries = 0;        // live entries stored here
    uint32_t next = kNoChunk;    // the next chunk in record order
  };
  // An entry's header, decoded from its chunk.
  struct Header {
    common::Dot dot;
    uint64_t weight = 0;
    size_t body_off = 0;  // chunk offset of the body
    size_t body_len = 0;
  };
  static constexpr size_t kMinSlots = 16;
  static constexpr int kOffBits = 20;
  static constexpr int kChunkBits = 20;
  static constexpr int kTagShift = kOffBits + kChunkBits;
  static_assert(kChunkBytes <= (size_t{1} << kOffBits), "offsets fit the slot");

  static uint64_t Tag(const common::Dot& dot);
  static uint64_t Pack(uint64_t tag, uint32_t chunk, size_t off) {
    return tag << kTagShift | uint64_t{chunk + 1} << kOffBits | off;
  }
  static uint32_t ChunkOf(uint64_t slot) {
    return static_cast<uint32_t>((slot >> kOffBits) & ((uint64_t{1} << kChunkBits) - 1)) -
           1;
  }
  static size_t OffOf(uint64_t slot) { return slot & ((uint64_t{1} << kOffBits) - 1); }
  Header ReadHeader(uint32_t chunk, size_t off) const;
  // The index slot value locating `dot` (whose tag is `tag`), or 0 when it is not
  // held.
  uint64_t Locate(const common::Dot& dot, uint64_t tag) const;
  void InsertSlot(uint64_t packed);
  void EraseSlot(uint64_t packed);
  void GrowIndex();

  void EvictOldest();
  // Returns the chunk that receives an entry of `len` bytes, chained as the tail.
  // The tail is never empty between records: a chunk whose last entry is evicted is
  // released, tail or not.
  uint32_t ChunkFor(size_t len);
  uint32_t AcquireChunk(size_t capacity);
  void ReleaseChunk(uint32_t c);

  size_t limit_;
  std::vector<uint64_t> slots_;  // the index, see the layout above
  size_t size_ = 0;              // entries held
  std::vector<Chunk> chunks_;
  uint32_t head_ = kNoChunk;        // chunk holding the oldest entry
  size_t head_off_ = 0;             // its offset there
  uint32_t tail_ = kNoChunk;        // chunk receiving appends
  uint32_t spare_ = kNoChunk;       // recycled kChunkBytes chunk, ready for reuse
  std::vector<uint32_t> free_chunks_;  // chunks_ ids holding no buffer
  size_t live_bytes_ = 0;
  size_t live_weight_ = 0;
  size_t held_bytes_ = 0;
};

}  // namespace smr

#endif  // SRC_SMR_DECIDED_LOG_H_
