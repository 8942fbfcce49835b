#include "src/smr/decided_log.h"

#include <algorithm>
#include <utility>

#include "src/codec/codec.h"
#include "src/common/check.h"

namespace smr {

namespace {

template <class W>
void EncodeHeader(W& w, const common::Dot& dot, uint64_t weight, size_t body_len) {
  w.Dot(dot);
  w.Varint(weight);
  w.Varint(body_len);
}

template <class W>
void EncodeEntry(W& w, const Command& cmd, const common::DepSet& deps, uint64_t seqno) {
  cmd.EncodeTo(w);
  w.Deps(deps);
  w.Varint(seqno);
}

}  // namespace

DecidedLog::DecidedLog(size_t limit) : limit_(limit) {
  // At most 2^23 entries keep the index within 2^24 slots at its 70% load, so the
  // 24-bit tag holds every home slot.
  CHECK(limit > 0 && limit <= (size_t{1} << 23));
}

uint64_t DecidedLog::Tag(const common::Dot& dot) {
  return static_cast<uint64_t>(common::DotHash{}(dot)) >> kTagShift;
}

void DecidedLog::Record(const common::Dot& dot, const Command& cmd,
                        const common::DepSet& deps, uint64_t seqno) {
  const uint64_t tag = Tag(dot);
  if (Locate(dot, tag) != 0) {
    return;
  }
  // Weights past the horizon all mean "held alone", so clamping bounds them.
  const uint64_t weight =
      std::min<uint64_t>(std::max<uint64_t>(SubCommandCount(cmd), 1), limit_);
  // Evict first, so a chunk freed by the eviction can take the new entry.
  while (live_weight_ + weight > limit_) {
    EvictOldest();
  }
  codec::SizeWriter body;
  EncodeEntry(body, cmd, deps, seqno);
  codec::SizeWriter header;
  EncodeHeader(header, dot, weight, body.size());
  const uint32_t c = ChunkFor(header.size() + body.size());
  Chunk& chunk = chunks_[c];
  const size_t off = chunk.bytes.size();
  // The chunk was sized to fit, so the writer appends without reallocating.
  codec::Writer w(std::move(chunk.bytes));
  EncodeHeader(w, dot, weight, body.size());
  EncodeEntry(w, cmd, deps, seqno);
  chunk.bytes = w.TakeBuffer();
  chunk.entries++;
  if (size_ == 0) {
    head_ = c;
    head_off_ = off;
  }
  if ((size_ + 1) * 10 >= slots_.size() * 7) {
    GrowIndex();
  }
  InsertSlot(Pack(tag, c, off));
  size_++;
  live_bytes_ += body.size();
  live_weight_ += weight;
}

bool DecidedLog::Find(const common::Dot& dot, Command* cmd, common::DepSet* deps,
                      uint64_t* seqno) const {
  const uint64_t slot = Locate(dot, Tag(dot));
  if (slot == 0) {
    return false;
  }
  const uint32_t c = ChunkOf(slot);
  const Header h = ReadHeader(c, OffOf(slot));
  codec::Reader r(chunks_[c].bytes.data() + h.body_off, h.body_len);
  Command decoded = Command::Decode(r);
  common::DepSet d = r.Deps();
  uint64_t s = r.Varint();
  CHECK(r.ok() && r.AtEnd());
  if (cmd != nullptr) {
    *cmd = std::move(decoded);
  }
  if (deps != nullptr) {
    *deps = std::move(d);
  }
  if (seqno != nullptr) {
    *seqno = s;
  }
  return true;
}

DecidedLog::Header DecidedLog::ReadHeader(uint32_t chunk, size_t off) const {
  const std::vector<uint8_t>& bytes = chunks_[chunk].bytes;
  codec::Reader r(bytes.data() + off, bytes.size() - off);
  Header h;
  h.dot = r.Dot();
  h.weight = r.Varint();
  h.body_len = r.Varint();
  CHECK(r.ok() && r.remaining() >= h.body_len);
  h.body_off = bytes.size() - r.remaining();
  return h;
}

uint64_t DecidedLog::Locate(const common::Dot& dot, uint64_t tag) const {
  if (size_ == 0) {
    return 0;
  }
  const size_t mask = slots_.size() - 1;
  for (size_t i = tag & mask; slots_[i] != 0; i = (i + 1) & mask) {
    const uint64_t s = slots_[i];
    if (s >> kTagShift == tag && ReadHeader(ChunkOf(s), OffOf(s)).dot == dot) {
      return s;
    }
  }
  return 0;
}

void DecidedLog::InsertSlot(uint64_t packed) {
  const size_t mask = slots_.size() - 1;
  size_t i = (packed >> kTagShift) & mask;
  while (slots_[i] != 0) {
    i = (i + 1) & mask;
  }
  slots_[i] = packed;
}

void DecidedLog::EraseSlot(uint64_t packed) {
  const size_t mask = slots_.size() - 1;
  size_t hole = (packed >> kTagShift) & mask;
  while (slots_[hole] != packed) {
    CHECK(slots_[hole] != 0);
    hole = (hole + 1) & mask;
  }
  // Backward shift: move back every later slot of the run whose home does not lie
  // cyclically in (hole, j], so lookups never meet a tombstone.
  for (size_t j = (hole + 1) & mask; slots_[j] != 0; j = (j + 1) & mask) {
    const size_t home = (slots_[j] >> kTagShift) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = 0;
}

void DecidedLog::GrowIndex() {
  std::vector<uint64_t> old(slots_.empty() ? kMinSlots : 2 * slots_.size());
  old.swap(slots_);
  for (uint64_t s : old) {
    if (s != 0) {
      InsertSlot(s);
    }
  }
}

void DecidedLog::EvictOldest() {
  CHECK(size_ > 0);
  const uint32_t c = head_;
  const Header h = ReadHeader(c, head_off_);
  EraseSlot(Pack(Tag(h.dot), c, head_off_));
  size_--;
  live_bytes_ -= h.body_len;
  live_weight_ -= h.weight;
  head_off_ = h.body_off + h.body_len;
  Chunk& chunk = chunks_[c];
  if (--chunk.entries > 0) {
    return;
  }
  // The chain is in record order, so the tail empties only with the whole log.
  head_ = chunk.next;
  head_off_ = 0;
  if (c == tail_) {
    tail_ = kNoChunk;
  }
  ReleaseChunk(c);
}

uint32_t DecidedLog::ChunkFor(size_t len) {
  if (tail_ != kNoChunk && chunks_[tail_].bytes.size() + len <= kChunkBytes) {
    return tail_;
  }
  // The old tail keeps its entries until they are evicted.
  uint32_t c;
  if (len > kChunkBytes) {
    c = AcquireChunk(len);
  } else if (spare_ != kNoChunk) {
    c = spare_;
    spare_ = kNoChunk;
  } else {
    c = AcquireChunk(kChunkBytes);
  }
  chunks_[c].next = kNoChunk;
  if (tail_ != kNoChunk) {
    chunks_[tail_].next = c;
  }
  tail_ = c;
  return c;
}

uint32_t DecidedLog::AcquireChunk(size_t capacity) {
  uint32_t c;
  if (!free_chunks_.empty()) {
    c = free_chunks_.back();
    free_chunks_.pop_back();
  } else {
    c = static_cast<uint32_t>(chunks_.size());
    // An index slot holds the chunk id + 1 in kChunkBits bits.
    CHECK(c + 1 < (uint32_t{1} << kChunkBits));
    chunks_.emplace_back();
  }
  chunks_[c].bytes.reserve(capacity);
  held_bytes_ += chunks_[c].bytes.capacity();
  return c;
}

void DecidedLog::ReleaseChunk(uint32_t c) {
  Chunk& chunk = chunks_[c];
  if (chunk.bytes.capacity() == kChunkBytes && spare_ == kNoChunk) {
    chunk.bytes.clear();
    spare_ = c;
    return;
  }
  held_bytes_ -= chunk.bytes.capacity();
  std::vector<uint8_t>().swap(chunk.bytes);
  free_chunks_.push_back(c);
}

}  // namespace smr
