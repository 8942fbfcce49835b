#include "src/smr/decided_log.h"

#include <algorithm>
#include <utility>

#include "src/codec/codec.h"
#include "src/common/check.h"

namespace smr {

namespace {

template <class W>
void EncodeEntry(W& w, const Command& cmd, const common::DepSet& deps, uint64_t seqno) {
  cmd.EncodeTo(w);
  w.Deps(deps);
  w.Varint(seqno);
}

}  // namespace

DecidedLog::DecidedLog(size_t limit) : limit_(limit) {
  CHECK(limit > 0 && limit <= UINT32_MAX);
}

void DecidedLog::Record(const common::Dot& dot, const Command& cmd,
                        const common::DepSet& deps, uint64_t seqno) {
  if (index_.Contains(dot)) {
    return;
  }
  // Weights past the horizon all mean "held alone", so clamping keeps them in 32 bits.
  const uint64_t weight =
      std::min<uint64_t>(std::max<uint64_t>(SubCommandCount(cmd), 1), limit_);
  // Evict first, so a chunk freed by the eviction can take the new entry.
  while (live_weight_ + weight > limit_) {
    EvictOldest();
  }
  codec::SizeWriter size;
  EncodeEntry(size, cmd, deps, seqno);
  const uint32_t c = ChunkFor(size.size());
  Chunk& chunk = chunks_[c];
  Entry e;
  e.dot = dot;
  e.chunk = c;
  e.off = static_cast<uint32_t>(chunk.bytes.size());
  e.len = static_cast<uint32_t>(size.size());
  e.weight = static_cast<uint32_t>(weight);
  // The chunk was sized to fit, so the writer appends without reallocating.
  codec::Writer w(std::move(chunk.bytes));
  EncodeEntry(w, cmd, deps, seqno);
  chunk.bytes = w.TakeBuffer();
  chunk.entries++;
  live_bytes_ += e.len;
  live_weight_ += e.weight;
  if (next_ - head_ == ring_.size()) {
    GrowRing();
  }
  ring_[next_ & (ring_.size() - 1)] = e;
  index_[dot] = next_++;
}

bool DecidedLog::Find(const common::Dot& dot, Command* cmd, common::DepSet* deps,
                      uint64_t* seqno) const {
  const uint64_t* n = index_.Find(dot);
  if (n == nullptr) {
    return false;
  }
  const Entry& e = ring_[*n & (ring_.size() - 1)];
  codec::Reader r(chunks_[e.chunk].bytes.data() + e.off, e.len);
  Command c = Command::Decode(r);
  common::DepSet d = r.Deps();
  uint64_t s = r.Varint();
  CHECK(r.ok() && r.AtEnd());
  if (cmd != nullptr) {
    *cmd = std::move(c);
  }
  if (deps != nullptr) {
    *deps = std::move(d);
  }
  if (seqno != nullptr) {
    *seqno = s;
  }
  return true;
}

void DecidedLog::EvictOldest() {
  CHECK(head_ < next_);
  const Entry& e = ring_[head_++ & (ring_.size() - 1)];
  index_.Erase(e.dot);
  live_bytes_ -= e.len;
  live_weight_ -= e.weight;
  Chunk& chunk = chunks_[e.chunk];
  if (--chunk.entries > 0) {
    return;
  }
  if (e.chunk == tail_) {
    chunk.bytes.clear();  // empty tail: appends restart at offset 0
  } else {
    ReleaseChunk(e.chunk);
  }
}

void DecidedLog::GrowRing() {
  std::vector<Entry> grown(ring_.empty() ? kMinRingSlots : 2 * ring_.size());
  for (uint64_t n = head_; n < next_; n++) {
    grown[n & (grown.size() - 1)] = ring_[n & (ring_.size() - 1)];
  }
  ring_.swap(grown);
}

uint32_t DecidedLog::ChunkFor(size_t len) {
  if (len > kChunkBytes) {
    return AcquireChunk(len);
  }
  if (tail_ != kNoChunk && chunks_[tail_].bytes.size() + len <= kChunkBytes) {
    return tail_;
  }
  // The old tail keeps its entries until they are evicted (it cannot be empty here:
  // an empty tail fits any entry of up to kChunkBytes).
  if (spare_ != kNoChunk) {
    tail_ = spare_;
    spare_ = kNoChunk;
  } else {
    tail_ = AcquireChunk(kChunkBytes);
  }
  return tail_;
}

uint32_t DecidedLog::AcquireChunk(size_t capacity) {
  uint32_t c;
  if (!free_slots_.empty()) {
    c = free_slots_.back();
    free_slots_.pop_back();
  } else {
    c = static_cast<uint32_t>(chunks_.size());
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
  free_slots_.push_back(c);
}

}  // namespace smr
