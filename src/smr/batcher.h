// Submission batching: coalesces the commands routed to one shard within a
// window into one kBatch composite — one dot and one protocol round for the
// whole batch. smr::ShardedEngine holds one Batcher over its P shards (the
// simulator path) and each rt::ShardRuntime worker one over its own shard (the
// TCP path), so both follow the same rule:
//
//   * the first command buffered while no window is armed arms one window for
//     every buffer; Add returns its generation and the caller sets a timer of
//     window() carrying it;
//   * when that timer fires, Expire flushes every buffer in shard order and
//     disarms; a stale generation does nothing, so a leftover timer can never
//     flush a younger batch early;
//   * a buffer that reaches batch_max flushes alone and leaves the window armed;
//   * a batch of one is submitted bare. A window of 0 submits every command at
//     once.
#ifndef SRC_SMR_BATCHER_H_
#define SRC_SMR_BATCHER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/codec/codec.h"
#include "src/common/types.h"
#include "src/smr/command.h"
#include "src/smr/payload.h"

namespace smr {

class Batcher {
 public:
  // Receives each flushed command: a lone command or a kBatch composite.
  using SubmitFn = std::function<void(uint32_t shard, Command cmd)>;

  Batcher(uint32_t shards, common::Duration window, size_t batch_max,
          SubmitFn submit);

  common::Duration window() const { return window_; }

  // Submits or buffers `cmd` for `shard`. Returns the generation of the
  // window this call armed, or 0 when the caller has no timer to set.
  uint64_t Add(uint32_t shard, Command cmd);

  // The window armed under `generation` elapsed: flushes every buffer if it is
  // still the armed one, and does nothing otherwise.
  void Expire(uint64_t generation);

 private:
  void Flush(uint32_t shard);

  common::Duration window_;
  size_t batch_max_;
  SubmitFn submit_;
  // Per-shard buffers; cleared (capacity kept) on flush.
  std::vector<std::vector<Command>> pending_;
  // kBatch encode scratch (MakeBatchInto) and recycled composite payloads, so
  // a warm flush allocates nothing (pinned by alloc_test).
  codec::Writer writer_;
  PayloadPool pool_;
  uint64_t generation_ = 0;
  bool armed_ = false;
};

}  // namespace smr

#endif  // SRC_SMR_BATCHER_H_
