#include "src/smr/batcher.h"

#include <utility>

#include "src/common/check.h"

namespace smr {

Batcher::Batcher(uint32_t shards, common::Duration window, size_t batch_max,
                 SubmitFn submit)
    : window_(window),
      batch_max_(batch_max),
      submit_(std::move(submit)),
      pending_(shards) {
  CHECK_GE(shards, 1u);
  CHECK_GE(batch_max_, 1u);
  CHECK(submit_ != nullptr);
}

uint64_t Batcher::Add(uint32_t shard, Command cmd) {
  CHECK(!cmd.is_batch());  // the batcher owns batch composition
  if (window_ == 0) {
    submit_(shard, std::move(cmd));
    return 0;
  }
  std::vector<Command>& buf = pending_[shard];
  buf.push_back(std::move(cmd));
  if (buf.size() >= batch_max_) {
    Flush(shard);
    return 0;
  }
  if (armed_) {
    return 0;
  }
  // One window for every buffer: per-shard windows armed a timer per fresh
  // batch per shard, whose stale copies chopped high-P batches into fragments.
  armed_ = true;
  return ++generation_;
}

void Batcher::Expire(uint64_t generation) {
  if (!armed_ || generation != generation_) {
    return;  // stale timer from an earlier window; the armed one still runs
  }
  armed_ = false;
  for (uint32_t s = 0; s < pending_.size(); s++) {
    Flush(s);
  }
}

void Batcher::Flush(uint32_t shard) {
  std::vector<Command>& buf = pending_[shard];
  if (buf.empty()) {
    return;
  }
  if (buf.size() == 1) {
    // Same wire cost as unbatched submission, and per-command commit/drop
    // semantics stay exact.
    submit_(shard, std::move(buf[0]));
  } else {
    Command batch;
    MakeBatchInto(buf, writer_, batch, &pool_);
    submit_(shard, std::move(batch));
  }
  buf.clear();
}

}  // namespace smr
