#include "src/dur/shard_durability.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>

#include "src/codec/codec.h"
#include "src/smr/command.h"

namespace dur {

namespace {

bool EnsureDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) {
    return true;
  }
  if (errno != ENOENT) {
    return false;
  }
  // Create missing parents (paths here are short: data_dir/site-N/shard-M).
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos || slash == 0) {
    return false;
  }
  if (!EnsureDir(path.substr(0, slash))) {
    return false;
  }
  return ::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST;
}

}  // namespace

ShardDurability::ShardDurability(std::string dir, Options opts)
    : dir_(std::move(dir)), opts_(opts), log_(dir_, opts.log) {}

bool ShardDurability::Open() {
  if (!EnsureDir(dir_)) {
    return false;
  }
  if (!log_.Open()) {
    return false;
  }
  have_snapshot_ = LoadSnapshotFile(dir_, snap_);
  if (have_snapshot_) {
    persisted_exec_floor_ = snap_.exec_floor;
  }
  FloorRecord fr;
  if (LoadFloorsFile(dir_, fr)) {
    persisted_seq_floor_ = fr.seq_floor;
  }
  had_state_ = have_snapshot_ || persisted_seq_floor_ > 0 ||
               log_.position().segment > log_.begin().segment ||
               log_.position().offset > 0;
  return true;
}

uint64_t ShardDurability::Recover(smr::StateMachine& store) {
  frontier_.Clear();
  applied_count_ = 0;
  CommitLog::Position replay_from = log_.begin();
  if (have_snapshot_) {
    codec::Reader r(
        reinterpret_cast<const uint8_t*>(snap_.store_blob.data()),
        snap_.store_blob.size());
    if (store.RestoreFrom(r)) {
      frontier_ = snap_.frontier;
      applied_count_ = snap_.applied_count;
      replay_from = snap_.log_pos;
    }
    // A corrupt blob falls back to full-log replay from a fresh store: the
    // store was just cleared by the failed RestoreFrom.
  }
  log_.ReplayFrom(replay_from,
                  [&](const common::Dot& dot, const smr::Command& cmd) {
                    if (!frontier_.Insert(dot)) {
                      return;  // already in the snapshot
                    }
                    store.Apply(cmd);
                    applied_count_ += smr::SubCommandCount(cmd);
                  });
  appends_since_snapshot_ = 0;
  return applied_count_;
}

bool ShardDurability::Admit(const common::Dot& dot, const smr::Command& cmd) {
  if (!frontier_.Insert(dot)) {
    return false;
  }
  log_.Append(dot, cmd);
  appends_since_snapshot_++;
  applied_count_ += smr::SubCommandCount(cmd);
  return true;
}

bool ShardDurability::WriteSnapshot(const smr::StateMachine& store,
                                    uint64_t exec_floor) {
  // The snapshot's log position must only cover records that are actually on
  // disk, so sync first (which also makes persisting exec_floor sound — see
  // SnapshotMeta::exec_floor).
  log_.Sync();
  SnapshotMeta meta;
  meta.applied_count = applied_count_;
  meta.exec_floor = exec_floor;
  meta.log_pos = log_.position();
  meta.frontier = frontier_;
  codec::Writer w;
  store.SnapshotTo(w);
  meta.store_blob.assign(
      reinterpret_cast<const char*>(w.buffer().data()), w.buffer().size());
  if (!WriteSnapshotFile(dir_, meta)) {
    return false;
  }
  persisted_exec_floor_ = exec_floor;
  appends_since_snapshot_ = 0;
  return true;
}

size_t ShardDurability::StreamMissing(const DotFrontier& have,
                                      const CommitLog::ReplayFn& fn) {
  return log_.Replay([&](const common::Dot& dot, const smr::Command& cmd) {
    if (!have.Covers(dot)) {
      fn(dot, cmd);
    }
  });
}

void ShardDurability::NoteSeqFloor(uint64_t seq_floor) {
  if (persisted_seq_floor_ >= seq_floor + opts_.floor_refresh) {
    return;
  }
  uint64_t reserved = seq_floor + opts_.floor_slack;
  if (WriteFloorsFile(dir_, FloorRecord{reserved})) {
    persisted_seq_floor_ = reserved;
  }
}

}  // namespace dur
