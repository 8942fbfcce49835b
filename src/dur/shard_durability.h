// Per-shard durability facade: commit log + snapshots + executed-dot frontier
// + reserved sequence floors, under one directory (<data_dir>/shard-N/).
//
// Lifecycle:
//   Open()            — mkdir, open/repair the log, load the latest snapshot.
//   Recover(store)    — restore the snapshot blob into the store and replay
//                       the log tail past the snapshot position, building the
//                       frontier; returns ops applied.
//   Admit(dot, cmd)   — duplicate filter + log append. Called on every
//                       executed command *before* it is applied; returns false
//                       when the dot was already executed (restart replay or
//                       catch-up re-delivery) so the caller skips the apply.
//   WriteSnapshot()   — syncs the log, then atomically writes the store blob +
//                       frontier + log position.
//   StreamMissing()   — replays the full log, filtering by a peer's frontier;
//                       the catch-up sender side.
//
// Sequence floors: a restarting replica must never re-mint a dot it already
// used (a new command under an executed dot would be silently dropped by
// every peer's frontier). PersistFloors() reserves a block of sequence
// numbers ahead of the engine's current floor; recovery hands the reserved
// floor back to the engine so fresh submissions start above it.
#ifndef SRC_DUR_SHARD_DURABILITY_H_
#define SRC_DUR_SHARD_DURABILITY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/dur/commit_log.h"
#include "src/dur/frontier.h"
#include "src/dur/snapshot.h"
#include "src/smr/state_machine.h"

namespace dur {

class ShardDurability {
 public:
  struct Options {
    CommitLog::Options log;
    // Appended records between automatic snapshots (0 disables auto
    // snapshots; WriteSnapshot can still be called explicitly).
    uint64_t snapshot_every = 4096;
    // Sequence numbers reserved ahead of the engine floor per floors-file
    // write, and the refresh threshold (re-persist when the engine floor
    // gets within `floor_refresh` of the reserved value).
    uint64_t floor_slack = 4096;
    uint64_t floor_refresh = 1024;
  };

  ShardDurability(std::string dir, Options opts);

  // Creates the directory if needed, opens/repairs the log, and loads the
  // snapshot + floors files. Returns false when the directory is unusable.
  bool Open();

  // True when Open() found prior state (snapshot, log records, or floors).
  bool had_state() const { return had_state_; }

  // Restores snapshot blob into `store` (when present) and replays the log
  // tail, applying through `store` and populating the frontier. Returns the
  // recovered applied-op count.
  uint64_t Recover(smr::StateMachine& store);

  // Duplicate filter + append. True => new dot, logged; caller applies it.
  bool Admit(const common::Dot& dot, const smr::Command& cmd);

  bool SnapshotDue() const {
    return opts_.snapshot_every > 0 &&
           appends_since_snapshot_ >= opts_.snapshot_every;
  }

  // Log sync + atomic snapshot write. Resets the snapshot counter.
  // `exec_floor` is the engine's execution frontier at this moment (see
  // SnapshotMeta::exec_floor); pass 0 for engines without one.
  bool WriteSnapshot(const smr::StateMachine& store, uint64_t exec_floor = 0);

  // Streams every logged record not covered by `have`, in log order.
  size_t StreamMissing(const DotFrontier& have, const CommitLog::ReplayFn& fn);

  // Reserves sequence numbers: persists floor + slack when `seq_floor` is
  // within `floor_refresh` of the persisted reservation.
  void NoteSeqFloor(uint64_t seq_floor);
  uint64_t persisted_seq_floor() const { return persisted_seq_floor_; }

  // Execution frontier recorded by the snapshot Open() loaded (0 when there
  // was none). The recovered store already reflects everything below it.
  uint64_t persisted_exec_floor() const { return persisted_exec_floor_; }

  const DotFrontier& frontier() const { return frontier_; }
  uint64_t applied_count() const { return applied_count_; }
  CommitLog& log() { return log_; }
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  Options opts_;
  CommitLog log_;
  DotFrontier frontier_;
  SnapshotMeta snap_;
  bool have_snapshot_ = false;
  bool had_state_ = false;
  uint64_t applied_count_ = 0;
  uint64_t appends_since_snapshot_ = 0;
  uint64_t persisted_seq_floor_ = 0;
  uint64_t persisted_exec_floor_ = 0;
};

}  // namespace dur

#endif  // SRC_DUR_SHARD_DURABILITY_H_
