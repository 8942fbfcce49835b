// Durability tier (src/dur) + restart-from-disk pins.
//
// Layer by layer: the DotFrontier dedup set, the CRC-framed segmented commit
// log (replay determinism, torn-tail truncation, corrupt-frame poisoning),
// snapshot round-trips through the redesigned smr::StateMachine seam for BOTH
// backends (hash-map KvStore and ordered-map OrderedKvs), the per-shard
// ShardDurability facade (snapshot + log-tail recovery, duplicate admission),
// and finally whole-replica pins: a Deployment rebuilt over the same data_dir
// recovers byte-equal store digests, and a simulated cluster that crashes a
// site and restarts it from disk converges to the fault-free control digests
// for all three leaderless protocols.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/dur/commit_log.h"
#include "src/dur/frontier.h"
#include "src/dur/shard_durability.h"
#include "src/kvs/kvs.h"
#include "src/kvs/ordered_kvs.h"
#include "src/sim/simulator.h"
#include "src/smr/command.h"
#include "src/smr/deployment.h"

namespace dur {
namespace {

namespace fs = std::filesystem;

// Fresh per-test scratch directory, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& tag) {
    path = (fs::temp_directory_path() /
            ("atlas_dur_" + tag + "_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

common::Dot D(common::ProcessId p, uint64_t seq) { return common::Dot{p, seq}; }

// ---------------------------------------------------------------------------
// DotFrontier

TEST(DotFrontierTest, InsertCoversAndFiltersDuplicates) {
  DotFrontier f;
  EXPECT_TRUE(f.Empty());
  EXPECT_TRUE(f.Insert(D(0, 1)));
  EXPECT_FALSE(f.Insert(D(0, 1)));
  EXPECT_TRUE(f.Covers(D(0, 1)));
  EXPECT_FALSE(f.Covers(D(0, 2)));
  EXPECT_FALSE(f.Covers(D(1, 1)));
}

TEST(DotFrontierTest, ContiguousExtrasCompactIntoFloor) {
  DotFrontier f;
  // Out of order: 3, 1, 2 — once 1..3 are contiguous the floor absorbs them.
  EXPECT_TRUE(f.Insert(D(2, 3)));
  EXPECT_EQ(f.floor(2), 0u);
  EXPECT_TRUE(f.Insert(D(2, 1)));
  EXPECT_TRUE(f.Insert(D(2, 2)));
  EXPECT_EQ(f.floor(2), 3u);
  EXPECT_EQ(f.extras(), 0u);
  for (uint64_t s = 1; s <= 3; s++) {
    EXPECT_TRUE(f.Covers(D(2, s)));
  }
}

TEST(DotFrontierTest, StridedDotsStayInExtras) {
  // Mencius-style strides (proc p owns slots p, p+n, p+2n, ...): gaps never
  // close, so the overlay must hold them without floor movement.
  DotFrontier f;
  for (uint64_t s = 2; s <= 20; s += 3) {
    EXPECT_TRUE(f.Insert(D(1, s)));
  }
  EXPECT_EQ(f.floor(1), 0u);
  EXPECT_TRUE(f.Covers(D(1, 14)));
  EXPECT_FALSE(f.Covers(D(1, 15)));
}

TEST(DotFrontierTest, EncodeDecodeRoundTrip) {
  DotFrontier f;
  f.Insert(D(0, 1));
  f.Insert(D(0, 2));
  f.Insert(D(3, 7));  // extra above floor 0
  codec::Writer w;
  f.EncodeTo(w);

  DotFrontier g;
  codec::Reader r(w.buffer().data(), w.size());
  ASSERT_TRUE(g.DecodeFrom(r));
  EXPECT_EQ(g.floor(0), 2u);
  EXPECT_TRUE(g.Covers(D(3, 7)));
  EXPECT_FALSE(g.Covers(D(3, 6)));

  DotFrontier bad;
  const uint8_t garbage[] = {0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
  codec::Reader br(garbage, sizeof(garbage));
  EXPECT_FALSE(bad.DecodeFrom(br));
}

// ---------------------------------------------------------------------------
// CommitLog

std::vector<std::pair<common::Dot, smr::Command>> ScriptedRecords(size_t n) {
  std::vector<std::pair<common::Dot, smr::Command>> recs;
  for (size_t i = 1; i <= n; i++) {
    recs.emplace_back(D(i % 3, (i / 3) + 1),
                      smr::MakePut(/*client=*/7, /*seq=*/i,
                                   "k" + std::to_string(i % 11),
                                   "value-" + std::to_string(i)));
  }
  return recs;
}

size_t ReplayAll(CommitLog& log,
                 std::vector<std::pair<common::Dot, smr::Command>>& out) {
  out.clear();
  return log.Replay([&](const common::Dot& d, const smr::Command& c) {
    out.emplace_back(d, c);
  });
}

TEST(CommitLogTest, ReplayIsDeterministicAcrossReopenAndSegmentRolls) {
  TempDir dir("log_reopen");
  CommitLog::Options opts;
  opts.fsync_mode = FsyncMode::kNone;
  opts.segment_bytes = 256;  // force multi-segment rolls with tiny records
  auto recs = ScriptedRecords(64);
  {
    CommitLog log(dir.path, opts);
    ASSERT_TRUE(log.Open());
    for (auto& [d, c] : recs) {
      log.Append(d, c);
    }
    std::vector<std::pair<common::Dot, smr::Command>> got;
    ASSERT_EQ(ReplayAll(log, got), recs.size());
    EXPECT_GT(log.position().segment, 1u);  // the roll actually happened
  }
  // A fresh incarnation over the same directory replays the same sequence.
  CommitLog log(dir.path, opts);
  ASSERT_TRUE(log.Open());
  std::vector<std::pair<common::Dot, smr::Command>> got;
  ASSERT_EQ(ReplayAll(log, got), recs.size());
  for (size_t i = 0; i < recs.size(); i++) {
    EXPECT_EQ(got[i].first, recs[i].first) << "dot mismatch at " << i;
    EXPECT_EQ(got[i].second.key, recs[i].second.key);
    EXPECT_EQ(got[i].second.seq, recs[i].second.seq);
  }
}

// Kill-9 mid-write leaves a torn frame at the tail; Open() must truncate it
// and resume appends at the last clean boundary.
TEST(CommitLogTest, TornTailIsTruncatedOnReopen) {
  TempDir dir("log_torn");
  CommitLog::Options opts;
  opts.fsync_mode = FsyncMode::kNone;
  auto recs = ScriptedRecords(8);
  std::string seg_path;
  {
    CommitLog log(dir.path, opts);
    ASSERT_TRUE(log.Open());
    for (auto& [d, c] : recs) {
      log.Append(d, c);
    }
    log.Sync();
    seg_path = dir.path + "/log-00000001.seg";
  }
  // Tear the last record: chop a few bytes off the file tail.
  uint64_t full = fs::file_size(seg_path);
  fs::resize_file(seg_path, full - 5);

  CommitLog log(dir.path, opts);
  ASSERT_TRUE(log.Open());
  std::vector<std::pair<common::Dot, smr::Command>> got;
  EXPECT_EQ(ReplayAll(log, got), recs.size() - 1);

  // Appends resume cleanly after the truncated tail.
  log.Append(D(2, 99), smr::MakePut(7, 99, "post-tear", "v"));
  EXPECT_EQ(ReplayAll(log, got), recs.size());
  EXPECT_EQ(got.back().second.key, "post-tear");
}

// A corrupt byte mid-log (bit rot, not a torn tail) fails the frame CRC and
// poisons the rest of the log: replay stops rather than applying garbage.
TEST(CommitLogTest, CorruptFrameStopsReplayAtCrcBoundary) {
  TempDir dir("log_corrupt");
  CommitLog::Options opts;
  opts.fsync_mode = FsyncMode::kNone;
  auto recs = ScriptedRecords(8);
  std::string seg_path = dir.path + "/log-00000001.seg";
  {
    CommitLog log(dir.path, opts);
    ASSERT_TRUE(log.Open());
    for (auto& [d, c] : recs) {
      log.Append(d, c);
    }
    log.Sync();
  }
  // Flip one payload byte somewhere inside the third record's frame.
  std::fstream f(seg_path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  uint64_t size = fs::file_size(seg_path);
  uint64_t target = (size / recs.size()) * 2 + 10;  // inside record ~3
  f.seekg(static_cast<std::streamoff>(target));
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(target));
  f.write(&b, 1);
  f.close();

  CommitLog log(dir.path, opts);
  ASSERT_TRUE(log.Open());
  std::vector<std::pair<common::Dot, smr::Command>> got;
  size_t delivered = ReplayAll(log, got);
  EXPECT_LT(delivered, recs.size());
  for (size_t i = 0; i < delivered; i++) {
    EXPECT_EQ(got[i].second.seq, recs[i].second.seq);  // clean prefix only
  }
}

// ---------------------------------------------------------------------------
// Snapshot round-trips through the StateMachine seam, both backends.

template <class Store>
void FillStore(Store& s) {
  for (int i = 0; i < 50; i++) {
    s.Apply(smr::MakePut(1, i + 1, "key-" + std::to_string(i),
                         "val-" + std::to_string(i * 17)));
  }
  s.Apply(smr::MakeRmw(1, 51, "key-7", "-appended"));
}

template <class Store>
void ExpectSnapshotRoundTrip() {
  Store original;
  FillStore(original);
  codec::Writer w;
  original.SnapshotTo(w);

  Store restored;
  codec::Reader r(w.buffer().data(), w.size());
  ASSERT_TRUE(restored.RestoreFrom(r));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.StateDigest(), original.StateDigest());
  EXPECT_EQ(restored.Apply(smr::MakeGet(1, 100, "key-7")),
            original.Apply(smr::MakeGet(1, 100, "key-7")));

  // Malformed input must report failure, not crash.
  Store trash;
  const uint8_t garbage[] = {0x9c, 0xff, 0x01};
  codec::Reader bad(garbage, sizeof(garbage));
  EXPECT_FALSE(trash.RestoreFrom(bad));
}

TEST(SnapshotTest, KvStoreRoundTripPreservesDigest) {
  ExpectSnapshotRoundTrip<kvs::KvStore>();
}

TEST(SnapshotTest, OrderedKvsRoundTripPreservesDigest) {
  ExpectSnapshotRoundTrip<kvs::OrderedKvs>();
}

TEST(SnapshotTest, OrderedKvsRoundTripPreservesRangeReads) {
  kvs::OrderedKvs original;
  FillStore(original);
  codec::Writer w;
  original.SnapshotTo(w);
  kvs::OrderedKvs restored;
  codec::Reader r(w.buffer().data(), w.size());
  ASSERT_TRUE(restored.RestoreFrom(r));
  smr::Command range = smr::MakeRange(1, 200, "key-1", "key-3");
  EXPECT_EQ(restored.Apply(range), original.Apply(range));
  EXPECT_NE(restored.Apply(range), "");
}

// ---------------------------------------------------------------------------
// ShardDurability: snapshot + log-tail recovery, duplicate admission.

template <class Store>
void ExpectShardRecovery(const std::string& tag) {
  TempDir dir(tag);
  ShardDurability::Options opts;
  opts.log.fsync_mode = FsyncMode::kNone;
  opts.snapshot_every = 0;  // explicit snapshots only: we want a real tail
  uint64_t live_digest = 0;
  uint64_t live_applied = 0;
  {
    Store store;
    ShardDurability d(dir.path, opts);
    ASSERT_TRUE(d.Open());
    EXPECT_FALSE(d.had_state());
    // 30 admitted+applied commands, snapshot at 20, then a 10-record tail.
    for (uint64_t i = 1; i <= 30; i++) {
      smr::Command cmd =
          smr::MakePut(3, i, "k" + std::to_string(i % 13), "v" + std::to_string(i));
      ASSERT_TRUE(d.Admit(D(i % 3, (i / 3) + 1), cmd));
      store.Apply(cmd);
      if (i == 20) {
        ASSERT_TRUE(d.WriteSnapshot(store));
      }
    }
    live_digest = store.StateDigest();
    live_applied = d.applied_count();
    d.log().Sync();
  }

  Store recovered;
  ShardDurability d(dir.path, opts);
  ASSERT_TRUE(d.Open());
  EXPECT_TRUE(d.had_state());
  EXPECT_EQ(d.Recover(recovered), live_applied);
  EXPECT_EQ(recovered.StateDigest(), live_digest);
  // Every executed dot is remembered: re-delivery is filtered...
  for (uint64_t i = 1; i <= 30; i++) {
    EXPECT_FALSE(d.Admit(D(i % 3, (i / 3) + 1),
                         smr::MakePut(3, i, "k", "v")))
        << "dot " << i << " re-admitted after recovery";
  }
  // ...while genuinely new dots pass.
  EXPECT_TRUE(d.Admit(D(0, 1000), smr::MakePut(3, 31, "fresh", "v")));
}

TEST(ShardDurabilityTest, KvStoreRecoversSnapshotPlusLogTail) {
  ExpectShardRecovery<kvs::KvStore>("shard_kv");
}

TEST(ShardDurabilityTest, OrderedKvsRecoversSnapshotPlusLogTail) {
  ExpectShardRecovery<kvs::OrderedKvs>("shard_okv");
}

TEST(ShardDurabilityTest, SeqFloorReservationSurvivesRestart) {
  TempDir dir("shard_floor");
  ShardDurability::Options opts;
  opts.log.fsync_mode = FsyncMode::kNone;
  opts.floor_slack = 100;
  opts.floor_refresh = 50;
  {
    ShardDurability d(dir.path, opts);
    ASSERT_TRUE(d.Open());
    d.NoteSeqFloor(10);  // first note always persists: reserve 110
    EXPECT_EQ(d.persisted_seq_floor(), 110u);
    d.NoteSeqFloor(40);  // still > refresh distance away: no rewrite
    EXPECT_EQ(d.persisted_seq_floor(), 110u);
    d.NoteSeqFloor(70);  // within 50 of 110: re-reserve at 170
    EXPECT_EQ(d.persisted_seq_floor(), 170u);
  }
  ShardDurability d(dir.path, opts);
  ASSERT_TRUE(d.Open());
  EXPECT_TRUE(d.had_state());
  EXPECT_EQ(d.persisted_seq_floor(), 170u);
}

// ---------------------------------------------------------------------------
// Deployment-level restart-from-disk.

// Drives the same fixed script the rt tests use through a 3-site simulated
// cluster of Deployments with persistence on, then rebuilds each Deployment
// over its data_dir and expects byte-equal per-shard digests with no traffic.
void ExpectDeploymentRestartFromDisk(
    std::function<std::unique_ptr<smr::StateMachine>()> factory,
    const std::string& tag) {
  TempDir dir(tag);
  constexpr uint32_t kNodes = 3;
  constexpr uint32_t kPartitions = 2;
  auto make_opts = [&](uint32_t site) {
    smr::DeploymentOptions d;
    d.n = kNodes;
    d.f = 1;
    d.partitions = kPartitions;
    d.state_machine_factory = factory;
    d.data_dir = dir.path + "/site-" + std::to_string(site);
    d.snapshot_every = 16;  // small: exercise snapshot + tail, not just replay
    d.fsync_mode = FsyncMode::kNone;
    return d;
  };

  std::vector<uint64_t> live_digests;
  std::vector<uint64_t> live_counts;
  {
    sim::Simulator::Options sopts;
    sopts.seed = 11;
    sim::Simulator sim(
        std::make_unique<sim::UniformLatency>(5 * common::kMillisecond,
                                              common::kMillisecond),
        sopts);
    std::vector<std::unique_ptr<smr::Deployment>> replicas;
    for (uint32_t i = 0; i < kNodes; i++) {
      replicas.push_back(std::make_unique<smr::Deployment>(make_opts(i)));
      EXPECT_FALSE(replicas.back()->HasRecoveredState());
      sim.AddEngine(&replicas[i]->engine());
    }
    sim.SetExecutedHandler([&](common::ProcessId p, const common::Dot& dot,
                               const smr::Command& cmd) {
      replicas[p]->ApplyExecuted(
          dot, cmd, [](uint32_t, const smr::Command&, std::string&&) {});
    });
    sim.Start();
    for (uint64_t c = 1; c <= 4; c++) {
      for (uint64_t i = 1; i <= 20; i++) {
        std::string key = "c" + std::to_string(c) + "-k" + std::to_string(i % 5);
        sim.Submit(static_cast<common::ProcessId>(c % kNodes),
                   (i % 2 == 1)
                       ? smr::MakePut(c, i, key, "v" + std::to_string(i))
                       : smr::MakeRmw(c, i, key, "v" + std::to_string(i)));
      }
    }
    sim.RunUntilIdle();
    for (uint32_t p = 0; p < kNodes; p++) {
      for (uint32_t s = 0; s < kPartitions; s++) {
        live_digests.push_back(replicas[p]->store(s).StateDigest());
        live_counts.push_back(replicas[p]->applied_count(s));
      }
    }
  }  // every Deployment destroyed: only the data_dirs survive

  for (uint32_t p = 0; p < kNodes; p++) {
    smr::Deployment recovered(make_opts(p));
    ASSERT_TRUE(recovered.HasRecoveredState());
    for (uint32_t s = 0; s < kPartitions; s++) {
      EXPECT_EQ(recovered.store(s).StateDigest(),
                live_digests[p * kPartitions + s])
          << "site " << p << " shard " << s << " digest drifted on recovery";
      EXPECT_EQ(recovered.applied_count(s), live_counts[p * kPartitions + s]);
    }
    // The catch-up advert matches the recovered frontier (what the TCP node
    // sends to peers on restart).
    ASSERT_EQ(recovered.catchup_advert().shards.size(), kPartitions);
    for (uint32_t s = 0; s < kPartitions; s++) {
      EXPECT_FALSE(recovered.catchup_advert().shards[s].frontier.empty());
    }
  }
}

TEST(DeploymentDurabilityTest, KvStoreRestartFromDiskMatchesLiveState) {
  ExpectDeploymentRestartFromDisk(nullptr, "dep_kv");
}

TEST(DeploymentDurabilityTest, OrderedKvsRestartFromDiskMatchesLiveState) {
  ExpectDeploymentRestartFromDisk(
      []() { return std::make_unique<kvs::OrderedKvs>(); }, "dep_okv");
}

// ---------------------------------------------------------------------------
// Whole-cluster pin: crash a site mid-run, restart it from disk, and the
// cluster converges to the fault-free control digests — per protocol.

struct ClusterDigests {
  std::vector<uint64_t> per_site_shard;  // [site * P + shard]
};

// Runs the two-phase script; when `crash` the victim site goes down between
// the phases (traffic quiesced while down — commits it would miss are covered
// by the TCP catch-up tests) and restarts from its data_dir.
ClusterDigests RunSimCluster(smr::Protocol protocol, bool crash,
                             const std::string& dir) {
  constexpr uint32_t kNodes = 3;
  constexpr uint32_t kPartitions = 2;
  constexpr common::ProcessId kVictim = 0;
  auto make_opts = [&](uint32_t site) {
    smr::DeploymentOptions d;
    d.protocol = protocol;
    d.n = kNodes;
    d.f = 1;
    d.partitions = kPartitions;
    if (!dir.empty()) {
      d.data_dir = dir + "/site-" + std::to_string(site);
      d.snapshot_every = 8;
      d.fsync_mode = FsyncMode::kNone;
    }
    return d;
  };

  sim::Simulator::Options sopts;
  sopts.seed = 23;
  sim::Simulator sim(
      std::make_unique<sim::UniformLatency>(5 * common::kMillisecond,
                                            common::kMillisecond),
      sopts);
  std::vector<std::unique_ptr<smr::Deployment>> replicas;
  for (uint32_t i = 0; i < kNodes; i++) {
    replicas.push_back(std::make_unique<smr::Deployment>(make_opts(i)));
    sim.AddEngine(&replicas[i]->engine());
  }
  sim.SetExecutedHandler([&](common::ProcessId p, const common::Dot& dot,
                             const smr::Command& cmd) {
    replicas[p]->ApplyExecuted(
        dot, cmd, [](uint32_t, const smr::Command&, std::string&&) {});
  });
  sim.Start();

  uint64_t seq = 0;
  auto submit_phase = [&](uint64_t ops_per_client) {
    for (uint64_t c = 1; c <= 3; c++) {
      for (uint64_t i = 1; i <= ops_per_client; i++) {
        seq++;
        std::string key = "c" + std::to_string(c) + "-k" + std::to_string(seq % 4);
        sim.Submit(static_cast<common::ProcessId>(c % kNodes),
                   smr::MakePut(c, seq, key, "v" + std::to_string(seq)));
      }
    }
    sim.RunUntilIdle();
  };

  submit_phase(10);

  if (crash) {
    sim.Crash(kVictim);
    // Quiesced downtime, then restart-from-disk: destroy the dead incarnation
    // (flushing its buffered log tail), build a fresh Deployment over the same
    // data_dir — which recovers the stores — and rebind the new incarnation.
    replicas[kVictim].reset();
    auto fresh = std::make_unique<smr::Deployment>(make_opts(kVictim));
    EXPECT_TRUE(fresh->HasRecoveredState());
    std::vector<smr::RestartHint> hints = fresh->RecoveredRestartHints();
    sim.Restart(kVictim, &fresh->engine());
    replicas[kVictim] = std::move(fresh);
    replicas[kVictim]->ApplyRestartHints(hints);
    for (uint32_t p = 0; p < kNodes; p++) {
      if (p != kVictim) {
        replicas[p]->NotifyRestore(kVictim, hints);
      }
    }
  }

  submit_phase(10);

  ClusterDigests out;
  for (uint32_t p = 0; p < kNodes; p++) {
    for (uint32_t s = 0; s < kPartitions; s++) {
      out.per_site_shard.push_back(replicas[p]->store(s).StateDigest());
    }
  }
  return out;
}

void ExpectRestartFromDiskMatchesControl(smr::Protocol protocol,
                                         const std::string& tag) {
  TempDir dir(tag);
  ClusterDigests control = RunSimCluster(protocol, /*crash=*/false, "");
  ClusterDigests crashed = RunSimCluster(protocol, /*crash=*/true, dir.path);
  ASSERT_EQ(crashed.per_site_shard.size(), control.per_site_shard.size());
  // All sites converge (including the restarted one), and the converged state
  // is the fault-free control state.
  EXPECT_EQ(crashed.per_site_shard, control.per_site_shard);
}

TEST(RestartFromDiskTest, AtlasMatchesFaultFreeControl) {
  ExpectRestartFromDiskMatchesControl(smr::Protocol::kAtlas, "ctl_atlas");
}

TEST(RestartFromDiskTest, EPaxosMatchesFaultFreeControl) {
  ExpectRestartFromDiskMatchesControl(smr::Protocol::kEPaxos, "ctl_epaxos");
}

TEST(RestartFromDiskTest, MenciusMatchesFaultFreeControl) {
  ExpectRestartFromDiskMatchesControl(smr::Protocol::kMencius, "ctl_mencius");
}

}  // namespace
}  // namespace dur
