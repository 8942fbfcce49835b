// Load generator: one thread driving every client connection through ppoll.
//
// Each connection multiplexes many logical clients. Every logical client has
// its own key (micro workloads) and its own seeded Rng, so the command a
// (client, seq) pair carries depends only on the seed. The generator sleeps
// in ppoll until the next scheduled send or reply and never spins.
//
// Phases:
//   * open loop: Poisson arrivals at a fixed rate, logical clients visited
//     round-robin, at most kOpenMaxOutstanding in flight; latency is timed
//     from the *scheduled* send time, so a stall also charges the requests
//     queued behind it;
//   * closed loop: W logical clients per connection, each with one request
//     outstanding; latency is timed from the actual send.
//
// Every reply is matched to its outstanding (client, seq): a reply for an
// unknown pair (duplicate or stray), a dropped reply, a wrong value, or a
// dead socket (EPIPE/ECONNRESET) is counted, never fatal.
#ifndef ATLASBENCH_LOADGEN_H_
#define ATLASBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/codec/codec.h"
#include "src/common/rng.h"
#include "src/wl/workload.h"
#include "workloads.h"

namespace atlasbench {

enum class Phase : uint8_t { kSetup, kWarmup, kOpen, kClosed };

int64_t NowNs();

class LoadGen {
 public:
  // The generator is borrowed; `seed` fixes every command and arrival time.
  LoadGen(const WorkloadSpec& spec, wl::Workload* gen, uint64_t seed);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  // One blocking connect per port (client hello included), then non-blocking.
  bool Connect(const std::vector<uint16_t>& ports);

  // Sends one command on connection 0 and waits for its reply.
  bool Probe(double timeout_sec);
  // One open-loop segment of `seconds`. Successive calls for a phase are its
  // successive segments; the Poisson schedule restarts in each, which leaves
  // it Poisson.
  void RunOpen(Phase phase, double seconds);
  // `segments` closed-loop segments of `seg_seconds` each, back to back.
  void RunClosed(uint32_t segments, double seg_seconds);
  // Waits for every outstanding reply, at most max_sec. True when none is left.
  bool Drain(double max_sec);

  // Reply latencies in ns, per segment of a phase: open-loop commands by the
  // segment they were scheduled in, closed-loop ones by the segment their
  // reply arrived in (replies after the last segment count toward it).
  const std::vector<std::vector<int64_t>>& latencies(Phase p) const {
    return lat_[static_cast<size_t>(p)];
  }
  // Commands sent, per segment of a phase.
  const std::vector<uint64_t>& sent(Phase p) const {
    return sent_[static_cast<size_t>(p)];
  }
  // Closed-loop replies that arrived inside each segment.
  const std::vector<uint64_t>& closed_completed() const { return closed_completed_; }
  // How late each open-phase command was sent relative to its schedule, ns.
  const std::vector<int64_t>& lag() const { return lag_; }

  uint64_t attempted() const { return attempted_; }
  uint64_t answered() const { return answered_; }
  uint64_t outstanding() const { return pending_.size(); }
  uint64_t dropped() const { return dropped_; }
  uint64_t io_errors() const { return io_errors_; }
  uint64_t unknown_replies() const { return unknown_replies_; }
  uint64_t bad_values() const { return bad_values_; }
  // Times an open loop waited at kOpenMaxOutstanding with an arrival due.
  uint64_t held() const { return held_; }
  // The descriptors of the live client connections.
  std::vector<int> fds() const;

 private:
  struct Conn {
    int fd = -1;
    std::vector<uint8_t> in;
    std::vector<uint8_t> out;
    size_t out_off = 0;
  };
  struct ClientState {
    uint64_t next_seq = 1;
    common::Rng rng{0};
  };
  struct OpRecord {
    int64_t t_ns;  // scheduled (open) or actual (closed) send time
    uint32_t segment;
    Phase phase;
    bool is_get;
  };

  // Opens segment `index` of `phase`'s per-segment series.
  void StartSegment(Phase phase, size_t index);
  // Sends the next command of `client` on its connection.
  void Send(uint64_t client, int64_t t_ns, Phase phase, uint32_t segment);
  void FlushAll();
  // Sleeps until `deadline_ns` or until a socket is ready; handles replies.
  void PollUntil(int64_t deadline_ns);
  void ReadConn(uint32_t c);
  void OnReply(uint64_t client, uint64_t seq, const std::string& value,
               bool dropped);
  void KillConn(uint32_t c);

  const WorkloadSpec& spec_;
  wl::Workload* gen_;
  common::Rng arrivals_;
  std::vector<Conn> conns_;
  std::vector<ClientState> clients_;
  std::unordered_map<uint64_t, OpRecord> pending_;
  codec::Writer scratch_;
  std::string value_;

  std::vector<std::vector<int64_t>> lat_[4];
  std::vector<uint64_t> sent_[4];
  std::vector<int64_t> lag_;
  uint64_t next_open_ = 0;  // round-robin position of the open-loop schedule
  bool closed_running_ = false;
  int64_t closed_start_ns_ = 0;
  int64_t closed_seg_ns_ = 1;
  std::vector<uint64_t> closed_completed_;

  uint64_t attempted_ = 0;
  uint64_t answered_ = 0;
  uint64_t dropped_ = 0;
  uint64_t io_errors_ = 0;
  uint64_t unknown_replies_ = 0;
  uint64_t bad_values_ = 0;
  uint64_t held_ = 0;
};

}  // namespace atlasbench

#endif  // ATLASBENCH_LOADGEN_H_
