// Traced direct-drive run: the workload's replicas on the deterministic
// simulator with zero message delay, with spans around every call into a layer.
//
// The same smr::Deployment assembly the TCP runtime uses (threaded = false)
// is wrapped per replica by a tracing smr::Engine decorator and a tracing
// smr::Context. Every delivered message round-trips through msg::Encode /
// msg::Decode, as it would on a socket. Spans (name, start, end, parent, and
// the (client, seq), dot or timer token they serve) sit around Submit,
// OnMessage, OnTimer, the codec calls and Deployment::ApplyExecuted. They are
// kept in memory; a layer's self time is its span's duration minus the time
// its child spans cover.
//
// The run is made six times from the same seed, alternating spans off and
// on: the difference of the median wall times is the tracing overhead, and
// every count (messages per kind, submitted batches, fast paths, executed
// commands, digests) must repeat exactly across all six.
#ifndef ATLASBENCH_TRACED_RUN_H_
#define ATLASBENCH_TRACED_RUN_H_

#include <cstdint>
#include <map>
#include <string>

#include "workloads.h"

namespace atlasbench {

struct TraceResult {
  bool ok = false;
  std::string error;  // why ok is false
  uint64_t ops = 0;
  // Self time per client op, by layer: core.submit, core.on_message,
  // core.on_timer, smr.apply, codec.encode, codec.decode.
  std::map<std::string, double> self_us_per_op;
  double total_us_per_op = 0;  // every span's self time, per op
  double overhead_pct = 0;     // wall time with spans on vs off
  std::map<std::string, double> msgs_per_op;  // by message kind
  double ops_per_batch = 0;    // client ops / engine-level submissions
  double fast_path_ratio = 0;  // fast / (fast + slow) commits
  uint64_t spans = 0;
  uint64_t spans_written = 0;
};

// Runs `ops` open-loop arrivals at the workload's rate (simulated time).
// Durable workloads keep their logs under `data_root`; the span JSON goes to
// `json_path`.
TraceResult RunTraced(const WorkloadSpec& spec, uint64_t seed, uint64_t ops,
                      const std::string& data_root, const std::string& json_path);

}  // namespace atlasbench

#endif  // ATLASBENCH_TRACED_RUN_H_
