// Process and thread accounting read from the kernel, not from the replicas:
// CPU clocks, voluntary context switches, resident memory, socket byte
// counters and file sizes.
#ifndef ATLASBENCH_PROC_STATS_H_
#define ATLASBENCH_PROC_STATS_H_

#include <pthread.h>
#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace atlasbench {

pid_t CurrentTid();

// CPU seconds consumed by the whole process / the calling thread / thread t.
double ProcessCpuSec();
double SelfCpuSec();
double ThreadCpuSec(pthread_t t);

// Voluntary context switches summed over every thread of the process except
// the listed ones (each read from /proc/self/task/<tid>/status).
uint64_t VoluntarySwitchesExcept(const std::vector<pid_t>& excluded);

// Resident set size of the process, in MiB.
double RssMb();

// Payload bytes sent so far on the process's TCP sockets, except the listed
// descriptors: tcpi_bytes_sent of TCP_INFO, summed over /proc/self/fd. Only
// stream data counts, not headers, acknowledgements or eventfd writes.
uint64_t TcpBytesSentExcept(const std::vector<int>& excluded);

// Total bytes of the regular files under `path` whose name starts with
// `prefix` (0 when `path` does not exist).
uint64_t FileBytes(const std::string& path, const std::string& prefix = "");

}  // namespace atlasbench

#endif  // ATLASBENCH_PROC_STATS_H_
