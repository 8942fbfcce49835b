#include "proc_stats.h"

#include <dirent.h>
#include <linux/tcp.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

namespace atlasbench {

namespace {

double ClockSec(clockid_t clock) {
  struct timespec ts;
  if (clock_gettime(clock, &ts) != 0) {
    return 0;
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Value of the first "<key>:" line of a /proc status file, or -1.
long long StatusField(const char* path, const char* key) {
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    return -1;
  }
  char line[256];
  size_t key_len = std::strlen(key);
  long long value = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      value = std::atoll(line + key_len + 1);
      break;
    }
  }
  std::fclose(f);
  return value;
}

}  // namespace

pid_t CurrentTid() { return static_cast<pid_t>(syscall(SYS_gettid)); }

double ProcessCpuSec() { return ClockSec(CLOCK_PROCESS_CPUTIME_ID); }

double SelfCpuSec() { return ClockSec(CLOCK_THREAD_CPUTIME_ID); }

double ThreadCpuSec(pthread_t t) {
  clockid_t clock;
  if (pthread_getcpuclockid(t, &clock) != 0) {
    return 0;
  }
  return ClockSec(clock);
}

uint64_t VoluntarySwitchesExcept(const std::vector<pid_t>& excluded) {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return 0;
  }
  uint64_t total = 0;
  while (struct dirent* e = readdir(dir)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') {
      continue;
    }
    pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
    if (std::find(excluded.begin(), excluded.end(), tid) != excluded.end()) {
      continue;
    }
    char path[64];
    std::snprintf(path, sizeof(path), "/proc/self/task/%d/status", tid);
    long long v = StatusField(path, "voluntary_ctxt_switches");
    if (v > 0) {
      total += static_cast<uint64_t>(v);
    }
  }
  closedir(dir);
  return total;
}

double RssMb() {
  long long kb = StatusField("/proc/self/status", "VmRSS");
  return kb > 0 ? static_cast<double>(kb) / 1024.0 : 0;
}

uint64_t TcpBytesSentExcept(const std::vector<int>& excluded) {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) {
    return 0;
  }
  uint64_t total = 0;
  while (struct dirent* e = readdir(dir)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') {
      continue;
    }
    int fd = std::atoi(e->d_name);
    struct stat st;
    if (std::find(excluded.begin(), excluded.end(), fd) != excluded.end() ||
        fstat(fd, &st) != 0 || !S_ISSOCK(st.st_mode)) {
      continue;
    }
    // Fails on sockets that are not TCP; a listener reports 0.
    struct tcp_info info;
    socklen_t len = sizeof(info);
    if (getsockopt(fd, IPPROTO_TCP, TCP_INFO, &info, &len) == 0 &&
        len >= offsetof(struct tcp_info, tcpi_bytes_sent) + sizeof(info.tcpi_bytes_sent)) {
      total += info.tcpi_bytes_sent;
    }
  }
  closedir(dir);
  return total;
}

uint64_t FileBytes(const std::string& path, const std::string& prefix) {
  std::error_code ec;
  uint64_t total = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(path, ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec) && it->path().filename().string().rfind(prefix, 0) == 0) {
      total += it->file_size(ec);
    }
  }
  return total;
}

}  // namespace atlasbench
