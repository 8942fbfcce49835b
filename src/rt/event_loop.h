// Minimal epoll-based event loop: non-blocking fd callbacks + monotonic timers.
//
// Single-threaded by design (one loop per replica); only Stop() may be called from
// another thread (it wakes the loop through an eventfd).
#ifndef SRC_RT_EVENT_LOOP_H_
#define SRC_RT_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <vector>

#include "src/common/types.h"

namespace rt {

class EventLoop {
 public:
  using FdCallback = std::function<void(uint32_t events)>;
  using TimerCallback = std::function<void()>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Registers fd for the given epoll events (EPOLLIN/EPOLLOUT). Replaces any previous
  // registration.
  void WatchFd(int fd, uint32_t events, FdCallback cb);
  void UnwatchFd(int fd);
  void ModifyFd(int fd, uint32_t events);

  // Monotonic clock, microseconds.
  static common::Time NowUs();

  // One-shot timer.
  uint64_t AddTimer(common::Duration delay, TimerCallback cb);

  void Run();   // until Stop()
  void Stop();  // thread-safe; a Stop() before Run() makes Run() return at once

 private:
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stopped_{false};

  struct Watch {
    FdCallback cb;
    uint32_t events = 0;
  };
  std::map<int, Watch> watches_;

  struct Timer {
    common::Time deadline;
    uint64_t id;
    TimerCallback cb;
    bool operator>(const Timer& o) const {
      if (deadline != o.deadline) {
        return deadline > o.deadline;
      }
      return id > o.id;
    }
  };
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers_;
  uint64_t next_timer_id_ = 1;
};

}  // namespace rt

#endif  // SRC_RT_EVENT_LOOP_H_
