#include "src/rt/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <time.h>
#include <unistd.h>

#include "src/common/check.h"

namespace rt {

EventLoop::EventLoop() {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  CHECK_GE(epoll_fd_, 0);
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  CHECK_GE(wake_fd_, 0);
  // Stop() sets the flag before it writes the eventfd, so a woken loop sees it.
  WatchFd(wake_fd_, EPOLLIN, [](uint32_t) {});
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) {
    close(wake_fd_);
  }
  if (epoll_fd_ >= 0) {
    close(epoll_fd_);
  }
}

common::Time EventLoop::NowUs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<common::Time>(ts.tv_sec) * common::kSecond + ts.tv_nsec / 1000;
}

void EventLoop::WatchFd(int fd, uint32_t events, FdCallback cb) {
  struct epoll_event ev = {};
  ev.events = events;
  ev.data.fd = fd;
  bool existed = watches_.count(fd) > 0;
  watches_[fd] = Watch{std::move(cb), events};
  int rc = epoll_ctl(epoll_fd_, existed ? EPOLL_CTL_MOD : EPOLL_CTL_ADD, fd, &ev);
  CHECK_EQ(rc, 0);
}

void EventLoop::ModifyFd(int fd, uint32_t events) {
  auto it = watches_.find(fd);
  CHECK(it != watches_.end());
  if (it->second.events == events) {
    return;
  }
  WatchFd(fd, events, it->second.cb);
}

void EventLoop::UnwatchFd(int fd) {
  if (watches_.erase(fd) > 0) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  }
}

uint64_t EventLoop::AddTimer(common::Duration delay, TimerCallback cb) {
  uint64_t id = next_timer_id_++;
  timers_.push(Timer{NowUs() + delay, id, std::move(cb)});
  return id;
}

void EventLoop::Run() {
  std::vector<struct epoll_event> events(64);
  while (!stopped_.load(std::memory_order_acquire)) {
    int timeout_ms = -1;
    common::Time now = NowUs();
    while (!timers_.empty() && timers_.top().deadline <= now) {
      Timer t = timers_.top();
      timers_.pop();
      t.cb();
      now = NowUs();
    }
    if (!timers_.empty()) {
      timeout_ms = static_cast<int>((timers_.top().deadline - now) / 1000) + 1;
    }
    int nfds = epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()),
                          timeout_ms);
    for (int i = 0; i < nfds && !stopped_.load(std::memory_order_acquire); i++) {
      auto it = watches_.find(events[static_cast<size_t>(i)].data.fd);
      if (it != watches_.end()) {
        // Copy: the callback may unwatch (and erase) itself.
        FdCallback cb = it->second.cb;
        cb(events[static_cast<size_t>(i)].events);
      }
    }
  }
}

void EventLoop::Stop() {
  stopped_.store(true, std::memory_order_release);
  uint64_t one = 1;
  ssize_t rc = write(wake_fd_, &one, sizeof(one));
  (void)rc;
}

}  // namespace rt
