// Bounded lock-free SPSC mailbox + parkable doorbell: the edges of the
// thread-per-shard runtime.
//
// The threaded runtime (src/rt/shard_runtime.h) connects its tiers with
// single-producer/single-consumer edges: one inbox per (I/O thread -> shard
// worker) and one outbox per (shard worker -> I/O thread). Each edge is a
// Mailbox<T>: a fixed-capacity ring whose slots are allocated once at
// construction and recycled forever after — pushing *moves* the item into the
// resident slot, so a slot's string/vector capacity survives reuse and the
// steady state performs no per-message heap allocation (the same recycled-slot
// discipline as the simulator's event pool; pinned by alloc_test).
//
// Progress discipline (deadlock freedom with bounded rings):
//   * the I/O thread never blocks on a full inbox — it drains worker outboxes
//     (making progress for the worker) and retries, or drops;
//   * a worker never blocks on a full outbox without ringing the I/O doorbell
//     first — the I/O thread always drains outboxes before waiting.
//
// The Doorbell lets an idle consumer park in the kernel instead of spinning:
// an eventfd guarded by an "armed" flag, so the producer pays a syscall only
// when the consumer actually went to sleep (one atomic exchange otherwise).
#ifndef SRC_RT_MAILBOX_H_
#define SRC_RT_MAILBOX_H_

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"

namespace rt {

// Fixed-capacity single-producer/single-consumer ring. Exactly one thread may
// call TryPush and exactly one thread may call TryPop (they may be different
// threads, or the same thread on both ends during setup/teardown). Capacity is
// rounded up to a power of two; slots are default-constructed once and moved
// in/out, never destroyed until the mailbox itself dies.
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(size_t capacity) {
    size_t cap = 1;
    while (cap < capacity) {
      cap <<= 1;
    }
    mask_ = cap - 1;
    slots_.resize(cap);
  }

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  size_t capacity() const { return mask_ + 1; }

  // Moves item into the ring; false (item untouched) when full.
  bool TryPush(T& item) {
    uint64_t tail = tail_.load(std::memory_order_relaxed);
    uint64_t head = head_cache_;
    if (tail - head >= capacity()) {
      head = head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head >= capacity()) {
        return false;
      }
    }
    slots_[tail & mask_] = std::move(item);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Moves the oldest item into out; false when empty.
  bool TryPop(T& out) {
    uint64_t head = head_.load(std::memory_order_relaxed);
    uint64_t tail = tail_cache_;
    if (head >= tail) {
      tail = tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head >= tail) {
        return false;
      }
    }
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Consumer-side view; exact for the consumer, a lower bound for the producer.
  bool Empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  // Approximate occupancy (monitoring only).
  size_t SizeApprox() const {
    uint64_t tail = tail_.load(std::memory_order_acquire);
    uint64_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<size_t>(tail - head) : 0;
  }

 private:
  // Producer and consumer indexes live on their own cache lines; each side
  // additionally caches the other side's index so the common case touches one
  // shared line per operation, not two.
  alignas(64) std::atomic<uint64_t> tail_{0};  // producer-owned
  uint64_t head_cache_ = 0;                    // producer's view of head_
  alignas(64) std::atomic<uint64_t> head_{0};  // consumer-owned
  uint64_t tail_cache_ = 0;                    // consumer's view of tail_
  alignas(64) size_t mask_ = 0;
  std::vector<T> slots_;
};

// Park/notify primitive for an idle mailbox consumer: an eventfd the consumer
// blocks on (optionally with a timeout, for worker-local timer wheels), armed
// only while it is actually about to sleep. Ring() is safe from any number of
// producer threads; Wait() from the single consumer.
class Doorbell {
 public:
  Doorbell() {
    fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    CHECK_GE(fd_, 0);
  }

  ~Doorbell() {
    if (fd_ >= 0) {
      close(fd_);
    }
  }

  Doorbell(const Doorbell&) = delete;
  Doorbell& operator=(const Doorbell&) = delete;

  // Wakes the consumer if it is parked (or about to park). One atomic exchange
  // when the consumer is awake; the eventfd write only when it went to sleep.
  void Ring() {
    if (armed_.exchange(false, std::memory_order_seq_cst)) {
      uint64_t one = 1;
      ssize_t rc = write(fd_, &one, sizeof(one));
      (void)rc;
    }
  }

  // Arms the bell. The consumer must re-check its mailboxes after arming and
  // before Wait(): a producer that pushed before seeing the armed flag will not
  // ring, and the re-check is what catches its item. (The seq_cst arm/ring pair
  // makes the push visible to that re-check.)
  void Arm() { armed_.store(true, std::memory_order_seq_cst); }

  // The eventfd, for consumers that integrate with an epoll loop instead of
  // blocking in Wait() (arm with Arm(), clear readiness with Drain()).
  int fd() const { return fd_; }

  // Clears the eventfd counter without blocking (epoll-integrated consumers).
  // One read suffices: a non-semaphore eventfd read returns and zeroes the whole
  // counter, and a ring landing after it leaves the fd readable again.
  void Drain() {
    uint64_t junk;
    ssize_t rc = read(fd_, &junk, sizeof(junk));
    (void)rc;
  }

  // Blocks until rung or timeout_us elapses (negative = no timeout). Returns
  // true if rung. Disarms on return.
  bool Wait(int64_t timeout_us) {
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    int timeout_ms =
        timeout_us < 0 ? -1 : static_cast<int>((timeout_us + 999) / 1000);
    int rc = poll(&pfd, 1, timeout_ms);
    armed_.store(false, std::memory_order_seq_cst);
    if (rc > 0) {
      Drain();
      return true;
    }
    return false;
  }

 private:
  int fd_ = -1;
  std::atomic<bool> armed_{false};
};

}  // namespace rt

#endif  // SRC_RT_MAILBOX_H_
