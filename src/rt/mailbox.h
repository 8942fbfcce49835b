// Bounded lock-free SPSC mailbox + parkable doorbell: the edges of the
// thread-per-shard runtime.
//
// The threaded runtime (src/rt/shard_runtime.h) connects the node's I/O thread
// and its shard workers with single-producer/single-consumer edges: one inbox
// per (I/O thread -> shard worker), carrying sockets, and at P>1 a pair per
// (home worker, owning worker), carrying forwarded client submits one way and
// their replies the other, never peer traffic. Each edge is a Mailbox<T>: a
// ring with an exact capacity bound whose slots live in fixed-size blocks.
// Storage grows one block at a time, and only when occupancy reaches a new
// high; blocks form a cycle and are recycled until the mailbox dies. Pushing
// *moves* the item into a resident slot, so a slot's string/vector capacity
// survives reuse: once a depth has been reached, traffic at or below it
// performs no heap allocation (the same recycled-slot discipline as the
// simulator's event pool; pinned by alloc_test). An idle edge costs one
// block, not `capacity` slots.
//
// Progress discipline (deadlock freedom with bounded rings): no producer
// blocks or spins on a full ring. The I/O thread closes a socket its inbox
// refuses; a home worker caps its outstanding forwards per owner at the
// ring capacity, so neither edge of a worker pair can fill (see
// shard_runtime.h).
//
// The Doorbell lets an idle consumer park in the kernel instead of spinning:
// an eventfd guarded by an "armed" flag, so the producer pays a syscall only
// when the consumer actually went to sleep (one atomic exchange otherwise).
#ifndef SRC_RT_MAILBOX_H_
#define SRC_RT_MAILBOX_H_

#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"

namespace rt {

// Bounded single-producer/single-consumer ring. Exactly one thread may call
// TryPush and exactly one thread may call TryPop (they may be different
// threads, or the same thread on both ends during setup/teardown). Capacity is
// rounded up to a power of two and is exact: the capacity()+1-th item in
// flight is refused.
//
// Storage: a cycle of blocks of block_slots() default-constructed slots.
// Global index i lives at offset i % block_slots() of the block holding chunk
// i / block_slots(); each side steps to the next block of the cycle when its
// index crosses a chunk boundary. The producer keeps
//
//     occupancy <= (blocks - 1) * block_slots()
//
// after every push by inserting a fresh block right after its own block when
// the next push would break it. Because of that spare block, the block the
// producer steps into is always one the consumer has already left (it has
// popped past that block's chunk, which the producer learns from head_ with
// acquire ordering), so the blocks need no shared pointers: the two indexes
// carry all synchronisation, exactly as in a flat ring. A mailbox that has
// held k items owns at most (ceil(k / block_slots()) + 1) blocks.
template <typename T>
class Mailbox {
 public:
  static constexpr size_t kBlockSlots = 256;

  explicit Mailbox(size_t capacity) {
    size_t cap = 1;
    while (cap < capacity) {
      cap <<= 1;
    }
    capacity_ = cap;
    block_mask_ = std::min(cap, kBlockSlots) - 1;
    blocks_.reserve(cap / block_slots() + 1);
    // One block that is its own successor; both sides start "before" index 0,
    // so the first push and pop step onto the block that follows it.
    Block* first = NewBlock();
    first->next = first;
    tail_block_ = first;
    front_block_ = first;
  }

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  size_t capacity() const { return capacity_; }
  size_t block_slots() const { return block_mask_ + 1; }

  // Slots currently allocated (monitoring and tests; any thread).
  size_t allocated_slots() const {
    return blocks_allocated_.load(std::memory_order_relaxed) * block_slots();
  }

  // Moves item into the ring; false (item untouched) when full.
  bool TryPush(T& item) {
    uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ >= push_limit_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ >= capacity()) {
        return false;
      }
      if (tail - head_cache_ >= push_limit_) {
        Grow();  // a new occupancy high: keep one block spare
      }
    }
    uint64_t offset = tail & block_mask_;
    if (offset == 0) {
      tail_block_ = tail_block_->next;
    }
    tail_block_->slots[offset] = std::move(item);
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
    uint64_t offset = head & block_mask_;
    if (offset == 0) {
      front_block_ = front_block_->next;
    }
    out = std::move(front_block_->slots[offset]);
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
  struct Block {
    std::unique_ptr<T[]> slots;
    Block* next = nullptr;
  };

  Block* NewBlock() {
    blocks_.push_back(std::make_unique<Block>());
    Block* b = blocks_.back().get();
    b->slots = std::make_unique<T[]>(block_slots());
    size_t count = blocks_.size();
    blocks_allocated_.store(count, std::memory_order_relaxed);
    push_limit_ = std::min(capacity(), (count - 1) * block_slots());
    return b;
  }

  // Producer only. Splices a fresh block in right after the producer's block,
  // which the producer steps onto next. The consumer reads a block's `next`
  // only when it steps past that block, i.e. after acquiring a tail_ beyond
  // it, so every splice is visible by the time it follows the link.
  void Grow() {
    Block* b = NewBlock();
    b->next = tail_block_->next;
    tail_block_->next = b;
  }

  // Producer and consumer state live on their own cache lines; each side
  // additionally caches the other side's index so the common case touches one
  // shared line per operation, not two.
  alignas(64) std::atomic<uint64_t> tail_{0};  // producer-owned
  uint64_t head_cache_ = 0;                    // producer's view of head_
  uint64_t push_limit_ = 0;  // min(capacity, (blocks - 1) * block_slots())
  Block* tail_block_ = nullptr;  // block of chunk (tail_ - 1) / block_slots()
  std::atomic<size_t> blocks_allocated_{0};
  alignas(64) std::atomic<uint64_t> head_{0};  // consumer-owned
  uint64_t tail_cache_ = 0;                    // consumer's view of tail_
  Block* front_block_ = nullptr;  // block of chunk (head_ - 1) / block_slots()
  alignas(64) size_t capacity_ = 0;
  size_t block_mask_ = 0;
  std::vector<std::unique_ptr<Block>> blocks_;  // owner; producer appends
};

// Park/notify primitive for an idle mailbox consumer: an eventfd the consumer
// watches in its epoll set, armed only while it is actually about to sleep.
// Ring() is safe from any number of producer threads; Arm/Disarm/Drain from
// the single consumer.
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
  // Returns true when it wrote the eventfd.
  bool Ring() {
    if (!armed_.exchange(false, std::memory_order_seq_cst)) {
      return false;
    }
    uint64_t one = 1;
    ssize_t rc = write(fd_, &one, sizeof(one));
    (void)rc;
    return true;
  }

  // Arms the bell. The consumer must re-check its mailboxes after arming and
  // before it sleeps on fd(): a producer that pushed before seeing the armed
  // flag will not ring, and the re-check is what catches its item. (The
  // seq_cst arm/ring pair makes the push visible to that re-check.)
  void Arm() { armed_.store(true, std::memory_order_seq_cst); }
  // The consumer woke (for this bell or anything else it sleeps on).
  void Disarm() { armed_.store(false, std::memory_order_seq_cst); }

  int fd() const { return fd_; }

  // Clears the eventfd counter without blocking. One read suffices: a
  // non-semaphore eventfd read returns and zeroes the whole counter, and a
  // ring landing after it leaves the fd readable again.
  void Drain() {
    uint64_t junk;
    ssize_t rc = read(fd_, &junk, sizeof(junk));
    (void)rc;
  }

 private:
  int fd_ = -1;
  std::atomic<bool> armed_{false};
};

}  // namespace rt

#endif  // SRC_RT_MAILBOX_H_
