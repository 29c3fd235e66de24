#pragma once
// MpscMailbox: a bounded multi-producer / single-consumer mailbox.
//
// The handoff primitive of the started floor-control path: any number of
// producer threads push operations, one worker thread drains and executes
// them in arrival order. The bound is backpressure, not a drop policy —
// push() blocks while the mailbox is full, so a burst of producers cannot
// grow the queue without limit. Storage is a ring preallocated at
// construction (T must be default-constructible), so accepting an item
// never touches the heap — the mailbox itself contributes zero per-op
// allocations to the worker pipeline.
//
// The consumer drains in bulk: pop_all() moves the entire backlog out in
// one lock episode, so a worker wakes once per burst instead of once per
// item. FIFO contract: the consumer sees every producer's items in that
// producer's push order.
//
// Shutdown and quiescence:
//   close()      — producers get false from then on; the consumer drains
//                  what was already accepted, then pop_all() returns 0.
//   mark_done(n) — the consumer reports n previously dequeued items fully
//                  processed; dequeuing alone only proves they left the
//                  queue.
//   wait_idle()  — blocks until the queue is empty AND every dequeued item
//                  was mark_done()'d. Because the wait happens under the
//                  same mutex the consumer signals through, everything the
//                  consumer wrote while processing happens-before the
//                  return — callers may read consumer-owned state after.
//
// Plain mutex + condition variables, deliberately: the floor shards behind
// this mailbox do microseconds of work per message, so a lock-free ring
// would buy nothing measurable and cost ThreadSanitizer its visibility.
// The mutex is a util::Mutex and every mutable field is GUARDED_BY it, so
// the clang CI leg proves the discipline at compile time (DESIGN.md §10).

#include <cstddef>
#include <utility>
#include <vector>

#include "util/sync.hpp"

namespace dmps::util {

template <typename T>
class MpscMailbox {
 public:
  explicit MpscMailbox(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity), ring_(capacity_) {}

  MpscMailbox(const MpscMailbox&) = delete;
  MpscMailbox& operator=(const MpscMailbox&) = delete;

  /// Producer: enqueue, blocking while the mailbox is full. Returns false
  /// once the mailbox is closed — `item` is then left untouched, so the
  /// caller can still complete or refuse it instead of losing it.
  bool push(T&& item) {
    MutexLock lock(mu_);
    while (!closed_ && count_ >= capacity_) not_full_.wait(mu_, lock);
    if (closed_) return false;
    slot(count_) = std::move(item);
    ++count_;
    // Single consumer: it can only be waiting when it saw the queue empty,
    // so only the empty -> non-empty transition needs a wakeup.
    if (count_ == 1) not_empty_.notify_one();
    return true;
  }

  /// Consumer: move the whole backlog (at most capacity() items) onto the
  /// end of `out`, blocking while empty. Returns the number of items
  /// appended; 0 means closed and drained. The items count as in flight
  /// until mark_done(n) — reserve `out` to capacity() once and the drain
  /// itself never allocates.
  std::size_t pop_all(std::vector<T>& out) {
    MutexLock lock(mu_);
    while (!closed_ && count_ == 0) not_empty_.wait(mu_, lock);
    const std::size_t n = count_;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(std::move(ring_[head_]));
      head_ = (head_ + 1) % capacity_;
    }
    count_ = 0;
    in_flight_ += n;
    // A bulk drain can free many slots at once; every blocked producer may
    // have room now.
    if (n > 0) not_full_.notify_all();
    return n;
  }

  /// Consumer: n previously dequeued items are fully processed.
  void mark_done(std::size_t n) {
    MutexLock lock(mu_);
    in_flight_ -= n;
    if (in_flight_ == 0 && count_ == 0) idle_.notify_all();
  }

  /// Block until the queue is empty and no dequeued item is still being
  /// processed. Only meaningful once producers have stopped pushing.
  void wait_idle() {
    MutexLock lock(mu_);
    while (count_ != 0 || in_flight_ != 0) idle_.wait(mu_, lock);
  }

  /// Reject producers from now on; the consumer drains what was accepted.
  void close() {
    MutexLock lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  /// The ring slot `logical` positions past the oldest item.
  T& slot(std::size_t logical) DMPS_REQUIRES(mu_) {
    return ring_[(head_ + logical) % capacity_];
  }

  const std::size_t capacity_;
  Mutex mu_;
  CondVar not_full_;
  CondVar not_empty_;
  CondVar idle_;
  std::vector<T> ring_ DMPS_GUARDED_BY(mu_);  // preallocated ring storage
  std::size_t head_ DMPS_GUARDED_BY(mu_) = 0;  // oldest item
  std::size_t count_ DMPS_GUARDED_BY(mu_) = 0;  // queued items
  std::size_t in_flight_ DMPS_GUARDED_BY(mu_) = 0;  // popped, not mark_done'd
  bool closed_ DMPS_GUARDED_BY(mu_) = false;
};

}  // namespace dmps::util
