#pragma once
// Hashed timer wheel for the UDP event loop.
//
// Retransmission deadlines are many, cheap, and usually cancelled (the
// reply lands before the timer fires) — the classic timer-wheel workload.
// Time is bucketed into 1 ms ticks; a timer due at tick t lives in slot
// t % 512, so schedule is O(1) and cancel is O(1). advance(now) walks
// the cursor tick by tick, firing everything due; a callback may schedule
// or cancel freely (new timers land at the next unprocessed tick or later,
// so one advance() call always terminates). With nothing armed, advance()
// jumps the cursor instead of walking.
//
// The entries live in a util::SlotPool, sized by the peak number of armed
// timers, so after warm-up scheduling, cancelling and firing allocate
// nothing. Each entry is threaded into its wheel slot's list; cancel
// unlinks the entry and drops its callback at once, so no tombstone is
// left behind. A timer's id is its pool id: a stale id — fired, cancelled,
// or one whose entry a newer timer has since taken — never matches, until
// its entry has been reused 2^32 times (DESIGN §6.3's wrap bound).
//
// Single-threaded, like everything on a transport loop. Ids are never 0
// (0 = "no timer", the seam convention).

#include <array>
#include <cstdint>
#include <functional>

#include "util/duration.hpp"
#include "util/slot_pool.hpp"

namespace dmps::transport {

class TimerWheel {
 public:
  /// The firing resolution: deadlines round up to the next tick boundary.
  static constexpr util::Duration kTick = util::Duration::millis(1);
  /// Ticks per revolution; a deadline further out waits in its slot for
  /// later rounds.
  static constexpr std::uint32_t kSlots = 512;

  /// Arm `cb` to fire at `due` (on the caller's timeline; clamped to the
  /// next unprocessed tick, so it never fires in the past or not at all).
  std::uint64_t schedule_at(util::TimePoint due, std::function<void()> cb);

  /// Disarm. False if the id already fired or was cancelled.
  bool cancel(std::uint64_t id);

  /// Fire every timer due at or before `now`, in tick order.
  void advance(util::TimePoint now);

  /// Armed timers.
  std::size_t pending() const { return entries_.size(); }
  bool empty() const { return pending() == 0; }

 private:
  struct Entry {
    std::uint64_t due_tick = 0;
    std::function<void()> cb;
    std::uint32_t list = 0;  // wheel slot index, or kFiring
  };
  using Pool = util::SlotPool<Entry>;
  static constexpr std::uint32_t kFiring = kSlots;

  Pool::List& list_of(std::uint32_t list) {
    return list == kFiring ? firing_ : slots_[list];
  }
  void link_tail(std::uint32_t list, std::uint32_t idx);
  /// Unlink the entry, drop its callback and recycle it.
  void release_entry(std::uint32_t idx);

  std::array<Pool::List, kSlots> slots_{};
  Pool::List firing_;  // the current tick's due entries, in firing order
  Pool entries_;
  std::uint64_t cursor_ = 0;  // next tick advance() will process
};

}  // namespace dmps::transport
