#pragma once
// Hashed timer wheel for the UDP event loop.
//
// Retransmission deadlines are many, cheap, and usually cancelled (the
// reply lands before the timer fires) — the classic timer-wheel workload.
// Time is bucketed into fixed ticks; a timer due at tick t lives in slot
// t % slots, so schedule is O(1) and cancel is O(1). advance(now) walks
// the cursor tick by tick, firing everything due; a callback may schedule
// or cancel freely (new timers land at the next unprocessed tick or later,
// so one advance() call always terminates). With nothing armed, advance()
// jumps the cursor instead of walking.
//
// Storage is two arrays sized by the peak number of armed timers, so after
// warm-up scheduling, cancelling and firing allocate nothing:
//   - a pool of entries (recycled through a free list), each threaded into
//     its wheel slot's list; cancel unlinks the entry and drops its
//     callback at once, so no tombstone is left behind;
//   - the live table, a power-of-two array naming each armed timer's entry
//     in the slot its id's low bits select. The slot holds the id that
//     owns it (the generation check), so a stale id — fired, cancelled, or
//     one whose slot a newer timer has since taken — never matches. A new
//     id skips past any id whose slot an armed timer still holds, and the
//     table doubles to stay at most half full.
//
// Single-threaded, like everything on a transport loop. Ids start at 1,
// only grow, and are never recycled (0 = "no timer", the seam convention).

#include <cstdint>
#include <functional>
#include <vector>

#include "util/duration.hpp"

namespace dmps::transport {

class TimerWheel {
 public:
  /// `tick` is the firing resolution (deadlines round up to the next tick
  /// boundary); `slots` trades memory for fewer multi-round collisions.
  explicit TimerWheel(util::Duration tick = util::Duration::millis(1),
                      std::size_t slots = 512);

  /// Arm `cb` to fire at `due` (on the caller's timeline; clamped to the
  /// next unprocessed tick, so it never fires in the past or not at all).
  std::uint64_t schedule_at(util::TimePoint due, std::function<void()> cb);

  /// Disarm. False if the id already fired or was cancelled.
  bool cancel(std::uint64_t id);

  /// Fire every timer due at or before `now`, in tick order.
  void advance(util::TimePoint now);

  /// Armed timers.
  std::size_t pending() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }

  util::Duration tick() const { return tick_; }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  struct Entry {
    std::uint64_t id = 0;
    std::uint64_t due_tick = 0;
    std::function<void()> cb;
    // Neighbours in the entry's list (kNone at an end): its wheel slot's,
    // or the firing list while advance() fires its tick.
    std::uint32_t prev = kNone;
    std::uint32_t next = kNone;
    std::uint32_t list = 0;  // wheel slot index, or kFiring
  };
  struct List {
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
  };
  struct Live {
    std::uint64_t id = 0;  // 0 = free
    std::uint32_t entry = 0;
  };

  List& list_of(std::uint32_t list) {
    return list == kFiring ? firing_ : slots_[list];
  }
  void link_tail(std::uint32_t list, std::uint32_t idx);
  void unlink(std::uint32_t idx);
  /// The live-table slot of `id`, or nullptr when the id is not armed.
  Live* find_live(std::uint64_t id);
  /// Mint the next id for `entry` and mark it live.
  std::uint64_t mint_id(std::uint32_t entry);
  /// Unlink the entry, drop its callback and recycle it.
  void release_entry(std::uint32_t idx);

  static constexpr std::uint32_t kFiring = ~std::uint32_t{0} - 1;

  util::Duration tick_;
  std::vector<List> slots_;
  List firing_;  // the current tick's due entries, in firing order
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> free_entries_;
  std::vector<Live> live_;
  std::size_t live_count_ = 0;
  std::uint64_t cursor_ = 0;  // next tick advance() will process
  std::uint64_t next_id_ = 1;
};

}  // namespace dmps::transport
