#pragma once
// Hashed timer wheel for the UDP event loop.
//
// Retransmission deadlines are many, cheap, and usually cancelled (the
// reply lands before the timer fires) — the classic timer-wheel workload.
// Time is bucketed into fixed ticks; a timer due at tick t lives in slot
// t % slots, so schedule is O(1) and cancel is O(1) (a live-id set turns
// the slot entry into a tombstone swept on the next pass over its slot).
// advance(now) walks the cursor tick by tick, firing everything due; a
// callback may schedule or cancel freely (new timers land at the next
// unprocessed tick or later, so one advance() call always terminates).
// With nothing armed, advance() jumps the cursor instead of walking, so
// it also drops every tombstone then: the wheel lists the slots that took
// an entry since it was last empty and clears just those.
//
// Single-threaded, like everything on a transport loop. Ids start at 1
// and are never recycled (0 = "no timer", the seam convention).

#include <cstdint>
#include <functional>
#include <unordered_set>
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

  /// Armed timers (cancelled tombstones excluded).
  std::size_t pending() const { return live_.size(); }
  bool empty() const { return live_.empty(); }

  util::Duration tick() const { return tick_; }

 private:
  struct Entry {
    std::uint64_t id = 0;
    std::uint64_t due_tick = 0;
    std::function<void()> cb;
  };

  /// Empty every listed slot. Only with nothing armed, when every stored
  /// entry is a tombstone.
  void drop_tombstones();

  util::Duration tick_;
  std::vector<std::vector<Entry>> slots_;
  // Slots that took an entry since the wheel was last empty, each listed
  // once (slot_listed_): what drop_tombstones() clears.
  std::vector<std::size_t> listed_;
  std::vector<bool> slot_listed_;
  std::uint64_t cursor_ = 0;  // next tick advance() will process
  std::uint64_t next_id_ = 1;
  std::unordered_set<std::uint64_t> live_;
};

}  // namespace dmps::transport
