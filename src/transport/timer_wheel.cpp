#include "transport/timer_wheel.hpp"

#include <utility>

namespace dmps::transport {

TimerWheel::TimerWheel(util::Duration tick, std::size_t slots)
    : tick_(tick.raw_nanos() > 0 ? tick : util::Duration::millis(1)),
      slots_(slots > 0 ? slots : 1),
      slot_listed_(slots_.size(), false) {}

std::uint64_t TimerWheel::schedule_at(util::TimePoint due,
                                      std::function<void()> cb) {
  // Round the deadline up to a tick boundary, then clamp to the next
  // unprocessed tick: a deadline in the past (or landing mid-advance) fires
  // on the very next pass instead of being lost behind the cursor.
  const std::int64_t t = due.raw_nanos();
  const std::int64_t per = tick_.raw_nanos();
  std::uint64_t due_tick =
      t <= 0 ? 0 : static_cast<std::uint64_t>((t + per - 1) / per);
  if (due_tick < cursor_) due_tick = cursor_;

  const std::uint64_t id = next_id_++;
  const std::size_t slot = due_tick % slots_.size();
  if (!slot_listed_[slot]) {
    slot_listed_[slot] = true;
    listed_.push_back(slot);
  }
  slots_[slot].push_back(Entry{id, due_tick, std::move(cb)});
  live_.insert(id);
  return id;
}

bool TimerWheel::cancel(std::uint64_t id) {
  // The slot entry stays behind as a tombstone; the next pass over its slot
  // sweeps it, or advance() drops it once nothing is armed. O(1) either way.
  return live_.erase(id) > 0;
}

void TimerWheel::advance(util::TimePoint now) {
  const std::int64_t t = now.raw_nanos();
  if (t < 0) return;
  const std::uint64_t target =
      static_cast<std::uint64_t>(t) / static_cast<std::uint64_t>(tick_.raw_nanos());
  while (cursor_ <= target) {
    if (live_.empty()) {  // nothing armed: jump the cursor over the gap
      cursor_ = target + 1;
      break;
    }
    const std::uint64_t tick = cursor_++;
    std::vector<Entry>& slot = slots_[tick % slots_.size()];
    // Partition in place: due entries move to `due`, future rounds stay,
    // tombstones vanish. Callbacks run only after the slot is consistent —
    // they may re-enter schedule_at()/cancel() on this same wheel.
    std::vector<Entry> due;
    std::size_t keep = 0;
    for (Entry& entry : slot) {
      if (live_.find(entry.id) == live_.end()) continue;  // tombstone
      if (entry.due_tick <= tick) {
        due.push_back(std::move(entry));
      } else {
        slot[keep++] = std::move(entry);
      }
    }
    slot.resize(keep);
    for (Entry& entry : due) {
      // A callback earlier in this batch may have cancelled a later one.
      if (live_.erase(entry.id) == 0) continue;
      entry.cb();
    }
  }
  // A jump skips slots, so their tombstones would stay until the cursor
  // walks them with some timer live, which may never happen.
  if (live_.empty()) drop_tombstones();
}

void TimerWheel::drop_tombstones() {
  for (const std::size_t slot : listed_) {
    slots_[slot].clear();
    slot_listed_[slot] = false;
  }
  listed_.clear();
}

}  // namespace dmps::transport
