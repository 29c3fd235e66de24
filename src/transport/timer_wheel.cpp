#include "transport/timer_wheel.hpp"

#include <utility>

namespace dmps::transport {

std::uint64_t TimerWheel::schedule_at(util::TimePoint due,
                                      std::function<void()> cb) {
  // Round the deadline up to a tick boundary, then clamp to the next
  // unprocessed tick: a deadline in the past (or landing mid-advance) fires
  // on the very next pass instead of being lost behind the cursor.
  const std::int64_t t = due.raw_nanos();
  constexpr std::int64_t per = kTick.raw_nanos();
  std::uint64_t due_tick =
      t <= 0 ? 0 : static_cast<std::uint64_t>((t + per - 1) / per);
  if (due_tick < cursor_) due_tick = cursor_;

  const std::uint32_t idx = entries_.acquire();
  Entry& entry = entries_[idx];
  entry.due_tick = due_tick;
  entry.cb = std::move(cb);
  link_tail(static_cast<std::uint32_t>(due_tick % kSlots), idx);
  return entries_.id(idx);
}

void TimerWheel::link_tail(std::uint32_t list, std::uint32_t idx) {
  entries_[idx].list = list;
  entries_.push_back(list_of(list), idx);
}

void TimerWheel::release_entry(std::uint32_t idx) {
  entries_.unlink(list_of(entries_[idx].list), idx);
  entries_[idx].cb = nullptr;  // whatever it captured goes now
  entries_.release(idx);
}

bool TimerWheel::cancel(std::uint64_t id) {
  const std::uint32_t idx = entries_.find(id);
  if (idx == Pool::kNone) return false;
  release_entry(idx);
  return true;
}

void TimerWheel::advance(util::TimePoint now) {
  const std::int64_t t = now.raw_nanos();
  if (t < 0) return;
  const std::uint64_t target =
      static_cast<std::uint64_t>(t) / static_cast<std::uint64_t>(kTick.raw_nanos());
  while (cursor_ <= target) {
    if (empty()) {  // nothing armed: jump the cursor over the gap
      cursor_ = target + 1;
      break;
    }
    const std::uint64_t tick = cursor_++;
    // Move this tick's due entries, in slot order, to the firing list;
    // later rounds stay. Callbacks run only after the slot is consistent —
    // they may re-enter schedule_at()/cancel() on this same wheel.
    Pool::List& slot = slots_[tick % kSlots];
    for (std::uint32_t idx = slot.head; idx != Pool::kNone;) {
      const std::uint32_t next = entries_.next(idx);
      if (entries_[idx].due_tick <= tick) {
        entries_.unlink(slot, idx);
        link_tail(kFiring, idx);
      }
      idx = next;
    }
    // A callback may cancel an entry still waiting here: cancel() unlinks
    // it from this list like from any other.
    while (!firing_.empty()) {
      const std::uint32_t idx = firing_.head;
      std::function<void()> cb = std::move(entries_[idx].cb);
      release_entry(idx);
      cb();
    }
  }
}

}  // namespace dmps::transport
