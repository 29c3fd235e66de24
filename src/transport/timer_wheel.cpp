#include "transport/timer_wheel.hpp"

#include <algorithm>
#include <utility>

namespace dmps::transport {

TimerWheel::TimerWheel(util::Duration tick, std::size_t slots)
    : tick_(tick.raw_nanos() > 0 ? tick : util::Duration::millis(1)),
      slots_(slots > 0 ? slots : 1) {}

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

  std::uint32_t idx;
  if (!free_entries_.empty()) {
    idx = free_entries_.back();
    free_entries_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
    free_entries_.reserve(entries_.capacity());  // it never outgrows the pool
  }
  Entry& entry = entries_[idx];
  entry.due_tick = due_tick;
  entry.cb = std::move(cb);
  link_tail(static_cast<std::uint32_t>(due_tick % slots_.size()), idx);
  entry.id = mint_id(idx);
  return entry.id;
}

void TimerWheel::link_tail(std::uint32_t list, std::uint32_t idx) {
  List& to = list_of(list);
  Entry& entry = entries_[idx];
  entry.list = list;
  entry.prev = to.tail;
  entry.next = kNone;
  if (to.tail != kNone) {
    entries_[to.tail].next = idx;
  } else {
    to.head = idx;
  }
  to.tail = idx;
}

void TimerWheel::unlink(std::uint32_t idx) {
  Entry& entry = entries_[idx];
  List& from = list_of(entry.list);
  if (entry.prev != kNone) {
    entries_[entry.prev].next = entry.next;
  } else {
    from.head = entry.next;
  }
  if (entry.next != kNone) {
    entries_[entry.next].prev = entry.prev;
  } else {
    from.tail = entry.prev;
  }
  entry.prev = kNone;
  entry.next = kNone;
}

TimerWheel::Live* TimerWheel::find_live(std::uint64_t id) {
  if (id == 0 || live_.empty()) return nullptr;
  Live& live = live_[id & (live_.size() - 1)];
  return live.id == id ? &live : nullptr;
}

std::uint64_t TimerWheel::mint_id(std::uint32_t entry) {
  if (2 * (live_count_ + 1) > live_.size()) {
    // Double, keeping every armed id: ids apart in the old low bits stay
    // apart in the new ones.
    std::vector<Live> old = std::move(live_);
    live_.assign(std::max<std::size_t>(64, 2 * old.size()), Live{});
    for (const Live& live : old) {
      if (live.id != 0) live_[live.id & (live_.size() - 1)] = live;
    }
  }
  const std::size_t mask = live_.size() - 1;
  while (live_[next_id_ & mask].id != 0) ++next_id_;  // its slot is taken
  const std::uint64_t id = next_id_++;
  live_[id & mask] = Live{id, entry};
  ++live_count_;
  return id;
}

void TimerWheel::release_entry(std::uint32_t idx) {
  unlink(idx);
  entries_[idx].cb = nullptr;  // whatever it captured goes now
  free_entries_.push_back(idx);
}

bool TimerWheel::cancel(std::uint64_t id) {
  Live* const live = find_live(id);
  if (live == nullptr) return false;
  const std::uint32_t idx = live->entry;
  live->id = 0;
  --live_count_;
  release_entry(idx);
  return true;
}

void TimerWheel::advance(util::TimePoint now) {
  const std::int64_t t = now.raw_nanos();
  if (t < 0) return;
  const std::uint64_t target =
      static_cast<std::uint64_t>(t) / static_cast<std::uint64_t>(tick_.raw_nanos());
  while (cursor_ <= target) {
    if (live_count_ == 0) {  // nothing armed: jump the cursor over the gap
      cursor_ = target + 1;
      break;
    }
    const std::uint64_t tick = cursor_++;
    // Move this tick's due entries, in slot order, to the firing list;
    // later rounds stay. Callbacks run only after the slot is consistent —
    // they may re-enter schedule_at()/cancel() on this same wheel.
    const auto slot = static_cast<std::uint32_t>(tick % slots_.size());
    for (std::uint32_t idx = slots_[slot].head; idx != kNone;) {
      const std::uint32_t next = entries_[idx].next;
      if (entries_[idx].due_tick <= tick) {
        unlink(idx);
        link_tail(kFiring, idx);
      }
      idx = next;
    }
    // A callback may cancel an entry still waiting here: cancel() unlinks
    // it from this list like from any other.
    while (firing_.head != kNone) {
      const std::uint32_t idx = firing_.head;
      Live* const live = find_live(entries_[idx].id);
      live->id = 0;
      --live_count_;
      std::function<void()> cb = std::move(entries_[idx].cb);
      release_entry(idx);
      cb();
    }
  }
}

}  // namespace dmps::transport
