#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dmps::sim {

EventId Simulator::schedule_at(util::TimePoint at, Callback cb) {
  if (at < now_) at = now_;
  const std::uint32_t slot = callbacks_.acquire();
  callbacks_[slot] = std::move(cb);
  ++live_;
  const EventId id = callbacks_.id(slot);
  place(Entry{at.raw_nanos(), next_seq_++, id});
  return id;
}

EventId Simulator::schedule_in(util::Duration delay, Callback cb) {
  if (delay < util::Duration::zero()) delay = util::Duration::zero();
  return schedule_at(now_ + delay, std::move(cb));
}

Simulator::TargetId Simulator::add_target(Target& target) {
  targets_.push_back(&target);
  return static_cast<TargetId>(targets_.size() - 1);
}

// dmps-lint: hot-begin(sim-deliver) — every SimNetwork delivery
void Simulator::post_in(util::Duration delay, TargetId target, std::uint32_t arg) {
  assert(target < targets_.size());
  if (delay < util::Duration::zero()) delay = util::Duration::zero();
  ++live_;
  place(Entry{(now_ + delay).raw_nanos(), next_seq_++,
              std::uint64_t{arg} << 32 | kTargetBit | target});
}
// dmps-lint: hot-end

bool Simulator::cancel(EventId id) {
  // The queue entry stays behind; its id no longer finds a live slot.
  const std::uint32_t slot = callbacks_.find(id);
  if (slot == Pool::kNone) return false;
  callbacks_[slot] = nullptr;
  callbacks_.release(slot);
  --live_;
  return true;
}

// dmps-lint: hot-begin(sim-deliver)
void Simulator::place(const Entry& entry) {
  const std::int64_t bucket = bucket_of(entry.at);
  if (bucket <= cur_) {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  } else if (bucket < cur_ + kRingBuckets) {
    ring_[static_cast<std::size_t>(bucket & (kRingBuckets - 1))].push_back(entry);
    ++ring_entries_;
  } else {
    far_.push_back(entry);
    std::push_heap(far_.begin(), far_.end(), std::greater<>{});
  }
}
// dmps-lint: hot-end

bool Simulator::advance() {
  // Make the next occupied bucket the current one. One pass always fills
  // the run or the heap; looping keeps a placement bug a wrong order, which
  // the differential test reports, instead of a read past an empty store.
  while (run_.empty() && heap_.empty()) {
    if (ring_entries_ > 0) {
      std::vector<Entry>* bucket = nullptr;
      do {
        ++cur_;
        bucket = &ring_[static_cast<std::size_t>(cur_ & (kRingBuckets - 1))];
      } while (bucket->empty());
      ring_entries_ -= bucket->size();
      // One sort of the few entries a bucket holds (DESIGN §6.3), latest
      // first: the run is consumed from the back.
      run_.swap(*bucket);
      std::sort(run_.begin(), run_.end(), std::greater<>{});
    } else if (!far_.empty()) {
      cur_ = bucket_of(far_.front().at);
    } else {
      return false;
    }
    // The ring now reaches further: pull in the far events it covers.
    while (!far_.empty() && bucket_of(far_.front().at) < cur_ + kRingBuckets) {
      std::pop_heap(far_.begin(), far_.end(), std::greater<>{});
      const Entry entry = far_.back();
      far_.pop_back();
      place(entry);
    }
  }
  return true;
}

// dmps-lint: hot-begin(sim-deliver)
void Simulator::run_until(util::TimePoint until) {
  if (until < now_) return;
  while (!run_.empty() || !heap_.empty() || advance()) {
    // The earliest entry is the run's back or the side heap's top.
    const bool from_run =
        heap_.empty() || (!run_.empty() && heap_.front() > run_.back());
    const Entry top = from_run ? run_.back() : heap_.front();
    if (top.at > until.raw_nanos()) break;
    if (from_run) {
      run_.pop_back();
    } else {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      heap_.pop_back();
    }
    // Every queued entry is at or after now_, so time never moves back.
    const auto low = static_cast<std::uint32_t>(top.event);
    if ((low & kTargetBit) != 0) {
      now_ = util::TimePoint::from_nanos(top.at);
      --live_;
      targets_[low & ~kTargetBit]->fire(static_cast<std::uint32_t>(top.event >> 32));
      continue;
    }
    const std::uint32_t slot = callbacks_.find(top.event);
    if (slot == Pool::kNone) continue;  // cancelled
    now_ = util::TimePoint::from_nanos(top.at);
    Callback cb = std::move(callbacks_[slot]);
    callbacks_[slot] = nullptr;
    callbacks_.release(slot);
    --live_;
    cb();
  }
  now_ = util::max_time(now_, until);
}
// dmps-lint: hot-end

}  // namespace dmps::sim
