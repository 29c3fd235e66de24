#pragma once
// Discrete-event simulator — the single timeline everything above it runs on.
//
// The network, the clocks and the DOCPN engine never read wall time; they
// schedule callbacks here. That keeps every scenario exactly reproducible
// and lets a 180-second presentation simulate in microseconds.
//
// The event store is a calendar queue (DESIGN §6.3). Callbacks live in a
// slot vector with a free list; an EventId names a slot and its generation.
// Queue entries sit in one of four places by time bucket (2^20 ns): the
// current bucket's run, sorted once when the bucket became current; a
// (time, seq) side heap for entries scheduled into or behind it since; a
// ring of unsorted buckets for the next ~0.54 s; or a far heap beyond it.
// Events still run in exact (time, insertion) order.
//
// Besides callbacks, an event can name a registered Target and a 32-bit
// argument. SimNetwork delivers every message that way, so a delivery
// takes no callback slot and no std::function.

#include <cstdint>
#include <functional>
#include <vector>

#include "util/duration.hpp"

namespace dmps::sim {

/// `generation << 32 | (slot + 1)`: never 0, and an id whose event fired or
/// was cancelled never matches again (until its slot is reused 2^32 times).
using EventId = std::uint64_t;

class Simulator {
 public:
  using Callback = std::function<void()>;

  /// The receiver of target events (post_in): argument-only events that
  /// carry no callback and cannot be cancelled.
  class Target {
   public:
    virtual void fire(std::uint32_t arg) = 0;

   protected:
    ~Target() = default;
  };
  using TargetId = std::uint32_t;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation instant.
  util::TimePoint now() const { return now_; }

  /// Schedule `cb` at absolute instant `at` (clamped to now() if in the past).
  EventId schedule_at(util::TimePoint at, Callback cb);

  /// Schedule `cb` after `delay` (negative delays clamp to "immediately").
  EventId schedule_in(util::Duration delay, Callback cb);

  /// Drop a pending event. Returns false if it already ran or was cancelled.
  bool cancel(EventId id);

  /// Register `target` for post_in. It must outlive every later run_until
  /// of this simulator: its events are never cancelled.
  TargetId add_target(Target& target);

  /// Call `fire(arg)` on the registered `target` after `delay` (negative
  /// delays clamp to "immediately"), in the same (time, insertion) order
  /// as callbacks. Not cancellable; counted by pending() until it fires.
  void post_in(util::Duration delay, TargetId target, std::uint32_t arg);

  /// Run every event with timestamp <= until, in (time, insertion) order,
  /// then advance now() to `until`. Events scheduled while running are
  /// processed too if they fall inside the window. No-op if until < now().
  void run_until(util::TimePoint until);

  std::size_t pending() const { return live_; }

 private:
  static constexpr int kBucketShift = 20;  // 2^20 ns ~ 1.05 ms per bucket
  static constexpr std::int64_t kRingBuckets = 512;

  // Tags Entry::slot as a target id. Callback slots stay below it: 2^31
  // pending callbacks would take ~80 GB of slots.
  static constexpr std::uint32_t kTargetBit = std::uint32_t{1} << 31;

  struct Slot {
    Callback cb;
    std::uint32_t gen = 0;  // bumped each time the slot's event ends
    bool live = false;
  };

  // A queued event: a callback slot and its generation, or kTargetBit | a
  // target id and the target's argument. Cancelling leaves a callback
  // entry behind; it is skipped when its generation no longer matches the
  // slot's.
  struct Entry {
    std::int64_t at;
    std::uint64_t seq;  // insertion order breaks ties deterministically
    std::uint32_t slot;
    std::uint32_t gen;
    bool operator>(const Entry& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  static std::int64_t bucket_of(std::int64_t at) { return at >> kBucketShift; }
  void place(const Entry& entry);
  bool advance();
  void release(std::uint32_t slot);

  util::TimePoint now_ = util::TimePoint::zero();
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<Target*> targets_;
  // Invariant: run_ holds what bucket cur_ held when it became current,
  // sorted latest first so the earliest is at the back; heap_ every entry
  // placed since into a bucket <= cur_; ring_ those in
  // (cur_, cur_ + kRingBuckets); far_ the rest.
  std::int64_t cur_ = 0;
  std::vector<Entry> run_;
  std::vector<Entry> heap_;
  std::vector<std::vector<Entry>> ring_ =
      std::vector<std::vector<Entry>>(kRingBuckets);
  std::size_t ring_entries_ = 0;
  std::vector<Entry> far_;
};

}  // namespace dmps::sim
