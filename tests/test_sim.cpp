#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using dmps::sim::EventId;
using dmps::sim::Simulator;
using dmps::util::Duration;
using dmps::util::TimePoint;

TEST(Simulator, FiresInTimeOrderWithStableTies) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint::from_seconds(2.0), [&] { order.push_back(2); });
  sim.schedule_at(TimePoint::from_seconds(1.0), [&] { order.push_back(1); });
  sim.schedule_at(TimePoint::from_seconds(2.0), [&] { order.push_back(3); });
  sim.run_until(TimePoint::from_seconds(5.0));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), TimePoint::from_seconds(5.0));
}

TEST(Simulator, RunUntilIsAWindowNotADrain) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(TimePoint::from_seconds(1.0), [&] { ++fired; });
  sim.schedule_at(TimePoint::from_seconds(3.0), [&] { ++fired; });
  sim.run_until(TimePoint::from_seconds(2.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(TimePoint::from_seconds(4.0));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsScheduledWhileRunningExecuteInWindow) {
  Simulator sim;
  std::vector<double> at;
  sim.schedule_at(TimePoint::from_seconds(1.0), [&] {
    at.push_back(sim.now().to_seconds());
    sim.schedule_in(Duration::seconds(1), [&] { at.push_back(sim.now().to_seconds()); });
    sim.schedule_in(Duration::seconds(9), [&] { at.push_back(sim.now().to_seconds()); });
  });
  sim.run_until(TimePoint::from_seconds(5.0));
  EXPECT_EQ(at, (std::vector<double>{1.0, 2.0}));
}

TEST(Simulator, CancelAndPastClamping) {
  Simulator sim;
  int fired = 0;
  const auto id = sim.schedule_at(TimePoint::from_seconds(1.0), [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // already gone

  sim.run_until(TimePoint::from_seconds(2.0));
  EXPECT_EQ(fired, 0);

  // Scheduling in the past clamps to now and still runs.
  sim.schedule_at(TimePoint::from_seconds(1.0), [&] { ++fired; });
  sim.schedule_in(Duration::seconds(-5), [&] { ++fired; });
  sim.run_until(sim.now());
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), TimePoint::from_seconds(2.0));
}

TEST(Simulator, IdsOfReusedSlotsStayDistinct) {
  Simulator sim;
  const EventId first = sim.schedule_in(Duration::millis(1), [] {});
  EXPECT_NE(first, 0u);
  EXPECT_TRUE(sim.cancel(first));
  // The freed slot is reused under a new generation: the old id is dead.
  const EventId second = sim.schedule_in(Duration::millis(1), [] {});
  EXPECT_NE(second, first);
  EXPECT_FALSE(sim.cancel(first));
  EXPECT_FALSE(sim.cancel(0));
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_TRUE(sim.cancel(second));
  EXPECT_EQ(sim.pending(), 0u);
}

// The calendar's bucket width (DESIGN §6.3) and ring length, in ns.
constexpr std::int64_t kBucket = std::int64_t{1} << 20;
constexpr std::int64_t kRing = 512 * kBucket;

TEST(Simulator, EarlierEventAfterAWindowEndingMidBucket) {
  // run_until stops mid-bucket with the next event buckets ahead; an event
  // scheduled between the two must still run first.
  Simulator sim;
  std::vector<int> order;
  const auto at = [&](std::int64_t ns, int tag) {
    sim.schedule_at(TimePoint::from_nanos(ns), [&order, tag] { order.push_back(tag); });
  };
  at(5 * kBucket + 100, 3);
  sim.run_until(TimePoint::from_nanos(kBucket + 7));
  EXPECT_TRUE(order.empty());
  at(2 * kBucket + 3, 1);
  at(5 * kBucket + 50, 2);
  at(5 * kBucket + 100, 4);
  at(kBucket + 7 + 2 * kRing, 5);  // past the ring
  sim.run_until(TimePoint::from_nanos(3 * kRing));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

// The binary heap + hash map store Simulator used before the calendar
// queue, kept as the reference model for the differential test below.
class ReferenceSimulator {
 public:
  using Callback = std::function<void()>;

  TimePoint now() const { return now_; }

  EventId schedule_at(TimePoint at, Callback cb) {
    const EventId id = next_id_++;
    if (at < now_) at = now_;
    callbacks_.emplace(id, std::move(cb));
    queue_.push(Entry{at, next_seq_++, id});
    return id;
  }

  EventId schedule_in(Duration delay, Callback cb) {
    if (delay < Duration::zero()) delay = Duration::zero();
    return schedule_at(now_ + delay, std::move(cb));
  }

  bool cancel(EventId id) { return callbacks_.erase(id) > 0; }

  void run_until(TimePoint until) {
    if (until < now_) return;
    while (!queue_.empty() && queue_.top().at <= until) {
      const Entry entry = queue_.top();
      queue_.pop();
      now_ = dmps::util::max_time(now_, entry.at);
      const auto it = callbacks_.find(entry.id);
      if (it == callbacks_.end()) continue;  // cancelled
      Callback cb = std::move(it->second);
      callbacks_.erase(it);
      cb();
    }
    now_ = dmps::util::max_time(now_, until);
  }

  std::size_t pending() const { return callbacks_.size(); }

 private:
  struct Entry {
    TimePoint at;
    std::uint64_t seq;
    EventId id;
    bool operator>(const Entry& o) const {
      if (at != o.at) return o.at < at;
      return o.seq < seq;
    }
  };

  TimePoint now_ = TimePoint::zero();
  EventId next_id_ = 1;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue_;
  std::unordered_map<EventId, Callback> callbacks_;
};

// One seeded random stream of schedule / cancel / run_until calls, some of
// them made from inside callbacks. Everything observable goes to the log:
// the fire order with now() at each fire, every cancel() result, pending()
// after every call and now() after every window. Two stores that behave
// alike consume the stream identically, so their logs are equal.
template <class Sim>
class RandomStream {
 public:
  explicit RandomStream(std::uint64_t seed) : rng_(seed) {}

  std::vector<std::int64_t> run(int steps) {
    for (int i = 0; i < steps; ++i) step(false);
    sim_.run_until(sim_.now() + Duration::nanos(8 * kRing));
    put(kNow, sim_.now().raw_nanos());
    put(kPending, static_cast<std::int64_t>(sim_.pending()));
    return log_;
  }

 private:
  enum Tag : std::int64_t { kFire = 1, kCancel, kPending, kNow };

  void put(Tag tag, std::int64_t a, std::int64_t b = 0) {
    log_.insert(log_.end(), {tag, a, b});
  }

  std::int64_t below(std::int64_t n) {
    return static_cast<std::int64_t>(rng_.index(static_cast<std::size_t>(n)));
  }

  void step(bool in_callback) {
    const std::int64_t op = below(10);
    if (op < 5) {
      schedule();
    } else if (op < 8 || in_callback) {
      cancel();
    } else {
      window();
    }
    put(kPending, static_cast<std::int64_t>(sim_.pending()));
  }

  void schedule() {
    const std::size_t handle = ids_.size();
    ids_.push_back(0);
    auto cb = [this, handle] { fire(handle); };
    const std::int64_t now = sim_.now().raw_nanos();
    EventId id = 0;
    switch (below(9)) {
      case 0:
        id = sim_.schedule_in(Duration::zero(), cb);
        break;
      case 1:  // negative delay: clamps to now
        id = sim_.schedule_in(Duration::nanos(-1 - below(kRing)), cb);
        break;
      case 2:  // in the past, absolute: clamps to now
        id = sim_.schedule_at(TimePoint::from_nanos(now - below(4 * kBucket)), cb);
        break;
      case 3:  // within the current bucket or the next
        id = sim_.schedule_in(Duration::nanos(1 + below(kBucket - 1)), cb);
        break;
      case 4: {  // exactly on a bucket edge, a few behind to a few ahead
        const std::int64_t edge = (now / kBucket + below(8) - 2) * kBucket;
        id = sim_.schedule_at(TimePoint::from_nanos(edge < 0 ? 0 : edge), cb);
        break;
      }
      case 5:  // a whole number of buckets, up to just past the ring
        id = sim_.schedule_in(Duration::nanos(below(520) * kBucket), cb);
        break;
      case 6:
      case 7:  // anywhere in the ring
        id = sim_.schedule_in(Duration::nanos(below(kRing)), cb);
        break;
      default:  // past the ring
        id = sim_.schedule_in(Duration::nanos(kRing + below(3 * kRing)), cb);
        break;
    }
    ids_[handle] = id;
  }

  void cancel() {
    if (ids_.empty() || below(20) == 0) {
      put(kCancel, -1, sim_.cancel(0) ? 1 : 0);
      return;
    }
    // Half the picks are recent (mostly live), half reach back to ids that
    // fired, were cancelled, or whose slot has since been reused.
    const std::size_t n = ids_.size();
    const std::size_t handle =
        below(2) == 0 ? n - 1 - rng_.index(std::min<std::size_t>(n, 8)) : rng_.index(n);
    put(kCancel, static_cast<std::int64_t>(handle), sim_.cancel(ids_[handle]) ? 1 : 0);
  }

  void window() {
    const std::int64_t now = sim_.now().raw_nanos();
    std::int64_t until = now;
    switch (below(6)) {
      case 0:  // before now: a no-op
        until = now - 1 - below(4 * kBucket);
        break;
      case 1:
        break;
      case 2:  // ends mid-bucket
        until = now + 1 + below(kBucket);
        break;
      case 3:  // ends exactly on a bucket edge
        until = (now / kBucket + 1 + below(4)) * kBucket;
        break;
      case 4:
        until = now + below(kRing);
        break;
      default:
        until = now + kRing + below(2 * kRing);
        break;
    }
    sim_.run_until(TimePoint::from_nanos(until));
    put(kNow, sim_.now().raw_nanos());
  }

  void fire(std::size_t handle) {
    put(kFire, static_cast<std::int64_t>(handle), sim_.now().raw_nanos());
    // Re-entrant calls: fewer than one new event per fire on average, so
    // the stream stays finite.
    if (below(3) == 0) {
      const std::int64_t calls = 1 + below(2);
      for (std::int64_t i = 0; i < calls; ++i) step(true);
    }
  }

  dmps::util::Rng rng_;
  Sim sim_;
  std::vector<EventId> ids_;  // by handle, in scheduling order
  std::vector<std::int64_t> log_;
};

TEST(Simulator, MatchesTheReferenceStoreOnRandomStreams) {
  constexpr int kSeeds = 300;
  constexpr int kSteps = 400;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::vector<std::int64_t> want =
        RandomStream<ReferenceSimulator>(seed).run(kSteps);
    const std::vector<std::int64_t> got = RandomStream<Simulator>(seed).run(kSteps);
    const auto diverged =
        std::mismatch(want.begin(), want.end(), got.begin(), got.end());
    ASSERT_TRUE(diverged.first == want.end() && diverged.second == got.end())
        << "seed " << seed << ": logs diverge at entry "
        << (diverged.first - want.begin());
  }
}

}  // namespace
