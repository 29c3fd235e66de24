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

// Records every fire(arg) as its tag in a shared order log.
class TagTarget final : public Simulator::Target {
 public:
  explicit TagTarget(std::vector<int>& order) : order_(order) {}
  void fire(std::uint32_t arg) override { order_.push_back(static_cast<int>(arg)); }

 private:
  std::vector<int>& order_;
};

TEST(Simulator, TargetEventIntoTheRunningBucketJoinsItsRunInOrder) {
  // Entries a target event lands among were sorted into the bucket's run
  // before it existed; it goes to the side heap and must still interleave
  // by time, and after the run's entry at the same instant.
  Simulator sim;
  std::vector<int> order;
  TagTarget target(order);
  const Simulator::TargetId id = sim.add_target(target);
  const std::int64_t base = 3 * kBucket;
  const auto at = [&](std::int64_t ns, int tag) {
    sim.schedule_at(TimePoint::from_nanos(base + ns),
                    [&order, tag] { order.push_back(tag); });
  };
  sim.schedule_at(TimePoint::from_nanos(base + 10), [&] {
    order.push_back(1);
    sim.post_in(Duration::nanos(5), id, 2);   // base + 15
    sim.post_in(Duration::nanos(20), id, 4);  // base + 30, after tag 3
    sim.post_in(Duration::nanos(-7), id, 6);  // clamps to base + 10
  });
  at(30, 3);
  at(50, 5);
  EXPECT_EQ(sim.pending(), 3u);
  sim.run_until(TimePoint::from_nanos(base + 40));
  EXPECT_EQ(order, (std::vector<int>{1, 6, 2, 3, 4}));
  EXPECT_EQ(sim.now(), TimePoint::from_nanos(base + 40));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(TimePoint::from_nanos(base + kBucket));
  EXPECT_EQ(order, (std::vector<int>{1, 6, 2, 3, 4, 5}));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, TargetEventBehindTheCurrentBucketAfterAMidBucketWindow) {
  // run_until made bucket 5 current to find its next event, then stopped
  // mid-bucket 1; target events posted now into bucket 2, and into bucket
  // 5 ahead of and level with its sorted run, must keep (time, insertion)
  // order.
  Simulator sim;
  std::vector<int> order;
  TagTarget target(order);
  const Simulator::TargetId id = sim.add_target(target);
  sim.schedule_at(TimePoint::from_nanos(5 * kBucket + 100),
                  [&] { order.push_back(3); });
  sim.run_until(TimePoint::from_nanos(kBucket + 7));
  EXPECT_TRUE(order.empty());
  const auto post_at = [&](std::int64_t ns, int tag) {
    sim.post_in(Duration::nanos(ns - sim.now().raw_nanos()), id,
                static_cast<std::uint32_t>(tag));
  };
  post_at(2 * kBucket + 3, 1);
  post_at(5 * kBucket + 50, 2);
  post_at(5 * kBucket + 100, 4);
  post_at(kBucket + 7 + 2 * kRing, 5);  // past the ring
  EXPECT_EQ(sim.pending(), 5u);
  sim.run_until(TimePoint::from_nanos(3 * kRing));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.pending(), 0u);
}

// The binary heap + hash map store Simulator used before the calendar
// queue, kept as the reference model for the differential test below.
class ReferenceSimulator {
 public:
  using Callback = std::function<void()>;
  using Target = Simulator::Target;
  using TargetId = Simulator::TargetId;

  TimePoint now() const { return now_; }

  // A target event is a callback nobody holds the id of.
  TargetId add_target(Target& target) {
    targets_.push_back(&target);
    return static_cast<TargetId>(targets_.size() - 1);
  }

  void post_in(Duration delay, TargetId target, std::uint32_t arg) {
    schedule_in(delay, [this, target, arg] { targets_[target]->fire(arg); });
  }

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
  std::vector<Target*> targets_;
};

// One seeded random stream of schedule / post / cancel / run_until calls,
// some of them made from inside callbacks and target events. Everything
// observable goes to the log: the fire order with now() at each fire, the
// target each target event reached, every cancel() result, pending() after
// every call and now() after every window. Two stores that behave alike
// consume the stream identically, so their logs are equal.
template <class Sim>
class RandomStream {
 public:
  explicit RandomStream(std::uint64_t seed) : rng_(seed) {
    // Two targets, so a target event routed to the wrong one shows.
    for (std::size_t i = 0; i < 2; ++i) {
      sinks_[i].stream = this;
      sinks_[i].tag = static_cast<std::int64_t>(i);
      sinks_[i].id = sim_.add_target(sinks_[i]);
    }
  }
  RandomStream(const RandomStream&) = delete;
  RandomStream& operator=(const RandomStream&) = delete;

  std::vector<std::int64_t> run(int steps) {
    for (int i = 0; i < steps; ++i) step(false);
    sim_.run_until(sim_.now() + Duration::nanos(8 * kRing));
    put(kNow, sim_.now().raw_nanos());
    put(kPending, static_cast<std::int64_t>(sim_.pending()));
    return log_;
  }

 private:
  enum Tag : std::int64_t { kFire = 1, kCancel, kPending, kNow, kSink };

  struct Sink final : Simulator::Target {
    RandomStream* stream = nullptr;
    std::int64_t tag = 0;
    typename Sim::TargetId id = 0;
    void fire(std::uint32_t handle) override {
      stream->put(kSink, tag);
      stream->on_fire(handle);
    }
  };

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
    const std::int64_t now = sim_.now().raw_nanos();
    std::int64_t delay = 0;  // from now; negative clamps to now
    bool absolute = false;   // schedule_at(now + delay) in place of schedule_in
    switch (below(9)) {
      case 0:
        break;
      case 1:  // negative delay: clamps to now
        delay = -1 - below(kRing);
        break;
      case 2:  // in the past, absolute: clamps to now
        delay = -below(4 * kBucket);
        absolute = true;
        break;
      case 3:  // within the current bucket or the next
        delay = 1 + below(kBucket - 1);
        break;
      case 4: {  // exactly on a bucket edge, a few behind to a few ahead
        const std::int64_t edge = (now / kBucket + below(8) - 2) * kBucket;
        delay = (edge < 0 ? 0 : edge) - now;
        absolute = true;
        break;
      }
      case 5:  // a whole number of buckets, up to just past the ring
        delay = below(520) * kBucket;
        break;
      case 6:
      case 7:  // anywhere in the ring
        delay = below(kRing);
        break;
      default:  // past the ring
        delay = kRing + below(3 * kRing);
        break;
    }
    if (below(3) == 0) {  // a target event: it has no id to cancel
      sim_.post_in(Duration::nanos(delay), sinks_[rng_.index(2)].id,
                   static_cast<std::uint32_t>(handle));
      return;
    }
    auto cb = [this, handle] { on_fire(handle); };
    ids_[handle] = absolute ? sim_.schedule_at(TimePoint::from_nanos(now + delay), cb)
                            : sim_.schedule_in(Duration::nanos(delay), cb);
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

  void on_fire(std::size_t handle) {
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
  Sink sinks_[2];
  std::vector<EventId> ids_;  // by handle, in scheduling order; 0 for posts
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
