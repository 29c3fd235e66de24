#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <utility>
#include <unordered_map>
#include <vector>

#include "util/duration.hpp"
#include "util/ids.hpp"
#include "util/mpsc_mailbox.hpp"
#include "util/rng.hpp"
#include "util/small_vec.hpp"

namespace {

using dmps::util::Duration;
using dmps::util::Rng;
using dmps::util::TimePoint;

TEST(Duration, ConstructorsAndConversions) {
  EXPECT_EQ(Duration::millis(1500).to_seconds(), 1.5);
  EXPECT_EQ(Duration::seconds(2).to_millis(), 2000.0);
  EXPECT_EQ(Duration::from_seconds(0.25).raw_nanos(), 250'000'000);
  EXPECT_EQ(Duration::from_millis(37.0), Duration::millis(37));
  EXPECT_EQ(Duration::zero().raw_nanos(), 0);
  // Rounding is to nearest, symmetric around zero.
  EXPECT_EQ(Duration::from_seconds(1e-9 * 0.6).raw_nanos(), 1);
  EXPECT_EQ(Duration::from_seconds(-1e-9 * 0.6).raw_nanos(), -1);
}

TEST(Duration, Arithmetic) {
  const Duration a = Duration::seconds(3);
  const Duration b = Duration::millis(500);
  EXPECT_EQ((a + b).to_seconds(), 3.5);
  EXPECT_EQ((a - b).to_seconds(), 2.5);
  EXPECT_EQ((b * 4.0), Duration::seconds(2));
  EXPECT_EQ((a / 2.0), Duration::millis(1500));
  EXPECT_LT(-a, Duration::zero());
  EXPECT_GT(a, b);
}

TEST(TimePoint, ArithmeticAgainstDuration) {
  const TimePoint t = TimePoint::from_seconds(10.0);
  EXPECT_EQ((t + Duration::seconds(5)).to_seconds(), 15.0);
  EXPECT_EQ((t - Duration::seconds(4)).to_seconds(), 6.0);
  EXPECT_EQ(t - TimePoint::from_seconds(7.5), Duration::from_seconds(2.5));
  EXPECT_EQ(TimePoint::zero().raw_nanos(), 0);
  EXPECT_LT(TimePoint::zero(), t);
}

TEST(StrongId, DistinctTypesAndValidity) {
  using AId = dmps::util::StrongId<struct ATag>;
  const AId unset;
  EXPECT_FALSE(unset.valid());
  const AId a{3};
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.value(), 3u);
  EXPECT_NE(a, unset);
  EXPECT_EQ(a, AId{3});

  std::unordered_map<AId, int, dmps::util::IdHash> map;
  map[a] = 7;
  EXPECT_EQ(map.at(AId{3}), 7);
}

TEST(Rng, DeterministicAndInRange) {
  Rng a(42), b(42), c(43);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) diverged = true;
  }
  EXPECT_TRUE(diverged);

  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(r.index(5), 5u);
  }
}

using dmps::util::MpscMailbox;
using dmps::util::SmallVec;

TEST(SmallVec, StaysInlineUpToCapacityThenSpills) {
  SmallVec<std::int64_t, 4> v;
  EXPECT_TRUE(v.empty());
  for (std::int64_t i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_TRUE(v.inline_storage());
  EXPECT_EQ(v.size(), 4u);
  v.push_back(4);  // spills to the heap
  EXPECT_FALSE(v.inline_storage());
  EXPECT_EQ(v.size(), 5u);
  for (std::int64_t i = 0; i < 5; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SmallVec, InitializerListCopyMoveAndEquality) {
  const SmallVec<std::int64_t, 4> a{1, 2, 3};
  EXPECT_TRUE(a.inline_storage());
  SmallVec<std::int64_t, 4> b = a;  // copy
  EXPECT_EQ(a, b);
  b.push_back(4);
  EXPECT_NE(a, b);

  SmallVec<std::int64_t, 2> big{1, 2, 3, 4, 5};  // heap from the start
  EXPECT_FALSE(big.inline_storage());
  SmallVec<std::int64_t, 2> stolen = std::move(big);  // steals the heap block
  EXPECT_EQ(stolen.size(), 5u);
  EXPECT_EQ(big.size(), 0u);
  EXPECT_EQ(stolen, (SmallVec<std::int64_t, 2>{1, 2, 3, 4, 5}));

  // Moving an inline payload copies it and empties the source.
  SmallVec<std::int64_t, 4> moved = std::move(b);
  EXPECT_EQ(moved.size(), 4u);
  EXPECT_EQ(b.size(), 0u);
}

TEST(SmallVec, AtBoundsChecksAndClearKeepsStorage) {
  SmallVec<std::int64_t, 2> v{7, 8, 9};
  EXPECT_EQ(v.at(2), 9);
  EXPECT_THROW(v.at(3), std::out_of_range);
  const std::size_t cap = v.capacity();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), cap);
}

TEST(MpscMailbox, FifoOrderAndCloseSemantics) {
  MpscMailbox<int> box(8);
  EXPECT_TRUE(box.push(1));
  EXPECT_TRUE(box.push(2));
  EXPECT_TRUE(box.push(3));
  box.close();
  EXPECT_FALSE(box.push(4));  // closed to producers...
  std::vector<int> out;
  EXPECT_EQ(box.pop_all(out), 3u);  // ...but the consumer drains what landed
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  box.mark_done(3);
  EXPECT_EQ(box.pop_all(out), 0u);  // closed and drained
  EXPECT_EQ(out.size(), 3u);        // 0 appended nothing
  box.wait_idle();                  // trivially idle, must not hang
}

TEST(MpscMailbox, BoundBlocksProducersUntilConsumed) {
  MpscMailbox<int> box(2);
  EXPECT_TRUE(box.push(1));
  EXPECT_TRUE(box.push(2));

  std::atomic<bool> third_landed{false};
  std::thread producer([&] {
    EXPECT_TRUE(box.push(3));  // full: blocks until the consumer drains
    third_landed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_landed.load());

  std::vector<int> out;
  EXPECT_EQ(box.pop_all(out), 2u);  // never more than the bound
  box.mark_done(2);
  producer.join();
  EXPECT_TRUE(third_landed.load());
  EXPECT_EQ(box.pop_all(out), 1u);
  box.mark_done(1);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  box.wait_idle();
}

TEST(MpscMailbox, ManyProducersOneConsumerKeepsEveryItem) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  MpscMailbox<std::pair<int, int>> box(16);

  std::vector<std::vector<int>> seen(kProducers);
  std::thread consumer([&] {
    std::vector<std::pair<int, int>> buffer;
    while (const std::size_t n = box.pop_all(buffer)) {
      for (const auto& [p, i] : buffer) {
        seen[static_cast<std::size_t>(p)].push_back(i);
      }
      buffer.clear();
      box.mark_done(n);
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) EXPECT_TRUE(box.push({p, i}));
    });
  }
  for (std::thread& producer : producers) producer.join();
  box.wait_idle();
  box.close();
  consumer.join();

  // Nothing lost, and each producer's items arrived in its own push order.
  for (int p = 0; p < kProducers; ++p) {
    ASSERT_EQ(seen[static_cast<std::size_t>(p)].size(),
              static_cast<std::size_t>(kPerProducer));
    for (int i = 0; i < kPerProducer; ++i) {
      EXPECT_EQ(seen[static_cast<std::size_t>(p)][static_cast<std::size_t>(i)], i);
    }
  }
}

// "PushAll" in the names below means pushing a whole run of items, one
// push() each.
TEST(MpscMailbox, PushAllPopAllKeepFifoWithTheItemInterface) {
  MpscMailbox<int> box(8);
  for (int i = 1; i <= 6; ++i) EXPECT_TRUE(box.push(int{i}));

  std::vector<int> out;
  out.reserve(box.capacity());
  EXPECT_EQ(box.pop_all(out), 6u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  box.mark_done(6);
  box.wait_idle();  // all drained AND marked done: must not hang

  // pop_all appends: a second burst lands behind the first, still in order.
  EXPECT_TRUE(box.push(7));
  EXPECT_EQ(box.pop_all(out), 1u);
  EXPECT_EQ(out.back(), 7);
  box.mark_done(1);
}

TEST(MpscMailbox, PushAllSplitsAcrossEpisodesWhenBatchExceedsCapacity) {
  MpscMailbox<int> box(4);
  std::vector<int> items(10);
  for (int i = 0; i < 10; ++i) items[static_cast<std::size_t>(i)] = i;

  std::thread producer([&] {
    // Larger than capacity: the producer blocks between drains instead of
    // losing items — every one lands.
    for (int item : items) EXPECT_TRUE(box.push(int{item}));
  });
  std::vector<int> seen;
  std::vector<int> buffer;
  buffer.reserve(box.capacity());
  std::size_t episodes = 0;
  while (seen.size() < 10) {
    buffer.clear();
    const std::size_t n = box.pop_all(buffer);
    ASSERT_GT(n, 0u);
    ASSERT_LE(n, box.capacity());
    seen.insert(seen.end(), buffer.begin(), buffer.end());
    box.mark_done(n);
    ++episodes;
  }
  producer.join();
  box.wait_idle();
  EXPECT_GE(episodes, 3u);  // 10 items through a 4-slot ring
  EXPECT_EQ(seen, items);   // single producer: order holds across episodes
}

TEST(MpscMailbox, PushAllOnClosedAcceptsNothingAndLeavesItemsIntact) {
  MpscMailbox<std::vector<int>> box(4);
  std::vector<std::vector<int>> items;
  for (int i = 0; i < 4; ++i) items.push_back({i, i, i});

  EXPECT_TRUE(box.push(std::move(items[0])));
  EXPECT_TRUE(box.push(std::move(items[1])));
  box.close();
  // A refused item must be left untouched so the producer can refuse the
  // op itself instead of losing it — reading it after the failed move is
  // the contract under test.
  EXPECT_FALSE(box.push(std::move(items[2])));
  EXPECT_FALSE(box.push(std::move(items[3])));
  EXPECT_EQ(items[2], (std::vector<int>{2, 2, 2}));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(items[3], (std::vector<int>{3, 3, 3}));  // NOLINT(bugprone-use-after-move)

  std::vector<std::vector<int>> out;
  EXPECT_EQ(box.pop_all(out), 2u);  // what landed before close still drains
  box.mark_done(2);
  EXPECT_EQ(out[1], (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(box.pop_all(out), 0u);
  box.wait_idle();
}

TEST(MpscMailbox, WaitIdleBlocksUntilBulkDrainIsMarkedDone) {
  MpscMailbox<int> box(8);
  for (int i = 7; i <= 9; ++i) ASSERT_TRUE(box.push(int{i}));
  std::vector<int> out;
  ASSERT_EQ(box.pop_all(out), 3u);

  // Dequeued but not processed: wait_idle must NOT return yet.
  std::atomic<bool> idle{false};
  std::thread waiter([&] {
    box.wait_idle();
    idle.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(idle.load());

  box.mark_done(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(idle.load());  // one item still in flight

  box.mark_done(1);
  waiter.join();
  EXPECT_TRUE(idle.load());
}

TEST(MpscMailbox, BulkProducersKeepPerProducerOrderThroughPopAll) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 490;
  constexpr int kBurst = 7;  // deliberately co-prime with the capacity
  MpscMailbox<std::pair<int, int>> box(16);

  std::vector<std::vector<int>> seen(kProducers);
  std::size_t largest_drain = 0;
  std::thread consumer([&] {
    std::vector<std::pair<int, int>> buffer;
    buffer.reserve(box.capacity());
    while (true) {
      buffer.clear();
      const std::size_t n = box.pop_all(buffer);
      if (n == 0) break;
      largest_drain = std::max(largest_drain, n);
      for (const auto& [p, i] : buffer) {
        seen[static_cast<std::size_t>(p)].push_back(i);
      }
      box.mark_done(n);
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Bursts of kBurst back-to-back pushes, a yield between bursts, so
      // drains see runs from several producers interleaved.
      for (int base = 0; base < kPerProducer; base += kBurst) {
        for (int i = base; i < base + kBurst; ++i) {
          EXPECT_TRUE(box.push({p, i}));
        }
        std::this_thread::yield();
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  box.wait_idle();
  box.close();
  consumer.join();

  // Nothing lost, no drain above the bound, and each producer's items
  // arrived in its own push order.
  EXPECT_LE(largest_drain, box.capacity());
  for (int p = 0; p < kProducers; ++p) {
    ASSERT_EQ(seen[static_cast<std::size_t>(p)].size(),
              static_cast<std::size_t>(kPerProducer));
    for (int i = 0; i < kPerProducer; ++i) {
      EXPECT_EQ(seen[static_cast<std::size_t>(p)][static_cast<std::size_t>(i)], i);
    }
  }
}

// The documented happens-before edge of wait_idle(): everything the
// consumer wrote while processing (here: plain, unsynchronized ints)
// must be readable after wait_idle() returns, because the wait and the
// consumer's mark_done() go through the same mutex. TSan turns any hole
// in that edge into a CI failure; this is the regression pin for the
// mailbox's annotated-lock rewrite (DESIGN.md §10).
TEST(MpscMailbox, WaitIdleHappensAfterConsumerWrites) {
  constexpr int kItems = 2000;
  MpscMailbox<int> box(32);

  // Deliberately NOT atomic: only the wait_idle() edge orders these.
  std::vector<int> processed;
  long long sum = 0;
  std::thread consumer([&] {
    std::vector<int> buffer;
    buffer.reserve(box.capacity());
    while (true) {
      buffer.clear();
      const std::size_t n = box.pop_all(buffer);
      if (n == 0) break;
      for (int v : buffer) {
        processed.push_back(v);
        sum += v;
      }
      box.mark_done(n);
    }
  });

  for (int i = 1; i <= kItems; ++i) {
    ASSERT_TRUE(box.push(int{i}));
  }
  box.wait_idle();
  // Consumer-owned state, read without any other synchronization.
  EXPECT_EQ(processed.size(), static_cast<std::size_t>(kItems));
  EXPECT_EQ(sum, static_cast<long long>(kItems) * (kItems + 1) / 2);

  box.close();
  consumer.join();
}

}  // namespace
