#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <unordered_map>
#include <vector>

#include "util/duration.hpp"
#include "util/flat_map.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "util/slot_pool.hpp"
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

TEST(SmallVec, OwningElementsAreBuiltMovedAndDestroyedInPlace) {
  // Elements that own heap memory (a result list's promotions carry
  // decisions): growth, copy, both kinds of move, pop_back and clear must
  // each build or destroy every element exactly once, which the sanitizer
  // build checks.
  using Strings = SmallVec<std::string, 2>;
  const auto text = [](int i) {
    return "an owning element too long for SSO #" + std::to_string(i);
  };
  Strings v;
  v.push_back(text(0));
  v.push_back(text(1));
  v.push_back(v[0]);  // an element of its own, across the spill it triggers
  EXPECT_FALSE(v.inline_storage());
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[2], text(0));
  EXPECT_EQ(v.back(), text(0));

  const Strings copy = v;
  EXPECT_EQ(copy, v);
  Strings stolen = std::move(v);  // steals the heap block
  EXPECT_EQ(stolen, copy);
  EXPECT_TRUE(v.empty());

  Strings small{text(5), text(6)};  // inline: moved element by element
  Strings moved = std::move(small);
  EXPECT_TRUE(moved.inline_storage());
  EXPECT_EQ(moved, (Strings{text(5), text(6)}));
  EXPECT_TRUE(small.empty());
  moved = copy;  // copy-assign over inline elements
  EXPECT_EQ(moved, copy);
  moved = std::move(stolen);
  EXPECT_EQ(moved, copy);

  moved.pop_back();
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(moved.back(), text(1));
  moved.clear();
  EXPECT_TRUE(moved.empty());
  moved.push_back(text(7));
  EXPECT_EQ(moved[0], text(7));
}

TEST(FlatMap, GrowthKeepsEveryKeyAndItsKeptEmptyValue) {
  using Slots = dmps::util::SmallVec<std::uint32_t, 2>;
  dmps::util::FlatMap<Slots> map;
  // Each entry spills its SmallVec to the heap; odd keys are then emptied
  // and kept, like a released holder's entry.
  constexpr std::uint32_t kKeys = 1000;
  int growths = 0;
  std::size_t slots = map.slot_count();
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    Slots& value = map[std::uint64_t{k} << 32 | 7];
    for (std::uint32_t i = 0; i < 3; ++i) value.push_back(k + i);
    if (k % 2 == 1) value.clear();
    if (map.slot_count() != slots) ++growths;
    slots = map.slot_count();
    EXPECT_LE(2 * map.size(), map.slot_count());  // at most half full
  }
  EXPECT_GE(growths, 6);  // 16 slots doubled to 2048
  EXPECT_EQ(map.size(), kKeys);
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    const Slots* value = map.find(std::uint64_t{k} << 32 | 7);
    ASSERT_NE(value, nullptr) << k;
    if (k % 2 == 1) {
      EXPECT_TRUE(value->empty()) << k;
      EXPECT_GE(value->capacity(), 3u) << k;  // its storage moved with it
    } else {
      EXPECT_EQ(*value, (Slots{k, k + 1, k + 2})) << k;
    }
  }
  std::size_t visited = 0;
  map.for_each([&](std::uint64_t key, Slots& value) {
    ++visited;
    EXPECT_EQ(value.empty(), (key >> 32) % 2 == 1);
  });
  EXPECT_EQ(visited, kKeys);
}

TEST(FlatMap, ProbeForAMissingKeyEndsAtAnEmptySlot) {
  dmps::util::FlatMap<int> map;
  EXPECT_EQ(map.find(3), nullptr);  // no slots yet
  // Eight keys fill 16 slots exactly half: the fullest the table gets.
  for (int i = 0; i < 8; ++i) map[static_cast<std::uint64_t>(i) * 16] = i;
  ASSERT_EQ(map.slot_count(), 16u);
  // Every probe for a missing key walks at most the occupied run it
  // lands in and stops at an empty slot: not found, never a wrong hit.
  for (std::uint64_t key = 0; key < 4096; ++key) {
    const int* found = map.find(key);
    if (key % 16 == 0 && key < 128) {
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(*found, static_cast<int>(key / 16));
    } else {
      EXPECT_EQ(found, nullptr) << key;
    }
  }
  map[128] = 8;  // the ninth key grows the table before it would pass half
  EXPECT_EQ(map.slot_count(), 32u);
}

TEST(FlatMap, EraseKeepsEveryOtherKeyReachable) {
  // Erase shifts the rest of the probe run back instead of leaving a
  // tombstone. Random inserts and erases over a small key range keep the
  // table small, so runs cluster and wrap past its end; after every step
  // each key must be found exactly when a reference map holds it.
  dmps::util::FlatMap<std::uint64_t> map;
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  Rng rng(41);
  for (int step = 0; step < 20'000; ++step) {
    const std::uint64_t key = rng.index(40);
    if (rng.chance(0.5)) {
      map[key] = static_cast<std::uint64_t>(step);
      reference[key] = static_cast<std::uint64_t>(step);
    } else {
      EXPECT_EQ(map.erase(key), reference.erase(key) == 1) << step;
    }
    ASSERT_EQ(map.size(), reference.size()) << step;
    for (std::uint64_t k = 0; k < 40; ++k) {
      const std::uint64_t* found = map.find(k);
      const auto it = reference.find(k);
      if (it == reference.end()) {
        ASSERT_EQ(found, nullptr) << "step " << step << " key " << k;
      } else {
        ASSERT_NE(found, nullptr) << "step " << step << " key " << k;
        ASSERT_EQ(*found, it->second) << "step " << step << " key " << k;
      }
    }
  }
  EXPECT_FALSE(map.erase(dmps::util::FlatMap<std::uint64_t>::kEmptyKey));

  // Keys that never return, like notify ids, with at most eight live:
  // the table stays sized by that population, not by the keys seen.
  dmps::util::FlatMap<int> ids;
  for (std::uint64_t id = 1; id <= 100'000; ++id) {
    ids[id] = 1;
    if (id > 8) {
      ASSERT_TRUE(ids.erase(id - 8)) << id;
    }
  }
  EXPECT_EQ(ids.size(), 8u);
  EXPECT_LE(ids.slot_count(), 32u);
}

TEST(FlatMap, ReserveFitsItsCountWithoutGrowing) {
  dmps::util::FlatMap<std::uint64_t> map;
  constexpr std::uint64_t kKeys = 1000;
  map.reserve(kKeys);
  const std::size_t slots = map.slot_count();
  EXPECT_EQ(slots, 2048u);  // the smallest power of two at least twice 1000
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    map[k << 32 | 7] = k;
    ASSERT_EQ(map.slot_count(), slots) << k;
  }
  map.reserve(kKeys / 2);  // never shrinks
  EXPECT_EQ(map.slot_count(), slots);
  map[kKeys << 32 | 7] = kKeys;  // one past the reserved count may grow
  EXPECT_LE(2 * map.size(), map.slot_count());
  // Reserving past the population rehashes: every entry stays reachable.
  map.reserve(4 * kKeys);
  EXPECT_EQ(map.slot_count(), 8192u);
  for (std::uint64_t k = 0; k <= kKeys; ++k) {
    const std::uint64_t* value = map.find(k << 32 | 7);
    ASSERT_NE(value, nullptr) << k;
    EXPECT_EQ(*value, k);
  }
}

TEST(FlatMap, ConstForEachVisitsEveryEntryOnce) {
  dmps::util::FlatMap<std::uint64_t> map;
  for (std::uint64_t k = 1; k <= 100; ++k) map[k * 977] = k;
  map.erase(977);  // a shifted probe run is still visited whole
  const dmps::util::FlatMap<std::uint64_t>& view = map;
  std::uint64_t visits = 0;
  std::uint64_t value_sum = 0;
  view.for_each([&](std::uint64_t key, const std::uint64_t& value) {
    ++visits;
    value_sum += value;
    EXPECT_EQ(key, value * 977);
  });
  EXPECT_EQ(visits, 99u);
  EXPECT_EQ(value_sum, 5050u - 1);
}

TEST(FlatMap, RefusesTheReservedKey) {
  using Map = dmps::util::FlatMap<int>;
  Map map;
  EXPECT_THROW(map[Map::kEmptyKey], std::invalid_argument);
  map[1] = 5;
  EXPECT_THROW(map[Map::kEmptyKey] = 6, std::invalid_argument);
  // An empty slot is never mistaken for the reserved key's entry.
  EXPECT_EQ(map.find(Map::kEmptyKey), nullptr);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.find(1), 5);
}

using Pool = dmps::util::SlotPool<int>;

/// The values along `list`, head to tail, and checked against the walk
/// back from the tail.
std::vector<int> walk(const Pool& pool, const Pool::List& list) {
  std::vector<int> forward;
  for (std::uint32_t s = list.head; s != Pool::kNone; s = pool.next(s)) {
    forward.push_back(pool[s]);
  }
  std::vector<int> backward;
  for (std::uint32_t s = list.tail; s != Pool::kNone; s = pool.prev(s)) {
    backward.insert(backward.begin(), pool[s]);
  }
  EXPECT_EQ(forward, backward);
  return forward;
}

TEST(SlotPool, LinksAndUnlinksAtTheHeadTheMiddleAndTheTail) {
  Pool pool;
  Pool::List list;
  std::uint32_t slot[6];
  for (int i = 0; i < 6; ++i) {
    slot[i] = pool.acquire();
    pool[slot[i]] = i;
  }
  pool.push_back(list, slot[2]);
  pool.push_back(list, slot[4]);                 // at the tail
  pool.insert_after(list, Pool::kNone, slot[0]);  // at the head
  pool.insert_after(list, slot[2], slot[3]);      // in the middle
  pool.insert_after(list, slot[0], slot[1]);
  pool.insert_after(list, slot[4], slot[5]);      // after the tail
  EXPECT_EQ(walk(pool, list), (std::vector<int>{0, 1, 2, 3, 4, 5}));

  pool.unlink(list, slot[0]);  // the head
  EXPECT_EQ(walk(pool, list), (std::vector<int>{1, 2, 3, 4, 5}));
  pool.unlink(list, slot[3]);  // the middle
  EXPECT_EQ(walk(pool, list), (std::vector<int>{1, 2, 4, 5}));
  pool.unlink(list, slot[5]);  // the tail
  EXPECT_EQ(walk(pool, list), (std::vector<int>{1, 2, 4}));
  pool.push_back(list, slot[0]);  // an unlinked node links again
  EXPECT_EQ(walk(pool, list), (std::vector<int>{1, 2, 4, 0}));
  for (const int i : {2, 1, 0, 4}) pool.unlink(list, slot[i]);
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.tail, Pool::kNone);
}

TEST(SlotPool, ReleasedSlotsAreReusedLastInFirstOut) {
  Pool pool;
  for (int i = 0; i < 4; ++i) pool[pool.acquire()] = 10 + i;
  EXPECT_EQ(pool.size(), 4u);
  pool.release(1);
  pool.release(3);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.slots(), 4u);
  EXPECT_EQ(pool[3], 13);  // release leaves the value alone
  EXPECT_EQ(pool.acquire(), 3u);
  EXPECT_EQ(pool.acquire(), 1u);
  EXPECT_EQ(pool.acquire(), 4u);  // the free list is empty: a new node
  EXPECT_EQ(pool.size(), 5u);
  EXPECT_EQ(pool.slots(), 5u);
}

TEST(SlotPool, ReleasedIdsNeverMatch) {
  Pool pool;
  const std::uint32_t slot = pool.acquire();
  const Pool::Id first = pool.id(slot);
  EXPECT_EQ(first, 1u);  // generation 0, slot 0: the low word is slot + 1
  EXPECT_EQ(pool.find(first), slot);
  pool.release(slot);
  EXPECT_EQ(pool.find(first), Pool::kNone);
  std::vector<Pool::Id> stale{first};
  for (int round = 1; round < 1'000; ++round) {
    const std::uint32_t s = pool.acquire();
    ASSERT_EQ(s, slot);  // the same slot every time
    stale.push_back(pool.id(s));
    pool.release(s);
  }
  const std::uint32_t again = pool.acquire();
  const Pool::Id live = pool.id(again);
  EXPECT_EQ(live, Pool::Id{1'000} << 32 | 1);  // a generation per release
  EXPECT_EQ(pool.find(live), again);
  for (const Pool::Id id : stale) EXPECT_EQ(pool.find(id), Pool::kNone) << id;
}

TEST(SlotPool, ZeroOutOfRangeAndUnmintedIdsFindNothing) {
  Pool pool;
  EXPECT_EQ(pool.find(0), Pool::kNone);
  EXPECT_EQ(pool.find(1), Pool::kNone);  // no node yet
  const std::uint32_t a = pool.acquire();
  const std::uint32_t b = pool.acquire();
  EXPECT_EQ(pool.find(0), Pool::kNone);
  EXPECT_EQ(pool.find(Pool::Id{0} << 32 | 3), Pool::kNone);  // slot 2
  EXPECT_EQ(pool.find(~Pool::Id{0}), Pool::kNone);
  const Pool::Id next_of_b = Pool::Id{1} << 32 | (b + 1);
  EXPECT_EQ(pool.find(next_of_b), Pool::kNone);  // b's generation is 0
  pool.release(b);
  // b's next generation is not minted until b is acquired again.
  EXPECT_EQ(pool.find(next_of_b), Pool::kNone);
  EXPECT_EQ(pool.find(pool.id(a)), a);
}

}  // namespace
