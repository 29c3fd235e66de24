#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <unordered_map>
#include <vector>

#include "util/duration.hpp"
#include "util/flat_map.hpp"
#include "util/ids.hpp"
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

}  // namespace
