#pragma once
// FlatMap: an insert-only hash table from 64-bit keys to values.
//
// Every per-operation map in the library only ever finds or inserts: an
// entry whose state goes quiet is kept, emptied, so a returning key reuses
// it (SimNetwork's link overrides, GrantStore's holder index,
// ShardedFloorService's route stripes, FloorServer's member records,
// UdpEndpoint's peer ids). Without erase, one flat array serves them all:
// open addressing with linear probing over a power-of-two slot count kept
// at most half full, so every probe ends at an empty slot, and a
// multiplicative hash. A lookup is one multiply, one mask and a short scan
// of adjacent slots: no division by a prime, no node to chase.
//
// kEmptyKey marks an empty slot, so it cannot be stored: operator[] throws
// std::invalid_argument for it, and find() never finds it. Inserting a new
// key may grow the table, which moves every entry: a pointer or reference
// to a value stays valid only until the next insert of a new key.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace dmps::util {

template <typename V>
class FlatMap {
 public:
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  /// The value stored under `key`, or nullptr.
  V* find(std::uint64_t key) {
    if (slots_.empty()) return nullptr;
    Slot& slot = slots_[probe(key)];
    return slot.key == kEmptyKey ? nullptr : &slot.value;
  }
  const V* find(std::uint64_t key) const {
    if (slots_.empty()) return nullptr;
    const Slot& slot = slots_[probe(key)];
    return slot.key == kEmptyKey ? nullptr : &slot.value;
  }

  /// The value stored under `key`, inserted value-initialized when absent.
  V& operator[](std::uint64_t key) {
    if (key == kEmptyKey) {
      throw std::invalid_argument("FlatMap: the empty-slot key cannot be stored");
    }
    if (2 * (size_ + 1) > slots_.size()) {  // one more key would pass half
      if (V* const value = find(key)) return *value;
      grow();
    }
    Slot& slot = slots_[probe(key)];
    if (slot.key == kEmptyKey) {
      slot.key = key;
      ++size_;
    }
    return slot.value;
  }

  /// Call visit(key, value) for every stored entry, in slot order.
  template <typename Visit>
  void for_each(Visit&& visit) {
    for (Slot& slot : slots_) {
      if (slot.key != kEmptyKey) visit(slot.key, slot.value);
    }
  }

  std::size_t size() const { return size_; }
  /// Slots allocated: a power of two, at least twice size() (0 until the
  /// first insert).
  std::size_t slot_count() const { return slots_.size(); }

 private:
  static constexpr std::size_t kMinSlots = 16;

  struct Slot {
    std::uint64_t key = kEmptyKey;
    V value{};
  };

  // Fibonacci hashing: the product's high half mixes every key bit.
  static std::size_t hash(std::uint64_t key) {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15u) >> 32);
  }

  /// The slot holding `key`, or the empty slot that ends its probe run.
  std::size_t probe(std::uint64_t key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(key) & mask;
    while (slots_[i].key != kEmptyKey && slots_[i].key != key) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(std::max(kMinSlots, 2 * old.size()));
    for (Slot& from : old) {
      if (from.key == kEmptyKey) continue;
      Slot& to = slots_[probe(from.key)];
      to.key = from.key;
      to.value = std::move(from.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace dmps::util
