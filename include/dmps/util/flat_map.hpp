#pragma once
// FlatMap: a hash table from 64-bit keys to values.
//
// Most per-operation maps in the library only ever find or insert: an
// entry whose state goes quiet is kept, emptied, so a returning key reuses
// it (SimNetwork's link overrides, GrantStore's holder index,
// QueueingPolicy's parked index, UdpEndpoint's peer ids, the fingerprint
// accumulator's per-station sums). One flat array serves them all: open
// addressing with linear probing over a power-of-two slot count kept at
// most half full, so every probe ends at an empty slot, and a
// multiplicative hash. A lookup is one multiply, one mask and a short
// scan of adjacent slots: no division by a prime, no node to chase. The
// one map whose keys do not return — FloorServer's pending notifications,
// keyed by a notify id minted once — erases instead: erase() shifts the
// rest of the probe run back, so no tombstone lengthens later probes, and
// the slot array, sized by the peak population, is kept.
//
// kEmptyKey marks an empty slot, so it cannot be stored: operator[] throws
// std::invalid_argument for it, and find() never finds it. reserve() sizes
// the table for a known key count up front, so a warm path's first-contact
// inserts never allocate. Inserting a new key may grow the table and
// erasing may shift entries, either of which moves entries: a pointer or
// reference to a value stays valid only until the next insert of a new key
// or the next erase.

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
      rehash(std::max(kMinSlots, 2 * slots_.size()));
    }
    Slot& slot = slots_[probe(key)];
    if (slot.key == kEmptyKey) {
      slot.key = key;
      ++size_;
    }
    return slot.value;
  }

  /// Remove `key` and its value; false when it was not stored.
  bool erase(std::uint64_t key) {
    if (slots_.empty()) return false;
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = probe(key);
    if (slots_[hole].key == kEmptyKey) return false;
    // Backward shift: walk the probe run past the hole, and move back into
    // it every entry whose home slot does not lie cyclically in
    // (hole, entry] — the entries a probe from their home would otherwise
    // no longer reach across the emptied slot.
    for (std::size_t i = (hole + 1) & mask; slots_[i].key != kEmptyKey;
         i = (i + 1) & mask) {
      const std::size_t home = hash(slots_[i].key) & mask;
      const bool reachable = hole <= i ? (hole < home && home <= i)
                                       : (hole < home || home <= i);
      if (reachable) continue;
      slots_[hole].key = slots_[i].key;
      slots_[hole].value = std::move(slots_[i].value);
      hole = i;
    }
    slots_[hole].key = kEmptyKey;
    slots_[hole].value = V{};
    --size_;
    return true;
  }

  /// Size the table so `keys` keys fit without growing: inserts up to that
  /// count never allocate.
  void reserve(std::size_t keys) {
    std::size_t slots = kMinSlots;
    while (slots < 2 * keys) slots *= 2;
    if (slots > slots_.size()) rehash(slots);
  }

  /// Call visit(key, value) for every stored entry, in slot order.
  template <typename Visit>
  void for_each(Visit&& visit) {
    for (Slot& slot : slots_) {
      if (slot.key != kEmptyKey) visit(slot.key, slot.value);
    }
  }
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (const Slot& slot : slots_) {
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

  /// Move every entry into a fresh array of `slots` slots (a power of two).
  void rehash(std::size_t slots) {
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(slots);
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
