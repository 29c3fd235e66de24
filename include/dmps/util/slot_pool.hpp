#pragma once
// SlotPool: nodes in one vector, recycled through a free list, named by
// generation-checked ids and threaded into lists their owner keeps.
//
// The simulator's callbacks, the timer wheel's entries, a host's grants
// and its parked requests are each a population that comes and goes far
// faster than it grows. One pool serves them all:
//   - Storage stops growing at the peak population. A released node goes
//     on a LIFO free list, reserved to the node vector's capacity, so once
//     the pool has seen its peak, acquire and release allocate nothing.
//   - Ids go stale. A node's id is `generation << 32 | (slot + 1)`, never 0,
//     and release bumps the node's generation, so find() answers kNone for
//     an id whose node was released since (an event that fired or was
//     cancelled) and for one never minted. A stale id can match again only
//     after its slot has been reused 2^32 times (DESIGN §6.3's wrap bound).
//   - Lists run through the nodes. A List{head, tail} belongs to its owner
//     (a priority bucket, a group's FIFO, a wheel slot); a node sits in at
//     most one list at a time, and is unlinked before it is released.
//
// release leaves the value alone: an owner whose value holds something (a
// std::function and what it captured) clears it first. acquire hands back
// a node holding whatever it last held, for the owner to assign. A slot
// number names its node for the node's life; a reference to a value stays
// valid until the next acquire, which may grow the vector.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dmps::util {

template <typename T>
class SlotPool {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  using Id = std::uint64_t;

  /// A doubly linked list through the pool's nodes (kNone at an end).
  struct List {
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
    bool empty() const { return head == kNone; }
  };

  T& operator[](std::uint32_t slot) { return nodes_[slot].value; }
  const T& operator[](std::uint32_t slot) const { return nodes_[slot].value; }

  // dmps-lint: hot-begin(slot-pool) — every grant, parked request, wheel
  // timer and simulator callback is acquired, linked and released here.
  /// A free node, the most recently released first, or a new one.
  std::uint32_t acquire() {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
      free_.reserve(nodes_.capacity());  // it never outgrows the pool
    }
    nodes_[slot].live = true;
    return slot;
  }

  /// Free the node in `slot`: every id minted for it stops matching.
  void release(std::uint32_t slot) {
    Node& node = nodes_[slot];
    node.live = false;
    ++node.gen;
    free_.push_back(slot);
  }

  /// The id of the live node in `slot`.
  Id id(std::uint32_t slot) const {
    return Id{nodes_[slot].gen} << 32 | (Id{slot} + 1);
  }

  /// The slot of the live node `id` names, or kNone.
  std::uint32_t find(Id id) const {
    // A low word of 0 wraps to a slot past the end of any pool.
    const std::uint64_t slot = (id & 0xffffffffu) - 1;
    if (slot >= nodes_.size()) return kNone;
    const Node& node = nodes_[slot];
    return node.live && node.gen == static_cast<std::uint32_t>(id >> 32)
               ? static_cast<std::uint32_t>(slot)
               : kNone;
  }

  std::uint32_t next(std::uint32_t slot) const { return nodes_[slot].next; }
  std::uint32_t prev(std::uint32_t slot) const { return nodes_[slot].prev; }

  void push_back(List& list, std::uint32_t slot) {
    insert_after(list, list.tail, slot);
  }

  /// Link `slot` into `list` right after `after`, or at its head when
  /// `after` is kNone.
  void insert_after(List& list, std::uint32_t after, std::uint32_t slot) {
    Node& node = nodes_[slot];
    node.prev = after;
    node.next = after == kNone ? list.head : nodes_[after].next;
    if (node.next != kNone) {
      nodes_[node.next].prev = slot;
    } else {
      list.tail = slot;
    }
    if (after != kNone) {
      nodes_[after].next = slot;
    } else {
      list.head = slot;
    }
  }

  void unlink(List& list, std::uint32_t slot) {
    const Node& node = nodes_[slot];
    if (node.prev != kNone) {
      nodes_[node.prev].next = node.next;
    } else {
      list.head = node.next;
    }
    if (node.next != kNone) {
      nodes_[node.next].prev = node.prev;
    } else {
      list.tail = node.prev;
    }
  }
  // dmps-lint: hot-end

  /// Live nodes.
  std::size_t size() const { return nodes_.size() - free_.size(); }
  /// Nodes allocated: the peak number ever live at once.
  std::size_t slots() const { return nodes_.size(); }

 private:
  struct Node {
    T value{};
    std::uint32_t prev = kNone;
    std::uint32_t next = kNone;
    std::uint32_t gen = 0;  // bumped each time the node is released
    bool live = false;
  };

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_;  // released slots, the latest at the back
};

}  // namespace dmps::util
