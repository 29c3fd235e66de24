#include "floor/grant_store.hpp"

#include <algorithm>

namespace dmps::floorctl {

void GrantStore::set_capacity(resource::Resource capacity) {
  // Every grant was reserved against the old capacity: drop them all. The
  // buckets and the holder index keep their emptied entries, as a release
  // does.
  manager_ = resource::HostResourceManager(capacity);
  grants_.clear();
  free_slots_.clear();
  for (Bucket& bucket : buckets_) {
    bucket.active = List{};
    bucket.suspended = List{};
  }
  active_count_ = 0;
  suspended_count_ = 0;
  holder_index_.for_each([](std::uint64_t, auto& slots) { slots.clear(); });
}

// dmps-lint: hot-begin(grant-store-mutate) — every grant mutation path
// below runs inside the million sweep's alloc-probe bracket: slot reuse,
// kept buckets and kept-empty index entries keep it off the heap.
std::uint32_t GrantStore::alloc_slot(const Grant& grant) {
  if (!free_slots_.empty()) {
    const std::uint32_t idx = free_slots_.back();
    free_slots_.pop_back();
    grants_[idx] = grant;
    return idx;
  }
  grants_.push_back(grant);
  // The free list can come to hold every slot: size it with the pool, so
  // it never grows once the pool has stopped growing.
  free_slots_.reserve(grants_.capacity());
  return static_cast<std::uint32_t>(grants_.size() - 1);
}

std::uint32_t GrantStore::bucket_of(int priority) {
  for (std::uint32_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b].priority == priority) return b;
  }
  // The first grant at this priority: a new bucket, kept from now on.
  const auto b = static_cast<std::uint32_t>(buckets_.size());
  buckets_.push_back(Bucket{priority, List{}, List{}});
  const auto at = std::lower_bound(
      by_priority_.begin(), by_priority_.end(), priority,
      [this](std::uint32_t i, int p) { return buckets_[i].priority < p; });
  by_priority_.insert(at, b);
  return b;
}

void GrantStore::unlink(List& list, std::uint32_t idx) {
  Grant& grant = grants_[idx];
  if (grant.prev != kNone) {
    grants_[grant.prev].next = grant.next;
  } else {
    list.head = grant.next;
  }
  if (grant.next != kNone) {
    grants_[grant.next].prev = grant.prev;
  } else {
    list.tail = grant.prev;
  }
  grant.prev = kNone;
  grant.next = kNone;
}

void GrantStore::link_in_order(List& list, std::uint32_t idx) {
  Grant& grant = grants_[idx];
  // The grant goes after the last one older than it: found by walking back
  // from the tail, except that a grant older than the whole list goes
  // straight to the head (a resumed grant usually is).
  std::uint32_t after = list.tail;
  if (after != kNone && grants_[list.head].seq > grant.seq) {
    after = kNone;
  } else {
    while (after != kNone && grants_[after].seq > grant.seq) {
      after = grants_[after].prev;
    }
  }
  grant.prev = after;
  grant.next = after == kNone ? list.head : grants_[after].next;
  if (grant.next != kNone) {
    grants_[grant.next].prev = idx;
  } else {
    list.tail = idx;
  }
  if (after != kNone) {
    grants_[after].next = idx;
  } else {
    list.head = idx;
  }
}

GrantStore::HolderRelease GrantStore::release_holder(MemberId member,
                                                     GroupId group) {
  HolderRelease result;
  auto* const slots = holder_index_.find(holder_key(member, group));
  if (slots == nullptr || slots->empty()) return result;

  result.released = true;

  // Iterate the slot list in place, then clear it but keep the entry: the
  // loop body never touches holder_index_, and the kept storage is what
  // keeps a steady-state request/release cycle off the heap.
  for (const std::uint32_t idx : *slots) {
    Grant& grant = grants_[idx];
    if (grant.released) continue;
    grant.released = true;
    unlink(list_of(grant), idx);
    if (grant.suspended) {
      // A suspended grant holds no capacity: nothing is freed by dropping it.
      grant.suspended = false;
      --suspended_count_;
    } else {
      manager_.release(grant.amount);
      --active_count_;
      result.freed = true;
    }
    free_slots_.push_back(idx);
  }
  slots->clear();
  return result;
}

bool GrantStore::suspend_to_fit(const resource::Resource& need, int priority,
                                HolderList& suspended) {
  // Walk the active lists from the front — lowest priority, then oldest —
  // releasing capacity tentatively until the request fits. The walk stops
  // at the first bucket whose priority is not strictly below the
  // requester's, so it touches only actual candidates: O(k).
  util::SmallVec<std::uint32_t, 16> taken;
  for (const std::uint32_t b : by_priority_) {
    const Bucket& bucket = buckets_[b];
    if (manager_.can_fit(need) || bucket.priority >= priority) break;
    for (std::uint32_t idx = bucket.active.head;
         idx != kNone && !manager_.can_fit(need); idx = grants_[idx].next) {
      manager_.release(grants_[idx].amount);
      taken.push_back(idx);
    }
  }
  if (!manager_.can_fit(need)) {
    // Even suspending every junior holder is not enough: roll back.
    for (const std::uint32_t idx : taken) manager_.reserve(grants_[idx].amount);
    return false;
  }
  // Commit: move the taken grants from their active to their suspended
  // lists.
  for (const std::uint32_t idx : taken) {
    Grant& grant = grants_[idx];
    Bucket& bucket = buckets_[grant.bucket];
    unlink(bucket.active, idx);
    grant.suspended = true;
    link_in_order(bucket.suspended, idx);
    suspended.push_back(Holder{grant.member, grant.group});
  }
  active_count_ -= taken.size();
  suspended_count_ += taken.size();
  return true;
}

void GrantStore::commit_grant(MemberId member, GroupId group,
                              const resource::Resource& need, int priority) {
  manager_.reserve(need);
  Grant grant;
  grant.member = member;
  grant.group = group;
  grant.amount = need;
  grant.seq = next_seq_++;
  grant.bucket = bucket_of(priority);
  const std::uint32_t idx = alloc_slot(grant);
  // The newest grant: its seq is the largest, so it appends.
  List& active = buckets_[grant.bucket].active;
  grants_[idx].prev = active.tail;
  if (active.tail != kNone) {
    grants_[active.tail].next = idx;
  } else {
    active.head = idx;
  }
  active.tail = idx;
  ++active_count_;
  // A holder's first grant inserts its index entry; release_holder() keeps
  // the emptied entry, so the steady request/release cycle reuses it.
  // dmps-lint: allow-next(hot-unordered-map)
  holder_index_[holder_key(member, group)].push_back(idx);
}

void GrantStore::resume_suspended(HolderList& resumed) {
  if (suspended_count_ == 0) return;
  // Media-Resume: highest priority first, then oldest, as capacity allows;
  // a holder that does not fit stays suspended and the walk continues.
  for (auto b = by_priority_.rbegin(); b != by_priority_.rend(); ++b) {
    Bucket& bucket = buckets_[*b];
    for (std::uint32_t idx = bucket.suspended.head; idx != kNone;) {
      Grant& grant = grants_[idx];
      const std::uint32_t next = grant.next;
      if (manager_.reserve(grant.amount)) {
        unlink(bucket.suspended, idx);
        grant.suspended = false;
        link_in_order(bucket.active, idx);
        --suspended_count_;
        ++active_count_;
        resumed.push_back(Holder{grant.member, grant.group});
      }
      idx = next;
    }
  }
}
// dmps-lint: hot-end

}  // namespace dmps::floorctl
