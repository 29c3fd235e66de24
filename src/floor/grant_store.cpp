#include "floor/grant_store.hpp"

#include <algorithm>

namespace dmps::floorctl {

void GrantStore::set_capacity(resource::Resource capacity) {
  // Every grant was reserved against the old capacity: drop them all. The
  // buckets and the holder index keep their emptied entries, as a release
  // does.
  manager_ = resource::HostResourceManager(capacity);
  grants_ = Pool{};
  for (Bucket& bucket : buckets_) {
    bucket.active = Pool::List{};
    bucket.suspended = Pool::List{};
  }
  active_count_ = 0;
  suspended_count_ = 0;
  holder_index_.for_each([](std::uint64_t, auto& slots) { slots.clear(); });
}

// dmps-lint: hot-begin(grant-store-mutate) — every grant mutation path
// below runs inside the million sweep's alloc-probe bracket: pooled slots,
// kept buckets and kept-empty index entries keep it off the heap.
std::uint32_t GrantStore::bucket_of(int priority) {
  for (std::uint32_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b].priority == priority) return b;
  }
  // The first grant at this priority: a new bucket, kept from now on.
  const auto b = static_cast<std::uint32_t>(buckets_.size());
  buckets_.push_back(Bucket{priority, {}, {}});
  const auto at = std::lower_bound(
      by_priority_.begin(), by_priority_.end(), priority,
      [this](std::uint32_t i, int p) { return buckets_[i].priority < p; });
  by_priority_.insert(at, b);
  return b;
}

void GrantStore::link_in_order(Pool::List& list, std::uint32_t idx) {
  // The grant goes after the last one older than it: found by walking back
  // from the tail, except that a grant older than the whole list goes
  // straight to the head (a resumed grant usually is).
  const std::uint64_t seq = grants_[idx].seq;
  std::uint32_t after = list.tail;
  if (after != Pool::kNone && grants_[list.head].seq > seq) {
    after = Pool::kNone;
  } else {
    while (after != Pool::kNone && grants_[after].seq > seq) {
      after = grants_.prev(after);
    }
  }
  grants_.insert_after(list, after, idx);
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
    const Grant& grant = grants_[idx];
    grants_.unlink(list_of(grant), idx);
    if (grant.suspended) {
      // A suspended grant holds no capacity: nothing is freed by dropping it.
      --suspended_count_;
    } else {
      manager_.release(grant.amount);
      --active_count_;
      result.freed = true;
    }
    grants_.release(idx);
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
         idx != Pool::kNone && !manager_.can_fit(need); idx = grants_.next(idx)) {
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
    grants_.unlink(bucket.active, idx);
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
  const std::uint32_t bucket = bucket_of(priority);
  const std::uint32_t idx = grants_.acquire();
  grants_[idx] = Grant{member, group, need, next_seq_++, bucket};
  // The newest grant: its seq is the largest, so it appends.
  grants_.push_back(buckets_[bucket].active, idx);
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
    for (std::uint32_t idx = bucket.suspended.head; idx != Pool::kNone;) {
      Grant& grant = grants_[idx];
      const std::uint32_t next = grants_.next(idx);
      if (manager_.reserve(grant.amount)) {
        grants_.unlink(bucket.suspended, idx);
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
