#include "floor/grant_store.hpp"

namespace dmps::floorctl {

void GrantStore::set_capacity(resource::Resource capacity) {
  // Every grant was reserved against the old capacity: drop them all. The
  // holder index keeps its emptied entries, as a release does.
  manager_ = resource::HostResourceManager(capacity);
  active_.clear();
  suspended_.clear();
  grants_.clear();
  free_slots_.clear();
  holder_index_.for_each([](std::uint64_t, auto& slots) { slots.clear(); });
}

// dmps-lint: hot-begin(grant-store-mutate) — every grant mutation path
// below runs inside the million sweep's alloc-probe bracket: slot reuse,
// kept-empty index nodes and pooled map nodes keep it off the heap.
std::size_t GrantStore::alloc_slot(Grant grant) {
  if (!free_slots_.empty()) {
    const std::size_t idx = free_slots_.back();
    free_slots_.pop_back();
    grants_[idx] = grant;
    return idx;
  }
  grants_.push_back(grant);
  return grants_.size() - 1;
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
    const IndexKey key{grant.priority, grant.seq};
    if (grant.suspended) {
      // A suspended grant holds no capacity: nothing is freed by dropping it.
      grant.suspended = false;
      suspended_.erase(key);
    } else {
      manager_.release(grant.amount);
      active_.erase(key);
      result.freed = true;
    }
    free_slots_.push_back(idx);
  }
  slots->clear();
  return result;
}

bool GrantStore::suspend_to_fit(const resource::Resource& need, int priority,
                                std::vector<Holder>& suspended) {
  // Walk the active index from the front — lowest priority, then oldest —
  // releasing capacity tentatively until the request fits. The walk stops
  // at the first holder whose priority is not strictly below the
  // requester's, so it touches only actual candidates: O(k log M).
  util::SmallVec<std::size_t, 16> taken;
  auto it = active_.begin();
  for (; it != active_.end() && !manager_.can_fit(need); ++it) {
    if (it->first.first >= priority) break;  // no strictly-junior holder left
    manager_.release(grants_[it->second].amount);
    taken.push_back(it->second);
  }
  if (!manager_.can_fit(need)) {
    // Even suspending every junior holder is not enough: roll back.
    for (const std::size_t idx : taken) manager_.reserve(grants_[idx].amount);
    return false;
  }
  // Commit: move the taken grants from the active to the suspended index.
  for (const std::size_t idx : taken) {
    Grant& grant = grants_[idx];
    grant.suspended = true;
    const IndexKey key{grant.priority, grant.seq};
    active_.erase(key);
    suspended_.emplace(key, idx);
    suspended.push_back(Holder{grant.member, grant.group});
  }
  return true;
}

void GrantStore::commit_grant(MemberId member, GroupId group,
                              const resource::Resource& need, int priority) {
  manager_.reserve(need);
  const std::uint64_t seq = next_seq_++;
  const std::size_t idx =
      alloc_slot(Grant{member, group, need, priority, seq, false, false});
  active_.emplace(IndexKey{priority, seq}, idx);
  // A holder's first grant inserts its index entry; release_holder() keeps
  // the emptied entry, so the steady request/release cycle reuses it.
  // dmps-lint: allow-next(hot-unordered-map)
  holder_index_[holder_key(member, group)].push_back(
      static_cast<std::uint32_t>(idx));
}

void GrantStore::resume_suspended(std::vector<Holder>& resumed) {
  if (suspended_.empty()) return;
  // Media-Resume: highest priority first, then oldest, as capacity allows;
  // a holder that does not fit stays suspended and the walk continues.
  // (Flat key struct: std::pair is not trivially copyable, SmallVec is.)
  struct FlatKey {
    int priority;
    std::uint64_t seq;
  };
  util::SmallVec<FlatKey, 16> admitted;
  for (const auto& [key, idx] : suspended_) {
    Grant& grant = grants_[idx];
    if (!manager_.reserve(grant.amount)) continue;
    grant.suspended = false;
    admitted.push_back(FlatKey{key.first, key.second});
    resumed.push_back(Holder{grant.member, grant.group});
  }
  for (const FlatKey& flat : admitted) {
    const IndexKey key{flat.priority, flat.seq};
    const auto it = suspended_.find(key);
    active_.emplace(key, it->second);
    suspended_.erase(it);
  }
}
// dmps-lint: hot-end

}  // namespace dmps::floorctl
