#pragma once
// GrantStore: ownership and indexing of one host station's floor grants.
//
// A store serves exactly one host (ShardedFloorService keeps one
// FloorService, and so one store, per host). It holds the host's resource
// manager plus two ordered indexes over the live grants:
//
//   active    — keyed (priority asc, seq asc): Media-Suspend victim
//               selection walks from the front (lowest priority, then
//               oldest) and stops as soon as the request fits, so choosing
//               k victims among M active grants costs O(k log M), never a
//               full scan;
//   suspended — keyed (priority desc, seq asc): Media-Resume re-admits from
//               the front (highest priority, then oldest) as capacity
//               allows.
//
// Policies never touch grant slots directly: they move grants through
// exactly the operations the disciplines are written in (can_fit /
// suspend_to_fit / commit_grant / resume_suspended). Released slots are
// recycled through a free list, so slot count is bounded by peak
// concurrency, not request volume. The same discipline extends to the rest
// of the per-grant bookkeeping: index-map nodes are recycled through a
// PoolAllocator, and the holder index keeps its (emptied) entries and their
// inline SmallVec storage across release/re-request cycles — so once a
// population has been seen, the grant+release hot loop allocates nothing.

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "clock/drift_clock.hpp"
#include "floor/resource.hpp"
#include "floor/types.hpp"
#include "util/pool_alloc.hpp"
#include "util/small_vec.hpp"

namespace dmps::floorctl {

class GrantStore {
 public:
  GrantStore(clk::Clock& clock, resource::Resource capacity)
      : clock_(clock), manager_(capacity) {}

  /// Re-provision the host: every grant it held is voided (the slots and
  /// both indexes are emptied, the holder index keeps its emptied
  /// entries) and `capacity` starts out free.
  void set_capacity(resource::Resource capacity);
  const resource::HostResourceManager& manager() const { return manager_; }

  double availability() const { return manager_.availability(); }
  bool can_fit(const resource::Resource& need) const {
    return manager_.can_fit(need);
  }

  /// Media-Suspend: suspend strictly-lower-priority active holders (lowest
  /// priority first, then oldest) until `need` fits. All-or-nothing — when
  /// even suspending every junior holder is not enough, nothing changes and
  /// the return is false. Suspended holders are appended to `suspended`.
  bool suspend_to_fit(const resource::Resource& need, int priority,
                      std::vector<Holder>& suspended);

  /// Reserve `need` and record the grant as active.
  void commit_grant(MemberId member, GroupId group,
                    const resource::Resource& need, int priority);

  /// Media-Resume: re-admit suspended holders, highest priority first, as
  /// capacity allows; holders that still do not fit stay suspended.
  void resume_suspended(std::vector<Holder>& resumed);

  /// Release every grant (active or suspended) that `member` holds in
  /// `group`, giving active grants' capacity back. Reports whether capacity
  /// was actually freed, so the caller runs the Media-Resume / promotion
  /// sweep only then.
  struct HolderRelease {
    bool released = false;  // false: the member held nothing in the group
    bool freed = false;     // an active grant gave its capacity back
  };
  HolderRelease release_holder(MemberId member, GroupId group);

  std::size_t active_grants() const { return active_.size(); }
  std::size_t suspended_grants() const { return suspended_.size(); }
  /// Allocated grant slots (recycled via a free list; stays bounded by the
  /// peak number of simultaneously live grants, not total request volume).
  std::size_t grant_slots() const { return grants_.size(); }

 private:
  struct Grant {
    MemberId member;
    GroupId group;
    resource::Resource amount;
    int priority = 0;
    std::uint64_t seq = 0;  // grant order; older = smaller
    util::TimePoint granted_at;
    bool suspended = false;
    bool released = false;
  };

  /// (priority, seq) — seq is unique, so the pair is a total order.
  using IndexKey = std::pair<int, std::uint64_t>;
  /// Media-Resume order: highest priority first, then oldest.
  struct ResumeOrder {
    bool operator()(const IndexKey& a, const IndexKey& b) const {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    }
  };

  /// Index-map nodes come from a per-map free-list pool (one malloc per
  /// node only until the host's peak grant population has been seen).
  using IndexAlloc = util::PoolAllocator<std::pair<const IndexKey, std::size_t>>;
  using ActiveIndex = std::map<IndexKey, std::size_t, std::less<IndexKey>, IndexAlloc>;
  using SuspendedIndex = std::map<IndexKey, std::size_t, ResumeOrder, IndexAlloc>;

  std::size_t alloc_slot(Grant grant);

  clk::Clock& clock_;
  resource::HostResourceManager manager_;
  ActiveIndex active_;        // suspend order
  SuspendedIndex suspended_;  // resume order
  std::vector<Grant> grants_;
  std::vector<std::size_t> free_slots_;  // released grant indices, reusable
  // holder (member, group) -> its grant slots. Slots fit uint32 (bounded by
  // peak live grants), and the common one-grant holder stays inline.
  // Entries are kept (emptied) on release rather than erased: a returning
  // holder reuses the hash node and the SmallVec storage, which is what
  // makes the steady-state request/release cycle heap-free.
  std::unordered_map<std::uint64_t, util::SmallVec<std::uint32_t, 2>>
      holder_index_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace dmps::floorctl
