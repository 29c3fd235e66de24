#pragma once
// GrantStore: ownership and indexing of one host station's floor grants.
//
// A store serves exactly one host (ShardedFloorService keeps one
// FloorService, and so one store, per host). It holds the host's resource
// manager and its grant slots, and threads every live grant into one of
// two lists of its priority's bucket:
//
//   active    — buckets walked in ascending priority, each list oldest
//               first: Media-Suspend victim selection walks from the front
//               (lowest priority, then oldest) and stops as soon as the
//               request fits, so choosing k victims touches k grants, never
//               the M others;
//   suspended — buckets walked in descending priority, each list oldest
//               first: Media-Resume re-admits from the front (highest
//               priority, then oldest) as capacity allows.
//
// Each list runs in ascending grant `seq`. A new grant has the largest seq
// and appends; a suspended or resumed grant keeps its seq and is linked in
// at its place, so both walks visit grants in exact (priority, seq) order,
// and victims, resumes and every availability are the same as an ordered
// map's (tests/test_floor_reference.cpp checks it). The buckets are few
// (one per distinct priority ever granted) and kept, emptied, for the
// life of the store.
//
// Policies never touch grant slots directly: they move grants through
// exactly the operations the disciplines are written in (can_fit /
// suspend_to_fit / commit_grant / resume_suspended). The slots and the
// lists are a util::SlotPool, so a released slot is recycled and slot
// count is bounded by peak concurrency, not request volume. The holder
// index (a util::FlatMap) keeps its (emptied) entries and their inline
// SmallVec storage across release/re-request cycles — so once a population
// has been seen, the grant+release hot loop allocates nothing.

#include <cstdint>
#include <vector>

#include "floor/resource.hpp"
#include "floor/types.hpp"
#include "util/flat_map.hpp"
#include "util/slot_pool.hpp"
#include "util/small_vec.hpp"

namespace dmps::floorctl {

class GrantStore {
 public:
  explicit GrantStore(resource::Resource capacity) : manager_(capacity) {}

  /// Re-provision the host: every grant it held is voided (the slots and
  /// lists are emptied, the holder index keeps its emptied entries) and
  /// `capacity` starts out free.
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
                      HolderList& suspended);

  /// Reserve `need` and record the grant as active.
  void commit_grant(MemberId member, GroupId group,
                    const resource::Resource& need, int priority);

  /// Media-Resume: re-admit suspended holders, highest priority first, as
  /// capacity allows; holders that still do not fit stay suspended.
  void resume_suspended(HolderList& resumed);

  /// Release every grant (active or suspended) that `member` holds in
  /// `group`, giving active grants' capacity back. Reports whether capacity
  /// was actually freed, so the caller runs the Media-Resume / promotion
  /// sweep only then.
  struct HolderRelease {
    bool released = false;  // false: the member held nothing in the group
    bool freed = false;     // an active grant gave its capacity back
  };
  HolderRelease release_holder(MemberId member, GroupId group);

  std::size_t active_grants() const { return active_count_; }
  std::size_t suspended_grants() const { return suspended_count_; }
  /// Allocated grant slots (recycled by the pool; stays bounded by the
  /// peak number of simultaneously live grants, not total request volume).
  std::size_t grant_slots() const { return grants_.slots(); }

 private:
  struct Grant {
    MemberId member;
    GroupId group;
    resource::Resource amount;
    std::uint64_t seq = 0;  // grant order; older = smaller
    std::uint32_t bucket = 0;  // index into buckets_: the grant's priority
    bool suspended = false;
  };
  /// Grant slots; each live grant sits in its bucket's active or suspended
  /// list, seq ascending.
  using Pool = util::SlotPool<Grant>;
  struct Bucket {
    int priority = 0;
    Pool::List active;
    Pool::List suspended;
  };

  /// The bucket of `priority`, created at its first grant.
  std::uint32_t bucket_of(int priority);
  Pool::List& list_of(const Grant& grant) {
    Bucket& bucket = buckets_[grant.bucket];
    return grant.suspended ? bucket.suspended : bucket.active;
  }
  /// Link `idx` into `list` at its seq's place.
  void link_in_order(Pool::List& list, std::uint32_t idx);

  resource::HostResourceManager manager_;
  Pool grants_;
  // One bucket per distinct priority, in creation order (grants name them
  // by index), and the same indexes sorted by ascending priority: the
  // suspend walk reads it forwards, the resume walk backwards.
  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> by_priority_;
  std::size_t active_count_ = 0;
  std::size_t suspended_count_ = 0;
  // holder_key(member, group) -> its grant slots. The common one-grant
  // holder stays inline. Entries are kept (emptied) on release rather than
  // erased: a returning holder reuses its slot and the SmallVec storage,
  // which is what makes the steady-state request/release cycle heap-free.
  util::FlatMap<util::SmallVec<std::uint32_t, 2>> holder_index_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace dmps::floorctl
