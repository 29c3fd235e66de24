#pragma once
// GrantStore: ownership and indexing of every floor grant.
//
// One store serves all host stations. Per host it tracks the resource
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
// Policies never touch grant slots directly: they operate through a
// HostView, which exposes exactly the moves the disciplines are written in
// (can_fit / suspend_to_fit / commit_grant / resume_suspended). Released
// slots are recycled through a free list, so slot count is bounded by peak
// concurrency, not request volume. The same discipline extends to the rest
// of the per-grant bookkeeping: index-map nodes are recycled through a
// PoolAllocator, and the holder index keeps its (emptied) entries and their
// inline SmallVec storage across release/re-request cycles — so once a
// population has been seen, the grant+release hot loop allocates nothing.

#include <cstdint>
#include <map>
#include <optional>
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
  explicit GrantStore(clk::Clock& clock) : clock_(clock) {}

  /// Register a host station and its capacity. Replacing a live host voids
  /// every grant it held (their slots are recycled).
  void add_host(HostId host, resource::Resource capacity);
  resource::HostResourceManager* host_manager(HostId host);

  class HostView;
  /// A policy-facing handle onto one host's grants; nullopt for an
  /// unregistered host.
  std::optional<HostView> view(HostId host);

  /// Release every grant (active or suspended) that `member` holds in
  /// `group`, giving active grants' capacity back. Reports the hosts where
  /// capacity was actually freed, so the caller can run the policy's
  /// Media-Resume / promotion pass exactly there.
  struct HolderRelease {
    bool released = false;  // false: the member held nothing in the group
    HostList freed_hosts;
  };
  HolderRelease release_holder(MemberId member, GroupId group);

  std::size_t active_grants() const { return active_count_; }
  std::size_t suspended_grants() const { return suspended_count_; }
  /// Allocated grant slots (recycled via a free list; stays bounded by the
  /// peak number of simultaneously live grants, not total request volume).
  std::size_t grant_slots() const { return grants_.size(); }

 private:
  struct Grant {
    MemberId member;
    GroupId group;
    HostId host;
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

  struct HostState {
    resource::HostResourceManager manager;
    ActiveIndex active;       // suspend order
    SuspendedIndex suspended;  // resume order
  };

  std::size_t alloc_slot(Grant grant);
  void drop_from_holder_index(std::size_t idx);
  void void_grants_of_host(HostId host);

  clk::Clock& clock_;
  std::unordered_map<HostId::value_type, HostState> hosts_;
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
  std::size_t active_count_ = 0;
  std::size_t suspended_count_ = 0;
};

/// The seam between GrantStore bookkeeping and the policies' logic: a
/// borrowed handle onto one host, valid for the duration of one decide()
/// call or one capacity-change sweep pass.
class GrantStore::HostView {
 public:
  HostId host() const { return host_; }
  double availability() const { return state_->manager.availability(); }
  bool can_fit(const resource::Resource& need) const {
    return state_->manager.can_fit(need);
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

 private:
  friend class GrantStore;
  HostView(GrantStore& store, HostState& state, HostId host)
      : store_(&store), state_(&state), host_(host) {}

  GrantStore* store_;
  HostState* state_;
  HostId host_;
};

}  // namespace dmps::floorctl
