#pragma once
// Group membership for floor control, published as immutable snapshots.
//
// A GroupRegistry tracks members (with a priority and a home host station)
// and the conference groups they join. Each group carries its own floor
// discipline: an FcmMode (free-access vs chaired) and a PolicyKind naming
// the policy that decides its requests (ThreeRegimePolicy or
// QueueingPolicy).
//
// The registry is the one piece of conference state every floor shard
// consults, so it is built read-mostly: all reads go through an immutable
// GroupSnapshot, published via std::shared_ptr atomic swap. Every
// membership mutation (add_member / create_group / join / leave /
// set_policy) is an epoch-bumping copy-on-write publish — the member and
// group tables are separately shared_ptr'd, so a group-only mutation (the
// common wire-join case) reuses the member table untouched. Shard worker
// threads read only snapshots; a snapshot, once obtained, never changes
// underneath its reader.
//
// Concurrency contract:
//   - Mutators are internally serialized (safe from any thread).
//   - snapshot() / epoch() are wait-mostly and safe from any thread.
//   - The direct read accessors (member(), in_group(), ...) are
//     conveniences over the latest snapshot; hot paths should hold a
//     snapshot and read that instead (one epoch check, no shared_ptr churn
//     — see FloorService).
//   - Batch scopes many mutations into ONE publish; bulk setup (benches,
//     session construction) must use it, because a per-mutation publish
//     copies the mutated table each time.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/sync.hpp"
#include "floor/types.hpp"

namespace dmps::floorctl {

struct Member {
  std::string name;
  int priority = 1;  // higher outranks lower
  HostId host;
};

struct Group {
  std::string name;
  FcmMode mode = FcmMode::kFreeAccess;
  PolicyKind policy = PolicyKind::kThreeRegime;
  MemberId chair;
  std::vector<MemberId> members;  // join order, for iteration
  // Sorted copy for O(log n) membership tests. A sorted vector (not a hash
  // set) because every join/leave copy-on-writes the group: copying a flat
  // vector is a memcpy, copying a hash set is a rehash.
  std::vector<MemberId> sorted_members;
};

/// One immutable, internally consistent view of the conference: member and
/// group tables plus the epoch that published them. Everything readers need
/// for arbitration; never mutated after publication.
struct GroupSnapshot {
  std::uint64_t epoch = 0;
  std::shared_ptr<const std::vector<Member>> members;
  std::shared_ptr<const std::vector<Group>> groups;

  bool has_member(MemberId id) const { return id.value() < members->size(); }
  bool has_group(GroupId id) const { return id.value() < groups->size(); }
  const Member& member(MemberId id) const { return members->at(id.value()); }
  const Group& group(GroupId id) const { return groups->at(id.value()); }
  bool in_group(MemberId member, GroupId group) const;
  std::size_t member_count() const { return members->size(); }
  std::size_t group_count() const { return groups->size(); }
};

class GroupRegistry {
 public:
  GroupRegistry();
  GroupRegistry(const GroupRegistry&) = delete;
  GroupRegistry& operator=(const GroupRegistry&) = delete;

  // ------------------------------------------------------------- mutators
  // Each publishes a fresh snapshot (epoch + 1) unless inside a Batch.
  MemberId add_member(std::string name, int priority, HostId host);
  GroupId create_group(std::string name, FcmMode mode, MemberId chair,
                       PolicyKind policy = PolicyKind::kThreeRegime);
  bool join(MemberId member, GroupId group);
  bool leave(MemberId member, GroupId group);
  /// Swap the group's arbitration discipline (new requests only: grants and
  /// queued requests already decided under the old policy are untouched).
  bool set_policy(GroupId group, PolicyKind policy);

  /// Scope many mutations into one copy-on-write publish (one epoch bump at
  /// scope exit). Holds the mutation lock for its lifetime; nestable.
  ///
  /// Batch is the one deliberate thread-safety-analysis suppression in the
  /// registry (DESIGN.md §10): it holds the recursive mutation lock while
  /// the mutators called inside the scope re-acquire it, a re-entrant
  /// pattern the analysis cannot model before clang 20's reentrant
  /// capabilities. The ctor/dtor are therefore opted out; every mutator
  /// and the publish path itself stay fully checked.
  class Batch {
   public:
    explicit Batch(GroupRegistry& registry) DMPS_NO_THREAD_SAFETY_ANALYSIS
        : registry_(registry) {
      registry_.mu_.lock();
      ++registry_.batch_depth_;
    }
    ~Batch() DMPS_NO_THREAD_SAFETY_ANALYSIS {
      if (--registry_.batch_depth_ == 0 && registry_.dirty()) {
        registry_.publish_locked();
      }
      registry_.mu_.unlock();
    }
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

   private:
    GroupRegistry& registry_;
  };

  // -------------------------------------------------------------- readers
  /// The latest published snapshot. Never null; safe from any thread.
  std::shared_ptr<const GroupSnapshot> snapshot() const;
  /// The latest published epoch — the cheap staleness probe for cached
  /// snapshots (acquire-ordered against the matching publish).
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  // Convenience reads over the latest snapshot (see concurrency contract).
  // member()/group() return by VALUE: a reference would dangle the moment
  // the next mutation publishes (the snapshot backing it is only kept
  // alive by published_). Hold a snapshot() to read by reference.
  Member member(MemberId id) const { return snapshot()->member(id); }
  Group group(GroupId id) const { return snapshot()->group(id); }
  bool has_member(MemberId id) const { return snapshot()->has_member(id); }
  bool has_group(GroupId id) const { return snapshot()->has_group(id); }
  bool in_group(MemberId member, GroupId group) const {
    return snapshot()->in_group(member, group);
  }
  std::size_t member_count() const { return snapshot()->member_count(); }
  std::size_t group_count() const { return snapshot()->group_count(); }

 private:
  bool dirty() const DMPS_REQUIRES(mu_) {
    return members_dirty_ || groups_dirty_;
  }
  void publish_locked() DMPS_REQUIRES(mu_);
  void publish_if_unbatched_locked() DMPS_REQUIRES(mu_);

  // Mutation lock: serializes mutators and Batch scopes. Recursive so a
  // mutator called inside a Batch (which already holds it) re-enters.
  mutable util::RecursiveMutex mu_;
  // Working tables, guarded by mu_. Snapshots are copied from these.
  std::vector<Member> members_ DMPS_GUARDED_BY(mu_);
  std::vector<Group> groups_ DMPS_GUARDED_BY(mu_);
  bool members_dirty_ DMPS_GUARDED_BY(mu_) = false;
  bool groups_dirty_ DMPS_GUARDED_BY(mu_) = false;
  int batch_depth_ DMPS_GUARDED_BY(mu_) = 0;

  // The published snapshot. Deliberately NOT guarded_by(mu_): readers load
  // it lock-free via std::atomic_load (snapshot()); only the publish path,
  // which holds mu_, stores it. The atomic free functions are the
  // synchronization, not the mutex, so the analysis has nothing to check.
  std::shared_ptr<const GroupSnapshot> published_;
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace dmps::floorctl
