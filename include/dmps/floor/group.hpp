#pragma once
// Group membership for floor control.
//
// A GroupRegistry tracks members (with a priority and a home host station)
// and the conference groups they join. Each group carries its own floor
// discipline: an FcmMode (free-access vs chaired) and a PolicyKind naming
// the policy that decides its requests (ThreeRegimePolicy or
// QueueingPolicy).
//
// The registry is the one piece of conference state every floor shard
// consults. It is a plain single-threaded owner of its member and group
// vectors: mutators change them in place, and readers (FloorService, the
// wire server) read them directly, on the same thread. A join or leave
// flips one membership bit and allocates nothing once the group's bitset
// covers the member's id.

#include <cstdint>
#include <string>
#include <vector>

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
  // Membership as one bit per member id (word id / 64, bit id % 64), sized
  // to the highest id that ever joined: a membership test is one bit test,
  // and a join or leave flips one bit.
  std::vector<std::uint64_t> member_bits;
};

class GroupRegistry {
 public:
  GroupRegistry() = default;
  GroupRegistry(const GroupRegistry&) = delete;
  GroupRegistry& operator=(const GroupRegistry&) = delete;

  // ------------------------------------------------------------- mutators
  MemberId add_member(std::string name, int priority, HostId host);
  GroupId create_group(std::string name, FcmMode mode, MemberId chair,
                       PolicyKind policy = PolicyKind::kThreeRegime);
  bool join(MemberId member, GroupId group);
  bool leave(MemberId member, GroupId group);
  /// Swap the group's arbitration discipline (new requests only: grants and
  /// queued requests already decided under the old policy are untouched).
  bool set_policy(GroupId group, PolicyKind policy);

  /// An empty scope around bulk setup: mutations take effect at once, so
  /// there is nothing to batch. perf/ still names it; it goes with the next
  /// change to the benchmark.
  class Batch {
   public:
    explicit Batch(GroupRegistry& /*registry*/) {}
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;
  };

  // -------------------------------------------------------------- readers
  // References stay valid until the next add_member / create_group.
  const Member& member(MemberId id) const { return members_.at(id.value()); }
  const Group& group(GroupId id) const { return groups_.at(id.value()); }
  bool has_member(MemberId id) const { return id.value() < members_.size(); }
  bool has_group(GroupId id) const { return id.value() < groups_.size(); }
  bool in_group(MemberId member, GroupId group) const {
    if (!has_group(group)) return false;
    const std::vector<std::uint64_t>& bits = groups_[group.value()].member_bits;
    const std::size_t word = member.value() / 64;
    return word < bits.size() &&
           ((bits[word] >> (member.value() % 64)) & 1u) != 0;
  }
  std::size_t member_count() const { return members_.size(); }
  std::size_t group_count() const { return groups_.size(); }

 private:
  std::vector<Member> members_;
  std::vector<Group> groups_;
};

}  // namespace dmps::floorctl
