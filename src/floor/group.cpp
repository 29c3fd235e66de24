#include "floor/group.hpp"

#include <stdexcept>
#include <utility>

namespace dmps::floorctl {

std::string_view to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::kGranted: return "granted";
    case Outcome::kGrantedDegraded: return "granted-degraded";
    case Outcome::kAborted: return "aborted";
    case Outcome::kDenied: return "denied";
    case Outcome::kQueued: return "queued";
  }
  return "unknown";
}

std::string_view to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kThreeRegime: return "three-regime";
    case PolicyKind::kQueueing: return "queueing";
  }
  return "unknown";
}

namespace {
/// Set (`in`) or clear `member`'s bit in the group's member_bits; false when
/// it already had that value.
bool flip_member_bit(Group& group, MemberId member, bool in) {
  const std::size_t word = member.value() / 64;
  const std::uint64_t bit = std::uint64_t{1} << (member.value() % 64);
  if (word >= group.member_bits.size()) {
    if (!in) return false;
    group.member_bits.resize(word + 1, 0);
  }
  std::uint64_t& bits = group.member_bits[word];
  if (((bits & bit) != 0) == in) return false;
  bits ^= bit;
  return true;
}
}  // namespace

MemberId GroupRegistry::add_member(std::string name, int priority, HostId host) {
  members_.push_back(Member{std::move(name), priority, host});
  return MemberId(static_cast<MemberId::value_type>(members_.size() - 1));
}

GroupId GroupRegistry::create_group(std::string name, FcmMode mode,
                                    MemberId chair, PolicyKind policy) {
  if (chair.value() >= members_.size()) {
    throw std::invalid_argument("create_group: chair is not a registered member");
  }
  groups_.push_back(Group{std::move(name), mode, policy, chair, {}});
  flip_member_bit(groups_.back(), chair, true);
  return GroupId(static_cast<GroupId::value_type>(groups_.size() - 1));
}

bool GroupRegistry::join(MemberId member, GroupId group) {
  if (member.value() >= members_.size() || group.value() >= groups_.size()) {
    return false;
  }
  return flip_member_bit(groups_[group.value()], member, true);  // false: already in
}

bool GroupRegistry::leave(MemberId member, GroupId group) {
  if (group.value() >= groups_.size()) return false;
  Group& g = groups_[group.value()];
  if (member == g.chair) return false;  // the chair anchors the group
  return flip_member_bit(g, member, false);  // false: not in
}

bool GroupRegistry::set_policy(GroupId group, PolicyKind policy) {
  if (group.value() >= groups_.size()) return false;
  groups_[group.value()].policy = policy;
  return true;
}

}  // namespace dmps::floorctl
