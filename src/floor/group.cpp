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

GroupRegistry::GroupRegistry() {
  util::RecursiveMutexLock lock(mu_);
  publish_locked();  // published_ is never null
}

void GroupRegistry::publish_locked() {
  auto snap = std::make_shared<GroupSnapshot>();
  snap->epoch = epoch_.load(std::memory_order_relaxed) + 1;
  // Copy-on-write with table granularity: only the table a mutation dirtied
  // is copied; the other is structurally shared with the prior snapshot.
  // The common runtime mutation — a wire join — therefore copies the group
  // table only, never the (much larger) member table.
  if (published_ != nullptr && !members_dirty_) {
    snap->members = published_->members;
  } else {
    snap->members = std::make_shared<const std::vector<Member>>(members_);
  }
  if (published_ != nullptr && !groups_dirty_) {
    snap->groups = published_->groups;
  } else {
    snap->groups = std::make_shared<const std::vector<Group>>(groups_);
  }
  members_dirty_ = groups_dirty_ = false;
  std::atomic_store_explicit(&published_,
                             std::shared_ptr<const GroupSnapshot>(snap),
                             std::memory_order_release);
  epoch_.store(snap->epoch, std::memory_order_release);
}

void GroupRegistry::publish_if_unbatched_locked() {
  if (batch_depth_ == 0 && dirty()) publish_locked();
}

std::shared_ptr<const GroupSnapshot> GroupRegistry::snapshot() const {
  return std::atomic_load_explicit(&published_, std::memory_order_acquire);
}

MemberId GroupRegistry::add_member(std::string name, int priority, HostId host) {
  util::RecursiveMutexLock lock(mu_);
  members_.push_back(Member{std::move(name), priority, host});
  members_dirty_ = true;
  const MemberId id(static_cast<MemberId::value_type>(members_.size() - 1));
  publish_if_unbatched_locked();
  return id;
}

GroupId GroupRegistry::create_group(std::string name, FcmMode mode,
                                    MemberId chair, PolicyKind policy) {
  util::RecursiveMutexLock lock(mu_);
  if (chair.value() >= members_.size()) {
    throw std::invalid_argument("create_group: chair is not a registered member");
  }
  groups_.push_back(Group{std::move(name), mode, policy, chair, {}});
  flip_member_bit(groups_.back(), chair, true);
  groups_dirty_ = true;
  const GroupId id(static_cast<GroupId::value_type>(groups_.size() - 1));
  publish_if_unbatched_locked();
  return id;
}

bool GroupRegistry::join(MemberId member, GroupId group) {
  util::RecursiveMutexLock lock(mu_);
  if (member.value() >= members_.size() || group.value() >= groups_.size()) {
    return false;
  }
  if (!flip_member_bit(groups_[group.value()], member, true)) {
    return false;  // already in
  }
  groups_dirty_ = true;
  publish_if_unbatched_locked();
  return true;
}

bool GroupRegistry::leave(MemberId member, GroupId group) {
  util::RecursiveMutexLock lock(mu_);
  if (group.value() >= groups_.size()) return false;
  Group& g = groups_[group.value()];
  if (member == g.chair) return false;  // the chair anchors the group
  if (!flip_member_bit(g, member, false)) return false;  // not in
  groups_dirty_ = true;
  publish_if_unbatched_locked();
  return true;
}

bool GroupRegistry::set_policy(GroupId group, PolicyKind policy) {
  util::RecursiveMutexLock lock(mu_);
  if (group.value() >= groups_.size()) return false;
  groups_[group.value()].policy = policy;
  groups_dirty_ = true;
  publish_if_unbatched_locked();
  return true;
}

}  // namespace dmps::floorctl
