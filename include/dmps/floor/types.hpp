#pragma once
// Floor-control vocabulary shared by the whole dmps::floorctl layer.
//
// The floor-control core is three separable pieces (see DESIGN.md §5):
//   GrantStore          — one host's resource manager and grant slots,
//                         threaded into per-priority lists
//   policies            — ThreeRegimePolicy (the paper's rule) and
//                         QueueingPolicy (BFCP-style queueing)
//   FloorService        — one host's arbiter: it gates chaired requests and
//                         picks the group's policy; ShardedFloorService
//                         keeps one per host station
// This header holds only the types those pieces exchange: ids, disciplines,
// requests, outcomes and results.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "media/media.hpp"
#include "util/ids.hpp"
#include "util/small_vec.hpp"

namespace dmps::floorctl {

using MemberId = util::StrongId<struct MemberTag>;
using GroupId = util::StrongId<struct GroupTag>;
using HostId = util::StrongId<struct HostTag>;

/// Floor control disciplines. kFreeAccess arbitrates purely on resources
/// and priority; kChaired additionally reserves the floor for the chair.
enum class FcmMode { kFreeAccess, kChaired };

/// Which policy decides a group's floor requests.
///   kThreeRegime — the paper's §3 FCM-Arbitrate rule: refusals are final.
///   kQueueing    — BFCP-style moderation: requests the three-regime rule
///                  would refuse are parked in a per-group pending queue and
///                  granted when capacity frees up (Outcome::kQueued).
enum class PolicyKind { kThreeRegime, kQueueing };

std::string_view to_string(PolicyKind kind);

struct FloorRequest {
  GroupId group;
  MemberId member;
  /// Discipline the requester asks for. The stricter of this and the
  /// group's own mode applies: either being kChaired restricts the floor
  /// to the chair.
  FcmMode mode = FcmMode::kFreeAccess;
  HostId host;
  media::QosRequirement qos;
};

enum class Outcome {
  kGranted,
  kGrantedDegraded,
  kAborted,
  kDenied,
  kQueued,  // parked by a QueueingPolicy; a grant (or dequeue) follows later
};

std::string_view to_string(Outcome outcome);

/// Identifies one floor holding: which member, in which group. The protocol
/// server routes Media-Suspend/Resume notifications by exactly this pair.
struct Holder {
  MemberId member;
  GroupId group;
  friend bool operator==(const Holder& a, const Holder& b) {
    return a.member == b.member && a.group == b.group;
  }
  friend bool operator!=(const Holder& a, const Holder& b) { return !(a == b); }
};

/// The canonical map key for a floor holding; every component indexing
/// state by (member, group) — grant-store slots, parked requests — must
/// use this one packing.
inline std::uint64_t holder_key(MemberId member, GroupId group) {
  return (static_cast<std::uint64_t>(member.value()) << 32) | group.value();
}

/// Which rule ended an arbitration. A Decision carries the code, never
/// prose: explain() (policy.hpp) renders the text from the code, the
/// Decision's own fields and the thresholds, so deciding a request formats
/// and allocates nothing. The wire, the counters and the trace read only
/// the Outcome.
enum class Reason : std::uint8_t {
  kNone,              // default-constructed; renders as ""
  kFullRegime,        // granted: availability >= alpha
  kDegradedRegime,    // granted-degraded: fits below alpha without suspension
  kMediaSuspend,      // granted-degraded after suspending `suspended`
  kAbortArbitrate,    // aborted (queued, under queueing): availability < beta
  kDoesNotFit,        // denied (queued, under queueing): no fit after suspend
  kNotChair,          // denied: the chaired discipline and not the chair
  kAlreadyPending,    // queued: re-request of a parked request
  kParkedBehind,      // queued: behind `parked_ahead` entries in the group
  kNotMember,         // denied: the requester is not in the group
  kUnknownHost,       // denied: not a host station the service arbitrates
};

/// The holders a decision or a release names. Inline up to eight: a host
/// whose grants are each at least an eighth of its capacity never names
/// more in one decision or release, so deciding and releasing there
/// allocates nothing. A longer list spills to the heap.
using HolderList = util::SmallVec<Holder, 8>;

struct Decision {
  Outcome outcome = Outcome::kDenied;
  Reason reason = Reason::kNone;
  /// Earlier requests parked in the same group (Reason::kParkedBehind).
  std::size_t parked_ahead = 0;
  HolderList suspended;  // holders Media-Suspended for this grant
  double availability_before = 0.0;
  double availability_after = 0.0;
};

/// A queued request granted by freed capacity (QueueingPolicy only): the
/// decision carries availability and any holders the promotion itself had
/// to Media-Suspend.
struct Promotion {
  Holder holder;
  Decision decision;
};

struct ReleaseResult {
  bool released = false;  // false: the member held nothing in the group
  HolderList resumed;     // holders Media-Resumed by the freed capacity
  // Queued requests the release granted: inline up to four, one freed
  // slot's worth on a host whose grants are each a quarter of it.
  util::SmallVec<Promotion, 4> promoted;
  HolderList dequeued;  // the releasing member's parked requests, dropped
                        // without a grant
};

/// The narrow arbitration seam wire servers consume: decide one request,
/// release one holding. FloorService (one host station) and
/// ShardedFloorService (one FloorService per host) both implement it, so an
/// fproto::FloorServer can front either without knowing the topology —
/// dmps_floord puts its one server in front of a ShardedFloorService, and
/// session::Presentation binds one server to each shard's FloorService
/// through ShardedFloorService::shard(host).
class FloorControl {
 public:
  virtual ~FloorControl() = default;
  /// FCM-Arbitrate one request (routed by request.host when sharded).
  virtual Decision request(const FloorRequest& request) = 0;
  /// Release everything `member` holds in `group`, wherever it was granted.
  virtual ReleaseResult release(MemberId member, GroupId group) = 0;
};

}  // namespace dmps::floorctl
