#pragma once
// Floor-control vocabulary shared by the whole dmps::floorctl layer.
//
// The floor-control core is three separable pieces (see DESIGN.md §5):
//   GrantStore          — one host's resource manager, grant slots and
//                         (priority, seq) indexes
//   policies            — ThreeRegimePolicy (the paper's rule) and
//                         QueueingPolicy (BFCP-style queueing)
//   FloorService        — one host's arbiter: it gates chaired requests and
//                         picks the group's policy; ShardedFloorService
//                         keeps one per host station
// This header holds only the types those pieces exchange: ids, disciplines,
// requests, outcomes and results.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>
#include <utility>
#include <vector>

#include "media/media.hpp"
#include "util/ids.hpp"

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
/// state by (member, group) — grant-store slots, server-side request
/// routing — must use this one packing.
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

struct Decision {
  Outcome outcome = Outcome::kDenied;
  Reason reason = Reason::kNone;
  /// Earlier requests parked in the same group (Reason::kParkedBehind).
  std::size_t parked_ahead = 0;
  std::vector<Holder> suspended;  // holders Media-Suspended for this grant
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
  bool released = false;        // false: the member held nothing in the group
  std::vector<Holder> resumed;  // holders Media-Resumed by the freed capacity
  std::vector<Promotion> promoted;  // queued requests granted by the release
  std::vector<Holder> dequeued;     // the releasing member's parked requests,
                                    // dropped without a grant
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

/// Fold one shard's release result into an accumulated one: the merge rule
/// ShardedFloorService::release applies per routed shard, in route order.
/// An empty list takes the shard's buffer instead of copying it, so a
/// release routed to one shard hands its lists over whole.
inline void merge_release_results(ReleaseResult& into, ReleaseResult&& from) {
  const auto append = [](auto& list, auto& more) {
    if (list.empty()) {
      list = std::move(more);
      return;
    }
    list.insert(list.end(), std::make_move_iterator(more.begin()),
                std::make_move_iterator(more.end()));
  };
  into.released |= from.released;
  append(into.resumed, from.resumed);
  append(into.promoted, from.promoted);
  append(into.dequeued, from.dequeued);
}

}  // namespace dmps::floorctl
