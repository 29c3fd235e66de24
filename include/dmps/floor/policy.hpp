#pragma once
// The two arbitration disciplines over a GrantStore.
//
// A policy decides requests, touching grants only through a
// GrantStore::HostView. FloorService picks one per request from the
// group's PolicyKind, after it has validated membership and host and run
// the chair gate (a chaired group, or a chaired request, admits only the
// chair: Reason::kNotChair, never parked):
//
//   ThreeRegimePolicy — the paper's §3 FCM-Arbitrate rule, verbatim:
//                       full / degraded (Media-Suspend) / Abort-Arbitrate
//                       keyed on availability vs the alpha/beta thresholds.
//   QueueingPolicy    — BFCP-style moderation: requests the three-regime
//                       rule would refuse are parked in a per-group pending
//                       queue (Outcome::kQueued) and granted in arrival
//                       order when capacity frees up. Arrival order is a
//                       per-(group, host) contract: a newcomer whose
//                       request would fit still parks behind earlier
//                       requests queued for the same host in the same
//                       group. Distinct groups are distinct floors (BFCP
//                       queues are per-floor) — no ordering is promised
//                       between them.
//
// Reacting to freed capacity (Media-Resume, queue promotion) is not part
// of decide(): FloorService drives it through its capacity-change sweep,
// which calls QueueingPolicy::promote_host for the freed host. That keeps
// promotions host-scoped (the shard seam) instead of scoped to whichever
// group happened to release.
//
// Each FloorService owns one ThreeRegimePolicy and one QueueingPolicy that
// borrows it; the queues are the only state, shared by every group.

#include <cstddef>
#include <deque>
#include <map>
#include <string>

#include "floor/grant_store.hpp"
#include "floor/types.hpp"

namespace dmps::floorctl {

/// The sentence a person reads for `decision`, rebuilt from its Reason
/// code, its own fields and the `thresholds` it was decided under: the
/// availability it saw, the holders it suspended, the entries parked ahead
/// of it. A refusal the queueing policy parked reads as its three-regime
/// text behind "queued: ". Off the arbitration path by design — call it
/// where words are wanted (a report, a test, an error message).
std::string explain(const Decision& decision,
                    const resource::Thresholds& thresholds);

class ThreeRegimePolicy {
 public:
  explicit ThreeRegimePolicy(resource::Thresholds thresholds)
      : thresholds_(thresholds) {}

  /// Decide one floor request by a member of the given `priority` against
  /// the requesting host's grants.
  Decision decide(const FloorRequest& request, int priority,
                  GrantStore::HostView& host) const;

  const resource::Thresholds& thresholds() const { return thresholds_; }

 private:
  resource::Thresholds thresholds_;
};

class QueueingPolicy {
 public:
  /// `rule` decides every request and promotion; it must outlive the policy.
  explicit QueueingPolicy(const ThreeRegimePolicy& rule) : rule_(rule) {}

  Decision decide(const FloorRequest& request, int priority,
                  GrantStore::HostView& host);

  /// Drop any parked state the member has in the group (it released or
  /// left); dropped requests are reported in `out.dequeued`, and every host
  /// a dropped entry targeted is appended to `affected_hosts` (deduped) —
  /// the caller must sweep those hosts, because an entry parked *behind*
  /// the dropped one may fit right now, and no capacity change will ever
  /// re-trigger a sweep there.
  void cancel(MemberId member, GroupId group, ReleaseResult& out,
              HostList& affected_hosts);

  /// One promotion pass for `host`: walk every group's queue in arrival
  /// order and grant each entry targeting this host that now fits (a
  /// blocked head does not starve smaller entries behind it). Promotions
  /// run the full three-regime rule, so they may themselves Media-Suspend;
  /// the caller (FloorService's sweep) loops passes to a fixpoint so
  /// capacity a promotion frees on overshoot is never stranded. The pass
  /// stops as soon as the host is below beta: from there every remaining
  /// entry would Abort-Arbitrate without touching the host.
  void promote_host(GrantStore::HostView& host, ReleaseResult& out);

  std::size_t queued(GroupId group) const;
  std::size_t total_queued() const { return total_queued_; }

 private:
  struct Parked {
    FloorRequest request;
    int priority = 0;
  };

  const ThreeRegimePolicy& rule_;  // the resource rule queueing is layered on
  // Ordered by group id so promotion sweeps visit groups deterministically;
  // holds non-empty queues only.
  std::map<GroupId::value_type, std::deque<Parked>> queues_;
  std::size_t total_queued_ = 0;
};

}  // namespace dmps::floorctl
