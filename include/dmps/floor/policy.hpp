#pragma once
// Pluggable arbitration disciplines over a GrantStore.
//
// An ArbitrationPolicy is the exchangeable half of the floor-control core:
// it decides requests, touching grants only through a GrantStore::HostView.
// Three disciplines ship:
//
//   ThreeRegimePolicy — the paper's §3 FCM-Arbitrate rule, verbatim:
//                       full / degraded (Media-Suspend) / Abort-Arbitrate
//                       keyed on availability vs the alpha/beta thresholds.
//   ChairedPolicy     — chair pre-emption layered on any base policy: only
//                       the group's chair may seize the floor; everything
//                       else delegates to the base discipline.
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
// Reacting to freed capacity (Media-Resume, queue promotion) is not a
// policy method: FloorService drives it through its capacity-change sweep,
// which calls QueueingPolicy::promote_host for every queueing group with
// entries on the freed host. That keeps promotions host-scoped (the shard
// seam) instead of scoped to whichever group happened to release.
//
// Policies are stateless across hosts except for QueueingPolicy's queues,
// so one instance of each serves every group of a FloorService.

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

/// Resolved per-request facts a policy may consult beyond the raw request.
/// FloorService resolves them against an immutable GroupSnapshot (never a
/// mutable registry — policies may run on shard worker threads while
/// membership churns); queue promotions replay the facts captured at park
/// time.
struct RequestContext {
  int priority = 0;  // the requesting member's priority
  MemberId chair;    // the group's chair
};

class ArbitrationPolicy {
 public:
  virtual ~ArbitrationPolicy() = default;

  /// Decide one floor request against the requesting host's grants. The
  /// caller (FloorService) has already validated membership and host.
  virtual Decision decide(const FloorRequest& request,
                          const RequestContext& ctx,
                          GrantStore::HostView& host) = 0;

  /// Drop any parked state the member has in the group (it released or
  /// left); dropped requests are reported in `out.dequeued`, and every host
  /// a dropped entry targeted is appended to `affected_hosts` (deduped) —
  /// the caller must sweep those hosts, because an entry parked *behind*
  /// the dropped one may fit right now, and no capacity change will ever
  /// re-trigger a sweep there.
  virtual void cancel(MemberId member, GroupId group, ReleaseResult& out,
                      HostList& affected_hosts);
};

class ThreeRegimePolicy : public ArbitrationPolicy {
 public:
  explicit ThreeRegimePolicy(resource::Thresholds thresholds)
      : thresholds_(thresholds) {}

  Decision decide(const FloorRequest& request, const RequestContext& ctx,
                  GrantStore::HostView& host) override;

  const resource::Thresholds& thresholds() const { return thresholds_; }

 private:
  resource::Thresholds thresholds_;
};

class ChairedPolicy : public ArbitrationPolicy {
 public:
  explicit ChairedPolicy(ArbitrationPolicy& base) : base_(base) {}

  Decision decide(const FloorRequest& request, const RequestContext& ctx,
                  GrantStore::HostView& host) override;
  void cancel(MemberId member, GroupId group, ReleaseResult& out,
              HostList& affected_hosts) override {
    base_.cancel(member, group, out, affected_hosts);
  }

 private:
  ArbitrationPolicy& base_;
};

class QueueingPolicy : public ArbitrationPolicy {
 public:
  explicit QueueingPolicy(resource::Thresholds thresholds)
      : base_(thresholds) {}

  Decision decide(const FloorRequest& request, const RequestContext& ctx,
                  GrantStore::HostView& host) override;
  void cancel(MemberId member, GroupId group, ReleaseResult& out,
              HostList& affected_hosts) override;

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

  void index_add(HostId host, GroupId group);
  void index_remove(HostId host, GroupId group);

  ThreeRegimePolicy base_;  // the resource rule queueing is layered on
  // Ordered by group id so promotion sweeps visit groups deterministically.
  std::map<GroupId::value_type, std::deque<Parked>> queues_;
  // host -> (group -> parked-entry count): a sweep visits only the queues
  // that actually hold entries for the swept host, so a release never pays
  // for entries parked against other hosts.
  std::map<HostId::value_type, std::map<GroupId::value_type, std::size_t>>
      host_index_;
  std::size_t total_queued_ = 0;
};

}  // namespace dmps::floorctl
