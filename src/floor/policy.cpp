#include "floor/policy.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>

namespace dmps::floorctl {

std::string explain(const Decision& decision,
                    const resource::Thresholds& thresholds) {
  // A three-regime refusal the queueing policy parked keeps its code and
  // reads behind "queued: ".
  const std::string queued =
      decision.outcome == Outcome::kQueued ? "queued: " : "";
  char buf[160];
  switch (decision.reason) {
    case Reason::kNone:
      return {};
    case Reason::kFullRegime:
      return "full regime";
    case Reason::kDegradedRegime:
      std::snprintf(buf, sizeof(buf),
                    "degraded regime (availability %.3f < alpha %.3f), fits "
                    "without suspension",
                    decision.availability_before, thresholds.alpha);
      return buf;
    case Reason::kMediaSuspend:
      std::snprintf(buf, sizeof(buf),
                    "media-suspend freed capacity: %zu holder(s) suspended",
                    decision.suspended.size());
      return buf;
    case Reason::kAbortArbitrate:
      std::snprintf(buf, sizeof(buf),
                    "abort-arbitrate: availability %.3f < beta %.3f",
                    decision.availability_before, thresholds.beta);
      return queued + buf;
    case Reason::kDoesNotFit:
      std::snprintf(buf, sizeof(buf),
                    "denied: request does not fit even after media-suspend "
                    "(availability %.3f)",
                    decision.availability_before);
      return queued + buf;
    case Reason::kNotChair:
      return "chaired discipline: only the chair may seize the floor";
    case Reason::kAlreadyPending:
      return "queued: request already pending in this group";
    case Reason::kPendingOtherHost:
      return "queued: request already pending in this group for its "
             "original host (cancel or release to re-home)";
    case Reason::kParkedBehind:
      std::snprintf(buf, sizeof(buf),
                    "queued: parked behind %zu earlier request(s) for this "
                    "host",
                    decision.parked_ahead);
      return buf;
    case Reason::kNotMember:
      return "requester is not a member of the group";
    case Reason::kUnknownHost:
      return "unknown host station";
    case Reason::kNotRunning:
      return "floor service is not running";
  }
  return {};
}

// dmps-lint: hot-begin(floor-decide) — every request the facade has
// validated, and the sweep every release runs: codes only, the text is
// explain()'s.
Decision ThreeRegimePolicy::decide(const FloorRequest& request, int priority,
                                   GrantStore::HostView& host) const {
  Decision decision;
  const double avail = host.availability();
  decision.availability_before = avail;
  const resource::Resource need = resource::Resource::from_qos(request.qos);

  // Regime 3: starved below beta — Abort-Arbitrate, no matter who asks.
  if (avail < thresholds_.beta) {
    decision.outcome = Outcome::kAborted;
    decision.reason = Reason::kAbortArbitrate;
    decision.availability_after = avail;
    return decision;
  }

  const bool full_regime = avail >= thresholds_.alpha;

  // Media-Suspend pass: if the request does not fit as-is, suspend strictly
  // lower-priority holders (lowest priority first, then oldest) until it
  // does. Runs in the degraded regime, or in the full regime for a request
  // larger than the current headroom.
  if (!host.can_fit(need) &&
      !host.suspend_to_fit(need, priority, decision.suspended)) {
    decision.outcome = Outcome::kDenied;
    decision.reason = Reason::kDoesNotFit;
    decision.availability_after = host.availability();
    return decision;
  }

  host.commit_grant(request.member, request.group, need, priority);

  if (!decision.suspended.empty()) {
    decision.outcome = Outcome::kGrantedDegraded;
    decision.reason = Reason::kMediaSuspend;
  } else if (full_regime) {
    decision.outcome = Outcome::kGranted;
    decision.reason = Reason::kFullRegime;
  } else {
    decision.outcome = Outcome::kGrantedDegraded;
    decision.reason = Reason::kDegradedRegime;
  }
  decision.availability_after = host.availability();
  return decision;
}

Decision QueueingPolicy::decide(const FloorRequest& request, int priority,
                                GrantStore::HostView& host) {
  // A member already parked in this group re-requesting (e.g. a new attempt
  // after its station recovered) keeps its queue position. The payload is
  // refreshed only when the host matches: a parked request's host is part
  // of its queue identity — retargeting in place would vacate the old host
  // without the sweep that unparks entries gated behind it there (and a
  // sweep inside decide() has no result channel to report promotions).
  // Re-homing takes a release first, which sweeps correctly.
  auto& queue = queues_[request.group.value()];
  std::size_t ahead = 0;  // earlier entries contending for the same host
  for (Parked& parked : queue) {
    if (parked.request.member == request.member) {
      Decision decision;
      decision.outcome = Outcome::kQueued;
      if (parked.request.host == request.host) {
        parked.request = request;
        parked.priority = priority;
        decision.reason = Reason::kAlreadyPending;
      } else {
        decision.reason = Reason::kPendingOtherHost;
      }
      decision.availability_before = host.availability();
      decision.availability_after = decision.availability_before;
      return decision;
    }
    if (parked.request.host == request.host) ++ahead;
  }

  // Arrival order is a contract: while earlier requests for this host sit
  // parked, a newcomer parks behind them even if it would fit right now —
  // deciding it immediately would queue-jump. Entries for other hosts do
  // not gate it (their capacity is unrelated; under sharding they live in
  // another shard entirely).
  if (ahead > 0) {
    queue.push_back(Parked{request, priority});
    ++total_queued_;
    Decision decision;
    decision.outcome = Outcome::kQueued;
    decision.reason = Reason::kParkedBehind;
    decision.parked_ahead = ahead;
    decision.availability_before = host.availability();
    decision.availability_after = decision.availability_before;
    return decision;
  }

  Decision decision = rule_.decide(request, priority, host);
  if (decision.outcome == Outcome::kGranted ||
      decision.outcome == Outcome::kGrantedDegraded) {
    if (queue.empty()) queues_.erase(request.group.value());
    return decision;
  }
  // BFCP-style moderation: park the refusal instead of bouncing the client
  // into a retry loop; freed capacity grants it from the queue. The base
  // rule's code stays: it says why the request could not be granted now.
  queue.push_back(Parked{request, priority});
  ++total_queued_;
  decision.outcome = Outcome::kQueued;
  return decision;
}

void QueueingPolicy::promote_host(GrantStore::HostView& host,
                                  ReleaseResult& out) {
  // Grant parked requests in arrival order, group by group; entries parked
  // against other hosts are skipped in place. An entry that still does not
  // fit keeps its place; the walk continues so a smaller request behind it
  // is not starved.
  //
  // The pass ends once the host is below beta. Regime 3 then refuses every
  // entry before touching the host, and only a promotion lowers its
  // availability, so the rest of the walk would decide Abort-Arbitrate for
  // each entry, change nothing and throw the decisions away.
  const double beta = rule_.thresholds().beta;
  if (host.availability() < beta) return;
  for (auto it = queues_.begin(); it != queues_.end();) {
    auto& queue = it->second;
    bool starved = false;
    for (auto parked = queue.begin(); parked != queue.end() && !starved;) {
      if (parked->request.host != host.host()) {
        ++parked;
        continue;
      }
      Decision decision = rule_.decide(parked->request, parked->priority, host);
      if (decision.outcome != Outcome::kGranted &&
          decision.outcome != Outcome::kGrantedDegraded) {
        ++parked;
        continue;
      }
      out.promoted.push_back(Promotion{
          Holder{parked->request.member, parked->request.group},
          std::move(decision)});
      parked = queue.erase(parked);
      --total_queued_;
      starved = host.availability() < beta;
    }
    it = queue.empty() ? queues_.erase(it) : std::next(it);
    if (starved) return;
  }
}

void QueueingPolicy::cancel(MemberId member, GroupId group, ReleaseResult& out,
                            HostList& affected_hosts) {
  const auto it = queues_.find(group.value());
  if (it == queues_.end()) return;
  auto& queue = it->second;
  for (auto parked = queue.begin(); parked != queue.end();) {
    if (parked->request.member != member) {
      ++parked;
      continue;
    }
    out.dequeued.push_back(Holder{member, group});
    // The dropped entry may have gated fitting entries behind it (the
    // arrival-order rule) — report its host so the caller sweeps there;
    // nothing else ever would, since no capacity changed.
    if (std::find(affected_hosts.begin(), affected_hosts.end(),
                  parked->request.host) == affected_hosts.end()) {
      affected_hosts.push_back(parked->request.host);
    }
    parked = queue.erase(parked);
    --total_queued_;
  }
  if (queue.empty()) queues_.erase(it);
}
// dmps-lint: hot-end

std::size_t QueueingPolicy::queued(GroupId group) const {
  const auto it = queues_.find(group.value());
  return it == queues_.end() ? 0 : it->second.size();
}

}  // namespace dmps::floorctl
