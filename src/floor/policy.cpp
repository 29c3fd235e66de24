#include "floor/policy.hpp"

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
  }
  return {};
}

// dmps-lint: hot-begin(floor-decide) — every request the facade has
// validated, and the sweep every release runs: codes only, the text is
// explain()'s.
Decision ThreeRegimePolicy::decide(const FloorRequest& request, int priority,
                                   GrantStore& store) const {
  Decision decision;
  const double avail = store.availability();
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
  if (!store.can_fit(need) &&
      !store.suspend_to_fit(need, priority, decision.suspended)) {
    decision.outcome = Outcome::kDenied;
    decision.reason = Reason::kDoesNotFit;
    decision.availability_after = store.availability();
    return decision;
  }

  store.commit_grant(request.member, request.group, need, priority);

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
  decision.availability_after = store.availability();
  return decision;
}

Decision QueueingPolicy::decide(const FloorRequest& request, int priority,
                                GrantStore& store) {
  // Only a parked request creates its group's queue: a grant in a group
  // with nothing parked touches no queue node.
  const auto it = queues_.find(request.group.value());
  if (it != queues_.end()) {
    Decision decision;
    decision.outcome = Outcome::kQueued;
    decision.availability_before = store.availability();
    decision.availability_after = decision.availability_before;
    auto& queue = it->second;
    // A member already parked in this group re-requesting (e.g. a new
    // attempt after its station recovered) keeps its queue position.
    for (Parked& parked : queue) {
      if (parked.request.member == request.member) {
        parked.request = request;
        parked.priority = priority;
        decision.reason = Reason::kAlreadyPending;
        return decision;
      }
    }
    // Arrival order is a contract: while earlier requests sit parked, a
    // newcomer parks behind them even if it would fit right now — deciding
    // it immediately would queue-jump.
    decision.reason = Reason::kParkedBehind;
    decision.parked_ahead = queue.size();
    queue.push_back(Parked{request, priority});
    ++total_queued_;
    return decision;
  }

  Decision decision = rule_.decide(request, priority, store);
  if (decision.outcome == Outcome::kGranted ||
      decision.outcome == Outcome::kGrantedDegraded) {
    return decision;
  }
  // BFCP-style moderation: park the refusal instead of bouncing the client
  // into a retry loop; freed capacity grants it from the queue. The base
  // rule's code stays: it says why the request could not be granted now.
  queues_[request.group.value()].push_back(Parked{request, priority});
  ++total_queued_;
  decision.outcome = Outcome::kQueued;
  return decision;
}

void QueueingPolicy::promote(GrantStore& store, ReleaseResult& out) {
  // Grant parked requests in arrival order, group by group. An entry that
  // still does not fit keeps its place; the walk continues so a smaller
  // request behind it is not starved.
  //
  // The pass ends once the host is below beta. Regime 3 then refuses every
  // entry before touching the host, and only a promotion lowers its
  // availability, so the rest of the walk would decide Abort-Arbitrate for
  // each entry, change nothing and throw the decisions away.
  const double beta = rule_.thresholds().beta;
  if (store.availability() < beta) return;
  for (auto it = queues_.begin(); it != queues_.end();) {
    auto& queue = it->second;
    bool starved = false;
    for (auto parked = queue.begin(); parked != queue.end() && !starved;) {
      Decision decision =
          rule_.decide(parked->request, parked->priority, store);
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
      starved = store.availability() < beta;
    }
    it = queue.empty() ? queues_.erase(it) : std::next(it);
    if (starved) return;
  }
}

bool QueueingPolicy::cancel(MemberId member, GroupId group,
                            ReleaseResult& out) {
  const auto it = queues_.find(group.value());
  if (it == queues_.end()) return false;
  auto& queue = it->second;
  const std::size_t before = queue.size();
  for (auto parked = queue.begin(); parked != queue.end();) {
    if (parked->request.member != member) {
      ++parked;
      continue;
    }
    out.dequeued.push_back(Holder{member, group});
    parked = queue.erase(parked);
    --total_queued_;
  }
  const bool dropped = queue.size() != before;
  if (queue.empty()) queues_.erase(it);
  return dropped;
}
// dmps-lint: hot-end

std::size_t QueueingPolicy::queued(GroupId group) const {
  const auto it = queues_.find(group.value());
  return it == queues_.end() ? 0 : it->second.size();
}

}  // namespace dmps::floorctl
