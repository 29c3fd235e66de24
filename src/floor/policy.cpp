#include "floor/policy.hpp"

#include <cstdio>
#include <utility>

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
  // A group with nothing parked touches no queue state: its request goes
  // straight to the three-regime rule.
  const std::size_t g = request.group.value();
  if (g < queues_.size() && queues_[g].size > 0) {
    return park_behind(request, priority, store.availability());
  }
  Decision decision = rule_.decide(request, priority, store);
  if (decision.outcome == Outcome::kGranted ||
      decision.outcome == Outcome::kGrantedDegraded) {
    return decision;
  }
  // BFCP-style moderation: park the refusal instead of bouncing the client
  // into a retry loop; freed capacity grants it from the queue. The base
  // rule's code stays: it says why the request could not be granted now.
  park(request, priority);
  decision.outcome = Outcome::kQueued;
  return decision;
}

Decision QueueingPolicy::park_behind(const FloorRequest& request,
                                    int priority, double availability) {
  Decision decision;
  decision.outcome = Outcome::kQueued;
  decision.availability_before = availability;
  decision.availability_after = availability;
  // A member already parked in this group re-requesting (e.g. a new
  // attempt after its station recovered) keeps its queue position.
  const std::uint32_t* const slot =
      parked_index_.find(holder_key(request.member, request.group));
  if (slot != nullptr && *slot != Pool::kNone) {
    Parked& parked = parked_[*slot];
    parked.request = request;
    parked.priority = priority;
    decision.reason = Reason::kAlreadyPending;
    return decision;
  }
  // Arrival order is a contract: while earlier requests sit parked, a
  // newcomer parks behind them even if it would fit right now — deciding
  // it immediately would queue-jump.
  decision.reason = Reason::kParkedBehind;
  decision.parked_ahead = queues_[request.group.value()].size;
  park(request, priority);
  return decision;
}

void QueueingPolicy::park(const FloorRequest& request, int priority) {
  const std::uint32_t idx = parked_.acquire();
  parked_[idx] = Parked{request, priority};
  const std::size_t g = request.group.value();
  if (g >= queues_.size()) queues_.resize(g + 1);  // the group's first park
  Queue& queue = queues_[g];
  parked_.push_back(queue.fifo, idx);
  ++queue.size;
  ++total_queued_;
  // A holder's first park inserts its index entry; later parks find the
  // entry kept at kNone.
  // dmps-lint: allow-next(hot-unordered-map)
  parked_index_[holder_key(request.member, request.group)] = idx;
}

void QueueingPolicy::drop(std::uint32_t idx) {
  const FloorRequest& request = parked_[idx].request;
  Queue& queue = queues_[request.group.value()];
  parked_.unlink(queue.fifo, idx);
  --queue.size;
  --total_queued_;
  *parked_index_.find(holder_key(request.member, request.group)) = Pool::kNone;
  parked_.release(idx);
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
  if (total_queued_ == 0 || store.availability() < beta) return;
  for (const Queue& queue : queues_) {
    for (std::uint32_t idx = queue.fifo.head; idx != Pool::kNone;) {
      const Parked& parked = parked_[idx];
      const std::uint32_t next = parked_.next(idx);
      Decision decision = rule_.decide(parked.request, parked.priority, store);
      if (decision.outcome == Outcome::kGranted ||
          decision.outcome == Outcome::kGrantedDegraded) {
        out.promoted.push_back(Promotion{
            Holder{parked.request.member, parked.request.group},
            std::move(decision)});
        drop(idx);
        if (store.availability() < beta) return;
      }
      idx = next;
    }
  }
}

bool QueueingPolicy::cancel(MemberId member, GroupId group,
                            ReleaseResult& out) {
  if (total_queued_ == 0) return false;
  const std::uint32_t* const slot =
      parked_index_.find(holder_key(member, group));
  if (slot == nullptr || *slot == Pool::kNone) return false;
  out.dequeued.push_back(Holder{member, group});
  drop(*slot);
  return true;
}
// dmps-lint: hot-end

std::size_t QueueingPolicy::queued(GroupId group) const {
  const std::size_t g = group.value();
  return g < queues_.size() ? queues_[g].size : 0;
}

}  // namespace dmps::floorctl
