#include "floor/service.hpp"

#include <chrono>

namespace dmps::floorctl {

FloorService::FloorService(const GroupRegistry& registry, clk::Clock& clock,
                           resource::Thresholds thresholds)
    : registry_(registry),
      store_(clock),
      three_regime_(thresholds),
      queueing_(three_regime_),
      // Resolved at construction (setup phase) so the global pack's lazy
      // registration can never fire inside an alloc-probed worker loop.
      obs_(&obs::FloorInstruments::global()) {}

void FloorService::add_host(HostId host, resource::Resource capacity) {
  store_.add_host(host, capacity);
}

const GroupSnapshot& FloorService::refreshed_snapshot() {
  const std::uint64_t epoch = registry_.epoch();
  if (snapshot_ == nullptr || snapshot_->epoch != epoch) {
    snapshot_ = registry_.snapshot();
  }
  return *snapshot_;
}

// dmps-lint: hot-begin(floor-decide) — every floor request and every
// release's sweep: validation, counters and trace carry codes; nothing here
// formats or allocates text.
Decision FloorService::request(const FloorRequest& request) {
  const GroupSnapshot& snapshot = refreshed_snapshot();
  obs_->requests.add();
  // 1-in-64 sampled decide latency: two clock reads per sampled op keeps
  // the histogram's steady-state cost invisible next to arbitration.
  const bool timed = (decide_sample_++ & 63u) == 0u;
  const auto t0 = timed ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};
  const Decision decision = decide(snapshot, request);
  if (timed) {
    obs_->decide_latency_ns.record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
  switch (decision.outcome) {
    case Outcome::kGranted: obs_->granted.add(); break;
    case Outcome::kGrantedDegraded: obs_->granted_degraded.add(); break;
    case Outcome::kAborted: obs_->aborted.add(); break;
    case Outcome::kDenied: obs_->denied.add(); break;
    case Outcome::kQueued: obs_->queued.add(); break;
  }
  if (!decision.suspended.empty()) {
    obs_->suspends.add(static_cast<std::int64_t>(decision.suspended.size()));
  }
  if (tracer_ != nullptr) {
    tracer_->emit(obs::Ev::kDecide, request.member.value(),
                  request.host.value(),
                  static_cast<std::uint8_t>(decision.outcome));
    for (const Holder& holder : decision.suspended) {
      tracer_->emit(obs::Ev::kSuspend, holder.member.value(),
                    request.host.value());
    }
  }
  return decision;
}

Decision FloorService::decide(const GroupSnapshot& snapshot,
                              const FloorRequest& request) {
  Decision decision;
  if (!snapshot.has_member(request.member) ||
      !snapshot.in_group(request.member, request.group)) {
    decision.reason = Reason::kNotMember;
    return decision;
  }
  auto host = store_.view(request.host);
  if (!host) {
    decision.reason = Reason::kUnknownHost;
    return decision;
  }
  const Group& group = snapshot.group(request.group);
  // Who may take the floor comes before what the host can give: a chaired
  // group, or a request asking for chaired arbitration, admits only the
  // chair. Anyone else is refused outright, never parked.
  if ((group.mode == FcmMode::kChaired || request.mode == FcmMode::kChaired) &&
      request.member != group.chair) {
    decision.reason = Reason::kNotChair;
    return decision;
  }
  const int priority = snapshot.member(request.member).priority;
  return group.policy == PolicyKind::kQueueing
             ? queueing_.decide(request, priority, *host)
             : three_regime_.decide(request, priority, *host);
}

ReleaseResult FloorService::release(MemberId member, GroupId group) {
  ReleaseResult result;
  const GrantStore::HolderRelease freed = store_.release_holder(member, group);
  result.released = freed.released;
  // A releasing (or leaving) member abandons its parked requests too. Sweep
  // every host the release freed capacity on, plus every host a dequeued
  // parked request targeted: dropping a queue entry frees no capacity, but
  // it can unblock fitting entries parked behind it, and no later release
  // would ever sweep there for them.
  HostList hosts = freed.freed_hosts;
  queueing_.cancel(member, group, result, hosts);
  for (const HostId host_id : hosts) {
    auto host = store_.view(host_id);
    if (host) sweep_host(*host, result);
  }
  obs_->releases.add();
  const std::uint32_t shard_hint = hosts.empty() ? 0u : hosts[0].value();
  if (tracer_ != nullptr && result.released) {
    tracer_->emit(obs::Ev::kRelease, member.value(), shard_hint);
  }
  record_result(result, shard_hint);
  return result;
}

ReleaseResult FloorService::sweep(HostId host_id) {
  ReleaseResult result;
  obs_->sweeps.add();
  auto host = store_.view(host_id);
  if (host) sweep_host(*host, result);
  record_result(result, host_id.value());
  return result;
}

void FloorService::record_result(const ReleaseResult& result,
                                 std::uint32_t shard_hint) {
  if (!result.resumed.empty()) {
    obs_->resumes.add(static_cast<std::int64_t>(result.resumed.size()));
  }
  if (!result.promoted.empty()) {
    obs_->promotions.add(static_cast<std::int64_t>(result.promoted.size()));
  }
  for (const Promotion& promotion : result.promoted) {
    if (!promotion.decision.suspended.empty()) {
      obs_->suspends.add(
          static_cast<std::int64_t>(promotion.decision.suspended.size()));
    }
  }
  if (tracer_ == nullptr) return;
  for (const Holder& holder : result.resumed) {
    tracer_->emit(obs::Ev::kResume, holder.member.value(), shard_hint);
  }
  for (const Promotion& promotion : result.promoted) {
    tracer_->emit(obs::Ev::kPromote, promotion.holder.member.value(),
                  shard_hint,
                  static_cast<std::uint8_t>(promotion.decision.outcome));
    for (const Holder& holder : promotion.decision.suspended) {
      tracer_->emit(obs::Ev::kSuspend, holder.member.value(), shard_hint);
    }
  }
}

void FloorService::sweep_host(GrantStore::HostView& host, ReleaseResult& out) {
  // Fixpoint over resume + promotion. Media-Resume keeps priority over the
  // queue (it runs first each pass); the loop re-runs both because a
  // promotion's Media-Suspend can overshoot — freeing capacity that an
  // earlier-skipped queue entry or a smaller suspended holder can use, and
  // which no later release would ever hand back (a suspended victim's own
  // release frees nothing). Terminates: each extra pass requires progress,
  // promotions drain a finite queue, and a resumed holder can only be
  // re-suspended by a promotion.
  std::int64_t passes = 0;
  for (;;) {
    ++passes;
    const std::size_t before = out.resumed.size() + out.promoted.size();
    host.resume_suspended(out.resumed);
    queueing_.promote_host(host, out);
    if (out.resumed.size() + out.promoted.size() == before) break;
  }
  obs_->sweep_passes.add(passes);
  if (tracer_ != nullptr) {
    tracer_->emit(obs::Ev::kSweep, 0, host.host().value(), 0, passes);
  }
}
// dmps-lint: hot-end

}  // namespace dmps::floorctl
