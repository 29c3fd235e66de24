#include "floor/service.hpp"

#include <chrono>

namespace dmps::floorctl {

FloorService::FloorService(const GroupRegistry& registry,
                           resource::Thresholds thresholds, HostId host,
                           resource::Resource capacity)
    : registry_(registry),
      host_(host),
      store_(capacity),
      three_regime_(thresholds),
      queueing_(three_regime_),
      // Resolved at construction (setup phase) so the global pack's lazy
      // registration can never fire inside an alloc-probed run.
      obs_(&obs::FloorInstruments::global()) {}

// dmps-lint: hot-begin(floor-decide) — every floor request and every
// release's sweep: validation, counters and trace carry codes; nothing here
// formats or allocates text.
Decision FloorService::request(const FloorRequest& request) {
  obs_->requests.add();
  // 1-in-64 sampled decide latency: two clock reads per sampled op keeps
  // the histogram's steady-state cost invisible next to arbitration.
  const bool timed = (decide_sample_++ & 63u) == 0u;
  const auto t0 = timed ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};
  const Decision decision = decide(request);
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

Decision FloorService::decide(const FloorRequest& request) {
  Decision decision;
  if (!registry_.has_member(request.member) ||
      !registry_.in_group(request.member, request.group)) {
    decision.reason = Reason::kNotMember;
    return decision;
  }
  if (request.host != host_) {
    decision.reason = Reason::kUnknownHost;
    return decision;
  }
  const Group& group = registry_.group(request.group);
  // Who may take the floor comes before what the host can give: a chaired
  // group, or a request asking for chaired arbitration, admits only the
  // chair. Anyone else is refused outright, never parked.
  if ((group.mode == FcmMode::kChaired || request.mode == FcmMode::kChaired) &&
      request.member != group.chair) {
    decision.reason = Reason::kNotChair;
    return decision;
  }
  const int priority = registry_.member(request.member).priority;
  return group.policy == PolicyKind::kQueueing
             ? queueing_.decide(request, priority, store_)
             : three_regime_.decide(request, priority, store_);
}

void FloorService::release_into(MemberId member, GroupId group,
                                ReleaseResult& out) {
  const Marks marks = marks_of(out);
  const GrantStore::HolderRelease freed = store_.release_holder(member, group);
  out.released |= freed.released;
  // A releasing (or leaving) member abandons its parked requests too. Sweep
  // when the release freed capacity or dropped a parked request: a dequeue
  // frees no capacity, but it can unblock fitting entries parked behind
  // it, and no later release would ever sweep for them.
  const bool dropped = queueing_.cancel(member, group, out);
  const bool swept = freed.freed || dropped;
  if (swept) sweep_into(out);
  obs_->releases.add();
  const std::uint32_t shard_hint = swept ? host_.value() : 0u;
  if (tracer_ != nullptr && freed.released) {
    tracer_->emit(obs::Ev::kRelease, member.value(), shard_hint);
  }
  record_result(out, marks, shard_hint);
}

ReleaseResult FloorService::sweep() {
  ReleaseResult result;
  obs_->sweeps.add();
  sweep_into(result);
  record_result(result, Marks{}, host_.value());
  return result;
}

void FloorService::record_result(const ReleaseResult& result, Marks from,
                                 std::uint32_t shard_hint) {
  const std::size_t resumed = result.resumed.size() - from.resumed;
  const std::size_t promoted = result.promoted.size() - from.promoted;
  if (resumed != 0) obs_->resumes.add(static_cast<std::int64_t>(resumed));
  if (promoted != 0) obs_->promotions.add(static_cast<std::int64_t>(promoted));
  const Promotion* const promotions = result.promoted.data() + from.promoted;
  for (std::size_t i = 0; i < promoted; ++i) {
    if (!promotions[i].decision.suspended.empty()) {
      obs_->suspends.add(
          static_cast<std::int64_t>(promotions[i].decision.suspended.size()));
    }
  }
  if (tracer_ == nullptr) return;
  for (std::size_t i = from.resumed; i < result.resumed.size(); ++i) {
    tracer_->emit(obs::Ev::kResume, result.resumed[i].member.value(),
                  shard_hint);
  }
  for (std::size_t i = 0; i < promoted; ++i) {
    const Promotion& promotion = promotions[i];
    tracer_->emit(obs::Ev::kPromote, promotion.holder.member.value(),
                  shard_hint,
                  static_cast<std::uint8_t>(promotion.decision.outcome));
    for (const Holder& holder : promotion.decision.suspended) {
      tracer_->emit(obs::Ev::kSuspend, holder.member.value(), shard_hint);
    }
  }
}

void FloorService::sweep_into(ReleaseResult& out) {
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
    store_.resume_suspended(out.resumed);
    queueing_.promote(store_, out);
    if (out.resumed.size() + out.promoted.size() == before) break;
  }
  obs_->sweep_passes.add(passes);
  if (tracer_ != nullptr) {
    tracer_->emit(obs::Ev::kSweep, 0, host_.value(), 0, passes);
  }
}
// dmps-lint: hot-end

}  // namespace dmps::floorctl
