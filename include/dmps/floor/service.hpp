#pragma once
// FloorService: one host station's arbiter, the facade the rest of the
// system talks floor control to.
//
// A FloorService arbitrates exactly one host: it owns that host's
// GrantStore (resource manager, grants, indexes) and its queues. It
// validates requests (membership, and that the request names its host:
// any other host is Reason::kUnknownHost), runs the chair gate — a chaired
// group, or a request asking for chaired arbitration, admits only the
// chair — and then decides under the group's PolicyKind: ThreeRegimePolicy
// or QueueingPolicy. Servers (fproto::FloorServer), sessions and benches
// consume exactly this interface and never see grant slots or policy
// internals. Several hosts are arbitrated by ShardedFloorService, which
// keeps one FloorService per host station and routes each operation to it.
//
// Conference state is read straight from the GroupRegistry: membership,
// the group's mode, chair and policy, and the member's priority. The
// service never mutates the registry. Like the registry, a FloorService is
// single-threaded: it runs on the thread that owns the conference.
//
// Freed capacity is handled through one capacity-change hook: sweep()
// re-runs Media-Resume and queueing promotions until a fixpoint — a
// promotion that Media-Suspends a junior holder can overshoot and free
// capacity of its own, which an earlier skipped queue entry or a small
// suspended holder may now use; a single pass would strand it. release()
// sweeps whenever it freed capacity or dropped a parked request; callers
// changing capacity out of band (set_capacity) call it directly.

#include <cstddef>
#include <cstdint>

#include "floor/grant_store.hpp"
#include "floor/group.hpp"
#include "floor/policy.hpp"
#include "floor/types.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace dmps::floorctl {

class FloorService : public FloorControl {
 public:
  /// The arbiter of `host`, whose resources start out as `capacity`.
  FloorService(const GroupRegistry& registry, resource::Thresholds thresholds,
               HostId host, resource::Resource capacity);
  // queueing_ borrows three_regime_: a copy would borrow the original's.
  FloorService(const FloorService&) = delete;
  FloorService& operator=(const FloorService&) = delete;

  HostId host() const { return host_; }
  /// Re-provision the host: voids every grant it held. Parked requests
  /// stay parked until the next sweep().
  void set_capacity(resource::Resource capacity) {
    store_.set_capacity(capacity);
  }
  const resource::HostResourceManager& host_manager() const {
    return store_.manager();
  }

  /// FCM-Arbitrate: decide one floor request under the group's discipline.
  Decision request(const FloorRequest& request) override;

  /// Release every floor `member` holds in `group` and drop its parked
  /// requests, then sweep if the release freed capacity or dropped one.
  ReleaseResult release(MemberId member, GroupId group) override;

  /// Capacity-change hook: Media-Resume suspended holders and promote
  /// queued requests until quiescent, regardless of which group (or
  /// out-of-band event) freed the capacity.
  ReleaseResult sweep();

  const resource::Thresholds& thresholds() const {
    return three_regime_.thresholds();
  }
  std::size_t active_grants() const { return store_.active_grants(); }
  std::size_t suspended_grants() const { return store_.suspended_grants(); }
  std::size_t grant_slots() const { return store_.grant_slots(); }
  /// Requests parked across every queueing group.
  std::size_t queued_requests() const { return queueing_.total_queued(); }
  std::size_t queued_requests(GroupId group) const {
    return queueing_.queued(group);
  }

  /// Observability (DESIGN.md §7). Instruments default to the process-
  /// global FloorInstruments pack; a session passes its own. The tracer is
  /// optional (nullptr = no event stream). Set both before the service
  /// starts arbitrating.
  void set_instruments(obs::FloorInstruments* instruments) {
    obs_ = instruments != nullptr ? instruments : &obs::FloorInstruments::global();
  }
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

 private:
  void sweep_into(ReleaseResult& out);
  Decision decide(const FloorRequest& request);
  /// Fold a release/sweep result into counters and the trace.
  void record_result(const ReleaseResult& result, std::uint32_t shard_hint);

  const GroupRegistry& registry_;
  HostId host_;
  GrantStore store_;
  ThreeRegimePolicy three_regime_;
  QueueingPolicy queueing_;
  obs::FloorInstruments* obs_;
  obs::Tracer* tracer_ = nullptr;
  /// Decide-latency sampling phase: one timed decide per 64 keeps the
  /// steady-state cost of the histogram near zero.
  std::uint32_t decide_sample_ = 0;
};

}  // namespace dmps::floorctl
