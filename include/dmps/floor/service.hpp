#pragma once
// FloorService: the facade the rest of the system talks floor control to.
//
// A FloorService validates requests (membership, host), runs the chair
// gate — a chaired group, or a request asking for chaired arbitration,
// admits only the chair — and then decides under the group's PolicyKind:
// ThreeRegimePolicy or QueueingPolicy, against the GrantStore it owns.
// Servers (fproto::FloorServer), sessions and benches consume exactly this
// interface and never see grant slots or policy internals; it is also the
// per-shard surface ShardedFloorService federates (one FloorService per
// host station, inline or on a shard worker thread).
//
// Conference state is read through immutable GroupSnapshots only: each
// request arbitrates against the service's cached snapshot, refreshed with
// one epoch probe when the registry moved. The service never mutates the
// registry, so a FloorService is safe to drive from its own worker thread
// while membership churns elsewhere — it simply keeps arbitrating against
// the snapshot it read. The snapshot cache makes each instance
// single-owner: exactly one thread may operate a given FloorService at a
// time.
//
// Freed capacity is handled through one capacity-change hook: sweep(host)
// re-runs Media-Resume and queueing promotions on that host until a
// fixpoint — a promotion that Media-Suspends a junior holder can overshoot
// and free capacity of its own, which an earlier skipped queue entry or a
// small suspended holder may now use; a single pass would strand it.
// release() invokes the sweep for every host it freed capacity on; callers
// changing capacity out of band (growing a live host) call it directly.

#include <cstddef>
#include <cstdint>
#include <memory>

#include "clock/drift_clock.hpp"
#include "floor/grant_store.hpp"
#include "floor/group.hpp"
#include "floor/policy.hpp"
#include "floor/types.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace dmps::floorctl {

class FloorService : public FloorControl {
 public:
  FloorService(const GroupRegistry& registry, clk::Clock& clock,
               resource::Thresholds thresholds);
  // queueing_ borrows three_regime_: a copy would borrow the original's.
  FloorService(const FloorService&) = delete;
  FloorService& operator=(const FloorService&) = delete;

  /// Register a host station and its capacity. Replaces any prior entry.
  void add_host(HostId host, resource::Resource capacity);
  resource::HostResourceManager* host_manager(HostId host) {
    return store_.host_manager(host);
  }

  /// FCM-Arbitrate: decide one floor request under the group's discipline,
  /// against the registry's latest snapshot.
  Decision request(const FloorRequest& request) override;

  /// Release every floor `member` holds in `group` and drop its parked
  /// requests, then sweep every host the release freed capacity on or a
  /// dropped request targeted.
  ReleaseResult release(MemberId member, GroupId group) override;

  /// Capacity-change hook: Media-Resume suspended holders and promote
  /// queued requests on `host` until quiescent, regardless of which group
  /// (or out-of-band event) freed the capacity.
  ReleaseResult sweep(HostId host);

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
  /// optional (nullptr = no event stream). Owner-thread calls, like every
  /// other mutation — set both before the service starts arbitrating.
  void set_instruments(obs::FloorInstruments* instruments) {
    obs_ = instruments != nullptr ? instruments : &obs::FloorInstruments::global();
  }
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

 private:
  void sweep_host(GrantStore::HostView& host, ReleaseResult& out);
  Decision decide(const GroupSnapshot& snapshot, const FloorRequest& request);
  /// Fold a release/sweep result into counters and the trace.
  void record_result(const ReleaseResult& result, std::uint32_t shard_hint);
  /// The cached snapshot, refreshed when the registry's epoch moved. Owner-
  /// thread only (one epoch probe per call, no shared_ptr churn).
  const GroupSnapshot& refreshed_snapshot();

  const GroupRegistry& registry_;
  std::shared_ptr<const GroupSnapshot> snapshot_;  // cache for refreshed_snapshot
  GrantStore store_;
  ThreeRegimePolicy three_regime_;
  QueueingPolicy queueing_;
  obs::FloorInstruments* obs_;
  obs::Tracer* tracer_ = nullptr;
  /// Decide-latency sampling phase (owner-thread only): one timed decide
  /// per 64 keeps the steady-state cost of the histogram near zero.
  std::uint32_t decide_sample_ = 0;
};

}  // namespace dmps::floorctl
