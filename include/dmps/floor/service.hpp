#pragma once
// FloorService: the facade the rest of the system talks floor control to.
//
// A FloorService validates requests (membership, host), resolves the
// group's discipline — its PolicyKind, with ChairedPolicy layered on top
// when the group or the request asks for chaired arbitration — and runs
// the chosen ArbitrationPolicy against the GrantStore it owns. Servers
// (fproto::FloorServer), sessions and benches consume exactly this
// interface and never see grant slots or policy internals; it is also the
// per-shard surface ShardedFloorService federates (one FloorService per
// host station, inline or on a shard worker thread).
//
// Conference state is read through immutable GroupSnapshots only. The
// explicit `const GroupSnapshot&` overloads are the core: every request /
// release / cancel runs against the snapshot it is handed. The
// convenience overloads resolve the service's cached snapshot (refreshed
// with one epoch probe when the registry moved) and delegate to them —
// that is the path shard workers drive; callers that manage their own
// snapshot (pinning one view across several operations) use the explicit
// overloads directly. The service never mutates the registry, so a
// FloorService is safe to drive from its own worker thread while
// membership churns elsewhere — it simply keeps arbitrating against the
// snapshot it read. The snapshot cache makes each instance single-owner:
// exactly one thread may operate a given FloorService at a time.
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

  /// Register a host station and its capacity. Replaces any prior entry.
  void add_host(HostId host, resource::Resource capacity);
  resource::HostResourceManager* host_manager(HostId host) {
    return store_.host_manager(host);
  }
  bool has_host(HostId host) const { return store_.has_host(host); }

  /// FCM-Arbitrate: decide one floor request under the group's discipline,
  /// resolved against the given snapshot.
  Decision request(const GroupSnapshot& snapshot, const FloorRequest& request);
  /// Convenience: decide against the registry's latest snapshot (the
  /// FloorControl entry point).
  Decision request(const FloorRequest& request) override;

  /// Release every floor `member` holds in `group` and drop its parked
  /// requests, then sweep every host the release freed capacity on.
  ReleaseResult release(const GroupSnapshot& snapshot, MemberId member,
                        GroupId group);
  ReleaseResult release(MemberId member, GroupId group) override;

  /// Drop the member's parked (queued) requests in `group` without
  /// touching grants it holds; dropped requests appear in `dequeued`.
  ReleaseResult cancel(const GroupSnapshot& snapshot, MemberId member,
                       GroupId group);
  ReleaseResult cancel(MemberId member, GroupId group);

  /// Capacity-change hook: Media-Resume suspended holders and promote
  /// queued requests on `host` until quiescent, regardless of which group
  /// (or out-of-band event) freed the capacity.
  ReleaseResult sweep(HostId host);

  const resource::Thresholds& thresholds() const { return thresholds_; }
  std::size_t active_grants() const { return store_.active_grants(); }
  std::size_t suspended_grants() const { return store_.suspended_grants(); }
  std::size_t grant_slots() const { return store_.grant_slots(); }
  /// Requests parked across every queueing group.
  std::size_t queued_requests() const { return queueing_.total_queued(); }
  std::size_t queued_requests(GroupId group) const {
    return queueing_.queued(group);
  }

  GrantStore& grants() { return store_; }

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
  ArbitrationPolicy& policy_for(const Group& group, FcmMode request_mode);
  void sweep_host(GrantStore::HostView& host, ReleaseResult& out);
  Decision decide(const GroupSnapshot& snapshot, const FloorRequest& request);
  /// Fold a release/cancel/sweep result into counters and the trace.
  void record_result(const ReleaseResult& result, std::uint32_t shard_hint);
  /// The cached snapshot, refreshed when the registry's epoch moved. Owner-
  /// thread only (one epoch probe per call, no shared_ptr churn).
  const GroupSnapshot& refreshed_snapshot();

  const GroupRegistry& registry_;
  std::shared_ptr<const GroupSnapshot> snapshot_;  // cache for refreshed_snapshot
  resource::Thresholds thresholds_;
  GrantStore store_;
  ThreeRegimePolicy three_regime_;
  QueueingPolicy queueing_;
  ChairedPolicy chaired_three_regime_;
  ChairedPolicy chaired_queueing_;
  obs::FloorInstruments* obs_;
  obs::Tracer* tracer_ = nullptr;
  /// Decide-latency sampling phase (owner-thread only): one timed decide
  /// per 64 keeps the steady-state cost of the histogram near zero.
  std::uint32_t decide_sample_ = 0;
};

}  // namespace dmps::floorctl
