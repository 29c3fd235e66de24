#pragma once
// ShardedFloorService: floor-control state partitioned by host station.
//
// The paper's FCM scales by giving every host station its own resource
// manager; this facade completes that shape for the whole floor-control
// core, and is the one way to arbitrate several hosts. Each registered
// host gets a *shard* — the FloorService of that host, with its own
// GrantStore, policies and queueing state — and every operation is
// routed by host: request/sweep by FloorRequest::host, release by a
// holder-route map recorded when the shard accepted the request. Shards
// share one GroupRegistry, so a single conference (groups, members, chairs)
// federates across all of them. dmps_floord puts its one fproto::FloorServer
// in front of this facade; session::Presentation binds one server to each
// shard via shard(host).
//
// Every call runs on the caller's thread and returns its result directly
// (DESIGN.md §5b): one serial arbiter per conference, like a BFCP floor
// control server. Not thread-safe, exactly like a FloorService. release()
// merges per-shard results in route order.
//
// Cross-host promotion needs no extra machinery here: a queued request
// lives in the shard of the host it asked for, and that shard's
// capacity-change sweep promotes it the moment capacity frees there.

#include <cstddef>
#include <map>

#include "clock/drift_clock.hpp"
#include "floor/service.hpp"
#include "util/flat_map.hpp"
#include "util/small_vec.hpp"

namespace dmps::floorctl {

class ShardedFloorService : public FloorControl {
 public:
  /// The clock argument is unused: arbitration reads no clock.
  ShardedFloorService(const GroupRegistry& registry, clk::Clock& /*unused*/,
                      resource::Thresholds thresholds);
  ShardedFloorService(const ShardedFloorService&) = delete;
  ShardedFloorService& operator=(const ShardedFloorService&) = delete;

  /// Register a host station and its capacity. First sight of a host
  /// creates its shard; re-registering re-provisions the shard
  /// (FloorService::set_capacity: its grants are voided).
  void add_host(HostId host, resource::Resource capacity);

  /// The per-host shard, or nullptr for an unknown host. This is the seam
  /// federated fproto::FloorServer endpoints bind to (one per shard).
  FloorService* shard(HostId host);
  const resource::HostResourceManager* host_manager(HostId host);

  /// FCM-Arbitrate on the shard owning request.host.
  Decision request(const FloorRequest& request) override;

  /// Release everything `member` holds in `group` on every shard it was
  /// routed to, dropping parked requests there too (a member with only
  /// parked requests gets them dropped and `released == false`).
  ReleaseResult release(MemberId member, GroupId group) override;

  /// Capacity-change hook, routed to the shard owning `host`.
  ReleaseResult sweep(HostId host);

  /// Wire instruments and an (optional) tracer into every shard, current
  /// and future. nullptr instruments fall back to the global pack; a
  /// nullptr tracer disables the event stream. Setup-phase call.
  void set_observability(obs::FloorInstruments* instruments,
                         obs::Tracer* tracer);

  std::size_t shard_count() const { return shards_.size(); }
  const resource::Thresholds& thresholds() const { return thresholds_; }

  // Aggregates over every shard.
  std::size_t active_grants() const;
  std::size_t suspended_grants() const;
  std::size_t grant_slots() const;
  std::size_t queued_requests() const;
  std::size_t queued_requests(GroupId group) const;

 private:
  /// Route lists stay inline for the common one-or-two-host holder, and
  /// emptied entries are kept so a returning holder reuses its slot — the
  /// steady-state request/release cycle allocates nothing here.
  using RouteList = util::SmallVec<HostId, 2>;

  void record_route(MemberId member, GroupId group, HostId host);

  const GroupRegistry& registry_;
  resource::Thresholds thresholds_;
  obs::FloorInstruments* obs_;
  obs::Tracer* tracer_ = nullptr;
  // Ordered by host id, so aggregates are deterministic.
  std::map<HostId::value_type, FloorService> shards_;
  // holder_key(member, group) -> shards holding its grants or parked state.
  util::FlatMap<RouteList> routes_;
};

}  // namespace dmps::floorctl
