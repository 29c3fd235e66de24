#include "floor/sharded_service.hpp"

#include <algorithm>

namespace dmps::floorctl {

ShardedFloorService::ShardedFloorService(const GroupRegistry& registry,
                                         clk::Clock& /*unused*/,
                                         resource::Thresholds thresholds)
    : registry_(registry),
      thresholds_(thresholds),
      // Resolved here (setup phase) so the global pack's lazy registration
      // can never fire inside an alloc-probed run.
      obs_(&obs::FloorInstruments::global()) {}

void ShardedFloorService::add_host(HostId host, resource::Resource capacity) {
  auto [it, created] =
      shards_.try_emplace(host.value(), registry_, thresholds_, host, capacity);
  FloorService& service = it->second;
  if (!created) {
    service.set_capacity(capacity);
    return;
  }
  service.set_instruments(obs_);
  service.set_tracer(tracer_);
}

void ShardedFloorService::set_observability(obs::FloorInstruments* instruments,
                                            obs::Tracer* tracer) {
  obs_ = instruments != nullptr ? instruments
                                : &obs::FloorInstruments::global();
  tracer_ = tracer;
  for (auto& [id, service] : shards_) {
    service.set_instruments(obs_);
    service.set_tracer(tracer_);
  }
}

FloorService* ShardedFloorService::shard(HostId host) {
  const auto it = shards_.find(host.value());
  return it != shards_.end() ? &it->second : nullptr;
}

const resource::HostResourceManager* ShardedFloorService::host_manager(
    HostId host) {
  const FloorService* owner = shard(host);
  return owner != nullptr ? &owner->host_manager() : nullptr;
}

// dmps-lint: hot-begin(shard-execute) — every request and release the
// facade routes: one shard lookup, one route-map probe, no allocation on
// the warm path.
Decision ShardedFloorService::request(const FloorRequest& request) {
  FloorService* owner = shard(request.host);
  if (owner == nullptr) {
    // Counted like a shard's refusal, so floor.requests still counts every
    // request the facade answered.
    obs_->requests.add();
    obs_->denied.add();
    Decision decision;
    decision.reason = Reason::kUnknownHost;
    return decision;
  }
  Decision decision = owner->request(request);
  if (decision.outcome == Outcome::kGranted ||
      decision.outcome == Outcome::kGrantedDegraded ||
      decision.outcome == Outcome::kQueued) {
    // The shard now holds state for this (member, group): remember the
    // route so release touches exactly the shards involved.
    record_route(request.member, request.group, request.host);
  }
  return decision;
}

ReleaseResult ShardedFloorService::release(MemberId member, GroupId group) {
  ReleaseResult result;
  // One probe: the holder's routes are walked in place, then emptied and
  // kept, so a returning holder reuses the entry.
  RouteList* const hosts = routes_.find(holder_key(member, group));
  if (hosts == nullptr || hosts->empty()) return result;
  obs_->route_fanout.add(static_cast<std::int64_t>(hosts->size()));
  for (const HostId host : *hosts) {
    merge_release_results(result, shard(host)->release(member, group));
  }
  hosts->clear();
  return result;
}
// dmps-lint: hot-end

// dmps-lint: hot-begin(route-map) — runs per accepted request; the warm
// path finds the kept-empty entry.
void ShardedFloorService::record_route(MemberId member, GroupId group,
                                       HostId host) {
  // First route for a holder inserts its entry; every later request finds
  // the kept-empty entry and stays off the heap.
  // dmps-lint: allow-next(hot-unordered-map)
  RouteList& hosts = routes_[holder_key(member, group)];
  if (std::find(hosts.begin(), hosts.end(), host) == hosts.end()) {
    hosts.push_back(host);
    obs_->routes_recorded.add();
  }
}
// dmps-lint: hot-end

ReleaseResult ShardedFloorService::sweep(HostId host) {
  FloorService* owner = shard(host);
  return owner != nullptr ? owner->sweep() : ReleaseResult{};
}

// --------------------------------------------------------------- aggregates

std::size_t ShardedFloorService::active_grants() const {
  std::size_t total = 0;
  for (const auto& [id, service] : shards_) total += service.active_grants();
  return total;
}

std::size_t ShardedFloorService::suspended_grants() const {
  std::size_t total = 0;
  for (const auto& [id, service] : shards_) {
    total += service.suspended_grants();
  }
  return total;
}

std::size_t ShardedFloorService::grant_slots() const {
  std::size_t total = 0;
  for (const auto& [id, service] : shards_) total += service.grant_slots();
  return total;
}

std::size_t ShardedFloorService::queued_requests() const {
  std::size_t total = 0;
  for (const auto& [id, service] : shards_) {
    total += service.queued_requests();
  }
  return total;
}

std::size_t ShardedFloorService::queued_requests(GroupId group) const {
  std::size_t total = 0;
  for (const auto& [id, service] : shards_) {
    total += service.queued_requests(group);
  }
  return total;
}

}  // namespace dmps::floorctl
