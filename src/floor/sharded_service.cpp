#include "floor/sharded_service.hpp"

#include <stdexcept>

namespace dmps::floorctl {

namespace {
/// The router's own refusal. Built apart, so request() returns one named
/// decision and the copy is elided on both paths.
Decision unknown_host() {
  Decision decision;
  decision.reason = Reason::kUnknownHost;
  return decision;
}
}  // namespace

ShardedFloorService::ShardedFloorService(const GroupRegistry& registry,
                                         clk::Clock& /*unused*/,
                                         resource::Thresholds thresholds)
    : registry_(registry),
      thresholds_(thresholds),
      // Resolved here (setup phase) so the global pack's lazy registration
      // can never fire inside an alloc-probed run.
      obs_(&obs::FloorInstruments::global()) {}

void ShardedFloorService::add_host(HostId host, resource::Resource capacity) {
  if (!host.valid()) {
    throw std::invalid_argument("add_host: the invalid host id");
  }
  if (host.value() >= shards_.size()) shards_.resize(host.value() + std::size_t{1});
  std::unique_ptr<FloorService>& slot = shards_[host.value()];
  if (slot != nullptr) {
    slot->set_capacity(capacity);
    return;
  }
  slot = std::make_unique<FloorService>(registry_, thresholds_, host, capacity);
  slot->set_instruments(obs_);
  slot->set_tracer(tracer_);
  ++shard_count_;
}

void ShardedFloorService::set_observability(obs::FloorInstruments* instruments,
                                            obs::Tracer* tracer) {
  obs_ = instruments != nullptr ? instruments
                                : &obs::FloorInstruments::global();
  tracer_ = tracer;
  for (const auto& service : shards_) {
    if (service == nullptr) continue;
    service->set_instruments(obs_);
    service->set_tracer(tracer_);
  }
}

const resource::HostResourceManager* ShardedFloorService::host_manager(
    HostId host) {
  const FloorService* owner = shard(host);
  return owner != nullptr ? &owner->host_manager() : nullptr;
}

// dmps-lint: hot-begin(shard-execute) — every request and release the
// facade routes: one shard index, one route-list walk, no allocation on
// the warm path.
FloorService* ShardedFloorService::shard(HostId host) {
  return host.value() < shards_.size() ? shards_[host.value()].get() : nullptr;
}

Decision ShardedFloorService::request(const FloorRequest& request) {
  FloorService* owner = shard(request.host);
  if (owner == nullptr) {
    // Counted like a shard's refusal, so floor.requests still counts every
    // request the facade answered.
    obs_->requests.add();
    obs_->denied.add();
    return unknown_host();
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
  if (member.value() >= routes_.size()) return result;
  // Walk the member's routes in place: each one in `group` is released on
  // its shard, straight into `result`, and the others are compacted to the
  // front, so the list keeps its order and its storage.
  RouteList& routes = routes_[member.value()];
  std::size_t kept = 0;
  std::int64_t fanout = 0;
  for (std::size_t i = 0; i < routes.size(); ++i) {
    const Route route = routes[i];
    if (route.group != group) {
      routes[kept++] = route;
      continue;
    }
    ++fanout;
    shards_[route.host.value()]->release_into(member, group, result);
  }
  if (fanout == 0) return result;
  while (routes.size() > kept) routes.pop_back();
  obs_->route_fanout.add(fanout);
  return result;
}

void ShardedFloorService::record_route(MemberId member, GroupId group,
                                       HostId host) {
  // The decision came from a shard, so the member is registered: the first
  // route past the vector's end grows it to the whole registry at once.
  if (member.value() >= routes_.size()) routes_.resize(registry_.member_count());
  RouteList& routes = routes_[member.value()];
  for (const Route& route : routes) {
    if (route.group == group && route.host == host) return;
  }
  routes.push_back(Route{group, host});
  obs_->routes_recorded.add();
}
// dmps-lint: hot-end

ReleaseResult ShardedFloorService::sweep(HostId host) {
  FloorService* owner = shard(host);
  return owner != nullptr ? owner->sweep() : ReleaseResult{};
}

// --------------------------------------------------------------- aggregates

std::size_t ShardedFloorService::active_grants() const {
  std::size_t total = 0;
  for (const auto& service : shards_) {
    if (service != nullptr) total += service->active_grants();
  }
  return total;
}

std::size_t ShardedFloorService::suspended_grants() const {
  std::size_t total = 0;
  for (const auto& service : shards_) {
    if (service != nullptr) total += service->suspended_grants();
  }
  return total;
}

std::size_t ShardedFloorService::grant_slots() const {
  std::size_t total = 0;
  for (const auto& service : shards_) {
    if (service != nullptr) total += service->grant_slots();
  }
  return total;
}

std::size_t ShardedFloorService::queued_requests() const {
  std::size_t total = 0;
  for (const auto& service : shards_) {
    if (service != nullptr) total += service->queued_requests();
  }
  return total;
}

std::size_t ShardedFloorService::queued_requests(GroupId group) const {
  std::size_t total = 0;
  for (const auto& service : shards_) {
    if (service != nullptr) total += service->queued_requests(group);
  }
  return total;
}

}  // namespace dmps::floorctl
