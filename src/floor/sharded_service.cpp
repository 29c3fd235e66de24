#include "floor/sharded_service.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/alloc_probe.hpp"

namespace dmps::floorctl {

namespace {

/// A started result-returning call: submit the callback form, then block
/// until the worker's completion hands the result over. The callback
/// captures one pointer, so std::function stores it inline — no allocation
/// per call. notify_one() runs under the lock, so the caller cannot return
/// (and destroy the rendezvous) before the worker is done with it.
template <typename Result, typename Submit>
Result await(Submit&& submit) {
  struct Rendezvous {
    util::Mutex mu;
    util::CondVar ready_cv;
    bool ready DMPS_GUARDED_BY(mu) = false;
    Result value DMPS_GUARDED_BY(mu);
  } rendezvous;
  submit([&rendezvous](const Result& value) {
    util::MutexLock lock(rendezvous.mu);
    rendezvous.value = value;
    rendezvous.ready = true;
    rendezvous.ready_cv.notify_one();
  });
  util::MutexLock lock(rendezvous.mu);
  while (!rendezvous.ready) rendezvous.ready_cv.wait(rendezvous.mu, lock);
  return std::move(rendezvous.value);
}

}  // namespace

ShardedFloorService::ShardedFloorService(const GroupRegistry& registry,
                                         clk::Clock& clock,
                                         resource::Thresholds thresholds)
    : registry_(registry),
      clock_(clock),
      thresholds_(thresholds),
      // Resolved here (setup phase) so the global pack's lazy registration
      // can never fire inside an alloc-probed worker drain.
      obs_(&obs::FloorInstruments::global()) {}

ShardedFloorService::~ShardedFloorService() { stop(); }

void ShardedFloorService::add_host(HostId host, resource::Resource capacity) {
  // Runtime refusal, not an assert: a post-start() mutation of the shard
  // map would race every worker's lookups.
  if (state() != State::kInline) {
    throw std::logic_error(
        "ShardedFloorService::add_host is setup-phase only "
        "(call before start())");
  }
  auto [it, created] = shards_.try_emplace(host.value(), registry_, clock_,
                                           thresholds_, host, capacity);
  FloorService& service = it->second.service;
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
  for (auto& [id, shard] : shards_) {
    shard.service.set_instruments(obs_);
    shard.service.set_tracer(tracer_);
  }
}

ShardedFloorService::Shard* ShardedFloorService::find_shard(HostId host) {
  const auto it = shards_.find(host.value());
  return it != shards_.end() ? &it->second : nullptr;
}

FloorService* ShardedFloorService::shard(HostId host) {
  Shard* owner = find_shard(host);
  return owner != nullptr ? &owner->service : nullptr;
}

const resource::HostResourceManager* ShardedFloorService::host_manager(
    HostId host) {
  const FloorService* owner = shard(host);
  return owner != nullptr ? &owner->host_manager() : nullptr;
}

// ---------------------------------------------------------------- lifecycle

void ShardedFloorService::start(std::size_t workers, obs::TraceHub* trace) {
  util::MutexLock lifecycle(lifecycle_mu_);
  if (state() != State::kInline || shards_.empty()) return;
  const std::size_t count =
      std::min(workers == 0 ? shards_.size() : workers, shards_.size());
  workers_.reserve(count);
  for (std::size_t w = 0; w < count; ++w) {
    workers_.push_back(std::make_unique<Worker>());
  }
  trace_hub_ = trace != nullptr && trace->size() > 0 ? trace : nullptr;
  std::size_t index = 0;
  for (auto& [id, shard] : shards_) {
    shard.worker = index++ % count;
    // A shard traces into its worker's tracer: the worker owns the shard,
    // so each tracer ring stays single-writer without a lock.
    shard.service.set_tracer(
        trace_hub_ != nullptr
            ? &trace_hub_->tracer(shard.worker % trace_hub_->size())
            : nullptr);
  }
  state_.store(State::kRunning, std::memory_order_release);
  for (std::size_t w = 0; w < count; ++w) {
    workers_[w]->thread = std::thread([this, w] { worker_main(w); });
  }
}

void ShardedFloorService::drain() {
  for (auto& worker : workers_) worker->mailbox.wait_idle();
}

void ShardedFloorService::stop() {
  util::MutexLock lifecycle(lifecycle_mu_);
  for (auto& worker : workers_) worker->mailbox.close();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  // The workers and their closed mailboxes stay allocated until
  // destruction: a producer racing stop() past its state check must land
  // on a closed mailbox (push -> false -> refusal), never on freed memory.
  state_.store(State::kStopped, std::memory_order_release);
}

std::uint64_t ShardedFloorService::hot_loop_allocations() const {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) {
    total += worker->hot_allocs.load(std::memory_order_relaxed);
  }
  return total;
}

// dmps-lint: hot-begin(worker-drain) — the worker drain loop and the
// execute() run it brackets with the alloc probe: steady-state arbitration
// must stay free of heap allocation, std::function construction and
// hash-map rehash (DESIGN.md §10).
void ShardedFloorService::worker_main(std::size_t index) {
  Worker& worker = *workers_[index];
  // The whole backlog is drained per wakeup: one lock episode and one
  // condvar round-trip amortized over every op queued since the last pass.
  // The backlog vector is reserved once and recycled; the alloc probe
  // brackets exactly the execute() run (clear() after mark_done only
  // destroys).
  std::vector<Op> backlog;
  backlog.reserve(worker.mailbox.capacity());
  obs::Tracer* tracer = trace_hub_ != nullptr
                            ? &trace_hub_->tracer(index % trace_hub_->size())
                            : nullptr;
  while (const std::size_t n = worker.mailbox.pop_all(backlog)) {
    obs_->mailbox_drain.record(static_cast<std::int64_t>(n));
    if (tracer != nullptr) {
      tracer->emit(obs::Ev::kMailboxDrain, static_cast<std::uint32_t>(index),
                   0, 0, static_cast<std::int64_t>(n));
    }
    const std::uint64_t before = util::alloc_probe_count();
    for (Op& op : backlog) execute(op);
    worker.hot_allocs.fetch_add(util::alloc_probe_count() - before,
                                std::memory_order_relaxed);
    worker.mailbox.mark_done(n);
    backlog.clear();
  }
}
// dmps-lint: hot-end

// dmps-lint: hot-begin(route-map) — runs per accepted request and per
// released shard under both executors; the warm path reuses emptied nodes.
void ShardedFloorService::record_route(MemberId member, GroupId group,
                                       HostId host) {
  const std::uint64_t key = holder_key(member, group);
  RouteStripe& s = stripe(key);
  util::MutexLock lock(s.mu);
  // First route for a holder inserts its node; every later record/drop
  // cycle finds the kept-empty entry and stays off the heap.
  // dmps-lint: allow-next(hot-unordered-map)
  auto& hosts = s.routes[key];
  if (std::find(hosts.begin(), hosts.end(), host) == hosts.end()) {
    hosts.push_back(host);
    obs_->routes_recorded.add();
  }
}

void ShardedFloorService::drop_route(MemberId member, GroupId group,
                                     HostId host) {
  const std::uint64_t key = holder_key(member, group);
  RouteStripe& s = stripe(key);
  util::MutexLock lock(s.mu);
  const auto it = s.routes.find(key);
  if (it == s.routes.end()) return;
  // Compact in place and keep the (possibly empty) entry.
  auto& hosts = it->second;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    if (hosts[i] != host) hosts[keep++] = hosts[i];
  }
  while (hosts.size() > keep) hosts.pop_back();
}

ShardedFloorService::RouteList ShardedFloorService::take_routes(
    MemberId member, GroupId group) {
  const std::uint64_t key = holder_key(member, group);
  RouteStripe& s = stripe(key);
  RouteList hosts;
  util::MutexLock lock(s.mu);
  const auto it = s.routes.find(key);
  if (it == s.routes.end()) return hosts;
  for (const HostId host : it->second) hosts.push_back(host);
  it->second.clear();  // keep the emptied entry (see drop_route)
  return hosts;
}
// dmps-lint: hot-end

// dmps-lint: hot-begin(shard-execute) — the per-op helpers, run inline or
// inside the alloc-probed worker drain bracket for every op kind.
Decision ShardedFloorService::request_here(Shard& shard,
                                           const FloorRequest& request) {
  Decision decision = shard.service.request(request);
  if (decision.outcome == Outcome::kGranted ||
      decision.outcome == Outcome::kGrantedDegraded ||
      decision.outcome == Outcome::kQueued) {
    // The shard now holds state for this (member, group): remember the
    // route so release touches exactly the shards involved.
    record_route(request.member, request.group, shard.service.host());
  }
  return decision;
}

ReleaseResult ShardedFloorService::release_here(Shard& shard, MemberId member,
                                                GroupId group) {
  ReleaseResult result = shard.service.release(member, group);
  // This shard no longer holds anything for the holder (grants and parked
  // requests alike were dropped).
  drop_route(member, group, shard.service.host());
  return result;
}

void ShardedFloorService::execute(Op& op) {
  Shard& shard = *op.shard;
  const MemberId member = op.request.member;
  const GroupId group = op.request.group;
  switch (op.kind) {
    case Op::Kind::kRequest: {
      const Decision decision = request_here(shard, op.request);
      if (op.on_decision) op.on_decision(decision);
      return;
    }
    case Op::Kind::kRelease:
      complete(op, release_here(shard, member, group));
      return;
    case Op::Kind::kSweep:
      complete(op, shard.service.sweep());
      return;
  }
}

void ShardedFloorService::complete(Op& op, ReleaseResult&& result) {
  if (op.fan == nullptr) {
    if (op.on_release) op.on_release(result);
    return;
  }
  FanOut& fan = *op.fan;
  ReleaseResult merged;
  ReleaseCallback done;
  {
    util::MutexLock lock(fan.mu);
    fan.parts[op.part] = std::move(result);
    if (--fan.remaining != 0) return;
    for (ReleaseResult& part : fan.parts) {
      merge_release_results(merged, std::move(part));
    }
    done = std::move(fan.done);
  }
  if (done) done(merged);
}
// dmps-lint: hot-end

void ShardedFloorService::enqueue(Op& op) {
  if (state() == State::kRunning &&
      workers_[op.shard->worker]->mailbox.push(std::move(op))) {
    return;
  }
  // Never started workers, or racing stop(): push() left the op intact
  // (see MpscMailbox::push), so the read below is well-defined — the op is
  // refused instead of silently dropped.
  refuse(op);  // NOLINT(bugprone-use-after-move)
}

void ShardedFloorService::refuse(Op& op) {
  if (op.kind != Op::Kind::kRequest) {
    complete(op, ReleaseResult{});
    return;
  }
  const Decision decision = refused(Reason::kNotRunning);
  if (op.on_decision) op.on_decision(decision);
}

Decision ShardedFloorService::refused(Reason reason) {
  obs_->requests.add();
  obs_->denied.add();
  Decision decision;
  decision.reason = reason;
  return decision;
}

// ------------------------------------------------------ result-returning
// Inline, each call runs its helper here. Started (or stopped), it submits
// the callback form and waits for the completion.

Decision ShardedFloorService::request(const FloorRequest& request) {
  Shard* owner = find_shard(request.host);
  if (owner == nullptr) return refused(Reason::kUnknownHost);
  if (state() != State::kInline) {
    return await<Decision>([&](DecisionCallback done) {
      this->request(request, std::move(done));
    });
  }
  return request_here(*owner, request);
}

ReleaseResult ShardedFloorService::release(MemberId member, GroupId group) {
  if (state() != State::kInline) {
    return await<ReleaseResult>(
        [&](ReleaseCallback done) { release(member, group, std::move(done)); });
  }
  ReleaseResult result;
  const RouteList hosts = take_routes(member, group);
  if (hosts.empty()) return result;
  obs_->route_fanout.add(static_cast<std::int64_t>(hosts.size()));
  for (const HostId host : hosts) {
    merge_release_results(result,
                          release_here(*find_shard(host), member, group));
  }
  return result;
}

ReleaseResult ShardedFloorService::release_on(HostId host, MemberId member,
                                              GroupId group) {
  Shard* owner = find_shard(host);
  if (owner == nullptr) return ReleaseResult{};
  if (state() != State::kInline) {
    return await<ReleaseResult>([&](ReleaseCallback done) {
      release_on(host, member, group, std::move(done));
    });
  }
  return release_here(*owner, member, group);
}

ReleaseResult ShardedFloorService::sweep(HostId host) {
  Shard* owner = find_shard(host);
  if (owner == nullptr) return ReleaseResult{};
  if (state() != State::kInline) {
    return await<ReleaseResult>(
        [&](ReleaseCallback done) { sweep(host, std::move(done)); });
  }
  return owner->service.sweep();
}

// ---------------------------------------------------------------- callbacks
// Inline (or for an unknown host), each runs its result-returning twin and
// completes on the caller's thread. Started, it enqueues single-shard
// steps; a stopped service refuses them.

void ShardedFloorService::request(const FloorRequest& request,
                                  DecisionCallback done) {
  Shard* owner = find_shard(request.host);
  if (owner == nullptr || state() == State::kInline) {
    const Decision decision = this->request(request);
    if (done) done(decision);
    return;
  }
  Op op;
  op.kind = Op::Kind::kRequest;
  op.shard = owner;
  op.request = request;
  op.on_decision = std::move(done);
  enqueue(op);
}

void ShardedFloorService::release(MemberId member, GroupId group,
                                  ReleaseCallback done) {
  if (state() == State::kInline) {
    const ReleaseResult result = release(member, group);
    if (done) done(result);
    return;
  }
  // One release step per routed host; several merge through a FanOut.
  const RouteList hosts = take_routes(member, group);
  if (hosts.empty()) {
    if (done) done(ReleaseResult{});
    return;
  }
  obs_->route_fanout.add(static_cast<std::int64_t>(hosts.size()));
  std::shared_ptr<FanOut> fan;
  if (hosts.size() > 1) {
    fan = std::make_shared<FanOut>();
    util::MutexLock lock(fan->mu);
    fan->parts.resize(hosts.size());
    fan->remaining = hosts.size();
    fan->done = std::move(done);
  }
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    Op op;
    op.kind = Op::Kind::kRelease;
    op.shard = find_shard(hosts[i]);
    op.request.member = member;
    op.request.group = group;
    op.fan = fan;
    op.part = static_cast<std::uint32_t>(i);
    if (fan == nullptr) op.on_release = std::move(done);
    enqueue(op);
  }
}

void ShardedFloorService::release_on(HostId host, MemberId member,
                                     GroupId group, ReleaseCallback done) {
  Shard* owner = find_shard(host);
  if (owner == nullptr || state() == State::kInline) {
    const ReleaseResult result = release_on(host, member, group);
    if (done) done(result);
    return;
  }
  Op op;
  op.kind = Op::Kind::kRelease;
  op.shard = owner;
  op.request.member = member;
  op.request.group = group;
  op.on_release = std::move(done);
  enqueue(op);
}

void ShardedFloorService::sweep(HostId host, ReleaseCallback done) {
  Shard* owner = find_shard(host);
  if (owner == nullptr || state() == State::kInline) {
    const ReleaseResult result = sweep(host);
    if (done) done(result);
    return;
  }
  Op op;
  op.kind = Op::Kind::kSweep;
  op.shard = owner;
  op.on_release = std::move(done);
  enqueue(op);
}

// --------------------------------------------------------------- aggregates

std::size_t ShardedFloorService::active_grants() const {
  std::size_t total = 0;
  for (const auto& [id, shard] : shards_) {
    total += shard.service.active_grants();
  }
  return total;
}

std::size_t ShardedFloorService::suspended_grants() const {
  std::size_t total = 0;
  for (const auto& [id, shard] : shards_) {
    total += shard.service.suspended_grants();
  }
  return total;
}

std::size_t ShardedFloorService::grant_slots() const {
  std::size_t total = 0;
  for (const auto& [id, shard] : shards_) total += shard.service.grant_slots();
  return total;
}

std::size_t ShardedFloorService::queued_requests() const {
  std::size_t total = 0;
  for (const auto& [id, shard] : shards_) {
    total += shard.service.queued_requests();
  }
  return total;
}

std::size_t ShardedFloorService::queued_requests(GroupId group) const {
  std::size_t total = 0;
  for (const auto& [id, shard] : shards_) {
    total += shard.service.queued_requests(group);
  }
  return total;
}

}  // namespace dmps::floorctl
