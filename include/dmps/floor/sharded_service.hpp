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
// Two executors run the same three per-op helpers — request, release,
// sweep (DESIGN.md §5b):
//   - Inline (never started): every call runs on the caller's thread and
//     returns its result directly — the daemon and the session use this.
//     Not thread-safe, exactly like a FloorService.
//   - Workers (after start()): shard i is owned by worker i % workers, and
//     every operation reaches it through that worker's bounded MPSC
//     mailbox. Result-returning calls enqueue and wait; the callback
//     overloads pipeline (their completion runs on the worker thread, must
//     be cheap and must not block on the service). Operations on one shard
//     execute in mailbox arrival order, so request() then release_on() for
//     the same host from one producer never reorder. Holder-addressed
//     release() resolves its shards from the route map, which the
//     accepting shard writes, so it needs the request's decision to have
//     been observed first; pipelining producers use release_on().
// stop() is one-shot: every operation after it is refused ("floor service
// is not running" / an empty ReleaseResult). Under both executors release()
// merges per-shard results in route order, so the two give identical
// results for the same op stream.
//
// Cross-host promotion needs no extra machinery here: a queued request
// lives in the shard of the host it asked for, and that shard's
// capacity-change sweep promotes it the moment capacity frees there.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "clock/drift_clock.hpp"
#include "floor/service.hpp"
#include "util/flat_map.hpp"
#include "util/mpsc_mailbox.hpp"
#include "util/small_vec.hpp"
#include "util/sync.hpp"

namespace dmps::floorctl {

class ShardedFloorService : public FloorControl {
 public:
  using DecisionCallback = std::function<void(const Decision&)>;
  using ReleaseCallback = std::function<void(const ReleaseResult&)>;

  /// The clock argument is unused: arbitration reads no clock.
  ShardedFloorService(const GroupRegistry& registry, clk::Clock& /*unused*/,
                      resource::Thresholds thresholds);
  ~ShardedFloorService() override;
  ShardedFloorService(const ShardedFloorService&) = delete;
  ShardedFloorService& operator=(const ShardedFloorService&) = delete;

  /// Register a host station and its capacity. First sight of a host
  /// creates its shard; re-registering re-provisions the shard
  /// (FloorService::set_capacity: its grants are voided). Setup phase
  /// only: throws std::logic_error once start() has run.
  void add_host(HostId host, resource::Resource capacity);

  /// The per-host shard, or nullptr for an unknown host. This is the seam
  /// federated fproto::FloorServer endpoints bind to (one per shard).
  FloorService* shard(HostId host);
  const resource::HostResourceManager* host_manager(HostId host);

  // ------------------------------------------------------------ lifecycle
  /// Spawn `workers` threads (0 = one per shard, never more than shards)
  /// and hand every shard to worker i % workers. With a `trace` hub, shard
  /// s emits into tracer worker(s) % trace->size(), keeping each tracer
  /// single-writer; without one, tracing is off. Call once, after every
  /// add_host(); the hub must outlive the service.
  void start(std::size_t workers, obs::TraceHub* trace = nullptr);
  /// Wait until every worker mailbox is empty and every dequeued operation
  /// finished. Call after producers stop; aggregate reads are safe after.
  void drain();
  /// Close the mailboxes (accepted work still runs) and join the workers.
  /// One-shot: every operation after it is refused, and start() no longer
  /// does anything.
  void stop();
  bool running() const { return state() == State::kRunning; }
  std::size_t worker_count() const { return workers_.size(); }

  // ------------------------------------------------- result-returning calls
  /// FCM-Arbitrate on the shard owning request.host.
  Decision request(const FloorRequest& request) override;

  /// Release everything `member` holds in `group` on every shard it was
  /// routed to, dropping parked requests there too (a member with only
  /// parked requests gets them dropped and `released == false`).
  ReleaseResult release(MemberId member, GroupId group) override;

  /// Shard-scoped release: drop what `member` holds in `group` on `host`
  /// only. The route entry keeps any other hosts.
  ReleaseResult release_on(HostId host, MemberId member, GroupId group);

  /// Capacity-change hook, routed to the shard owning `host`.
  ReleaseResult sweep(HostId host);

  // ------------------------------------------------------- callback calls
  /// The same operations with a completion instead of a return value: run
  /// inline before start(), on the owning worker after it.
  void request(const FloorRequest& request, DecisionCallback done);
  void release(MemberId member, GroupId group, ReleaseCallback done);
  void release_on(HostId host, MemberId member, GroupId group,
                  ReleaseCallback done);
  void sweep(HostId host, ReleaseCallback done);

  /// Wire instruments and an (optional) tracer into every shard, current
  /// and future. nullptr instruments fall back to the global pack; a
  /// nullptr tracer disables the event stream. Setup-phase call.
  void set_observability(obs::FloorInstruments* instruments,
                         obs::Tracer* tracer);

  /// Heap allocations observed inside worker drain cycles since start().
  /// Only meaningful when the binary installs the util/alloc_probe
  /// operator-new hook; quiescent-state read (drain() first).
  std::uint64_t hot_loop_allocations() const;

  std::size_t shard_count() const { return shards_.size(); }
  const resource::Thresholds& thresholds() const { return thresholds_; }

  // Aggregates over every shard. Once started, drain() first.
  std::size_t active_grants() const;
  std::size_t suspended_grants() const;
  std::size_t grant_slots() const;
  std::size_t queued_requests() const;
  std::size_t queued_requests(GroupId group) const;

 private:
  enum class State : std::uint8_t { kInline, kRunning, kStopped };

  struct Shard {
    Shard(const GroupRegistry& registry, resource::Thresholds thresholds,
          HostId host, resource::Resource capacity)
        : service(registry, thresholds, host, capacity) {}
    FloorService service;
    std::size_t worker = 0;  // assigned by start()
  };

  struct FanOut;

  /// One mailbox entry: a single-shard step of some operation.
  struct Op {
    enum class Kind : std::uint8_t { kRequest, kRelease, kSweep };
    Kind kind = Kind::kRequest;
    Shard* shard = nullptr;
    // kRequest carries the full request; kRelease reuses its member and
    // group fields, keeping every ring slot one request wide.
    FloorRequest request;
    DecisionCallback on_decision;
    ReleaseCallback on_release;
    std::shared_ptr<FanOut> fan;  // multi-shard release
    std::uint32_t part = 0;       // this step's route position in `fan`
  };

  /// Collects the per-shard results of one multi-shard release. The last
  /// shard to report merges them in route order and completes.
  struct FanOut {
    util::Mutex mu;
    std::vector<ReleaseResult> parts DMPS_GUARDED_BY(mu);
    std::size_t remaining DMPS_GUARDED_BY(mu) = 0;
    ReleaseCallback done DMPS_GUARDED_BY(mu);
  };

  struct Worker {
    util::MpscMailbox<Op> mailbox{kMailboxCapacity};
    std::thread thread;
    /// Allocations observed while executing drained backlogs (alloc-probe).
    std::atomic<std::uint64_t> hot_allocs{0};
  };

  /// Bound of each worker's mailbox (backpressure: producers block).
  static constexpr std::size_t kMailboxCapacity = 1024;
  static constexpr std::size_t kRouteStripes = 64;
  /// Route lists stay inline for the common one-or-two-host holder, and
  /// emptied entries are kept so a returning holder reuses its slot — the
  /// steady-state request/release cycle allocates nothing here.
  using RouteList = util::SmallVec<HostId, 2>;
  struct RouteStripe {
    util::Mutex mu;
    // holder_key(member, group) -> shards holding its grants or parked
    // state.
    util::FlatMap<RouteList> routes DMPS_GUARDED_BY(mu);
  };

  State state() const { return state_.load(std::memory_order_acquire); }
  Shard* find_shard(HostId host);

  // The per-op helpers both executors run.
  Decision request_here(Shard& shard, const FloorRequest& request);
  ReleaseResult release_here(Shard& shard, MemberId member, GroupId group);

  RouteStripe& stripe(std::uint64_t key) {
    return routes_[key % kRouteStripes];
  }
  void record_route(MemberId member, GroupId group, HostId host);
  void drop_route(MemberId member, GroupId group, HostId host);
  RouteList take_routes(MemberId member, GroupId group);

  void worker_main(std::size_t index);
  void execute(Op& op);
  void enqueue(Op& op);
  void refuse(Op& op);  // complete an op the workers cannot take
  /// A request the router turns away, counted like a shard's refusal so
  /// floor.requests still counts every request the facade answered.
  Decision refused(Reason reason);
  void complete(Op& op, ReleaseResult&& result);

  const GroupRegistry& registry_;
  resource::Thresholds thresholds_;
  obs::FloorInstruments* obs_;
  obs::Tracer* tracer_ = nullptr;
  obs::TraceHub* trace_hub_ = nullptr;  // set by start()
  // Ordered by host id, so aggregates and the shard -> worker assignment
  // are deterministic. shards_ and workers_ are setup-then-immutable:
  // written before the release-store of state_ in start(), read-only
  // afterwards.
  std::map<HostId::value_type, Shard> shards_;
  std::array<RouteStripe, kRouteStripes> routes_;
  std::atomic<State> state_{State::kInline};
  /// Serializes start()/stop(): an explicit stop racing the destructor's
  /// must not join the same threads twice.
  util::Mutex lifecycle_mu_;
  std::vector<std::unique_ptr<Worker>> workers_;  // threads use all above
};

}  // namespace dmps::floorctl
