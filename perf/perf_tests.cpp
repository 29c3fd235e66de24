// Unit tests for the benchmark's own code: the percentile helper, the
// reply router, and the floor ledger identity perf/run.py gates on.
//
// Self-contained (no test framework): prints each failed check and exits
// non-zero when any failed. perf/run.py --selftest runs it.

#include <cstdio>
#include <memory>
#include <vector>

#include "agent_port.hpp"
#include "floor/group.hpp"
#include "floor/sharded_service.hpp"
#include "fproto/agent.hpp"
#include "fproto/server.hpp"
#include "obs/registry.hpp"
#include "stats.hpp"
#include "transport/udp.hpp"
#include "util/rng.hpp"

namespace {

using namespace dmps;
using perf::nearest_rank;

int checks = 0;
int failures = 0;

#define CHECK(cond)                                                           \
  do {                                                                        \
    ++checks;                                                                 \
    if (!(cond)) {                                                            \
      ++failures;                                                             \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__,   \
                   #cond);                                                    \
    }                                                                         \
  } while (0)

#define CHECK_EQ(a, b)                                                        \
  do {                                                                        \
    ++checks;                                                                 \
    const auto va = (a);                                                      \
    const auto vb = (b);                                                      \
    if (!(va == vb)) {                                                        \
      ++failures;                                                             \
      std::fprintf(stderr, "%s:%d: CHECK_EQ failed: %s (%lld) != %s (%lld)\n", \
                   __FILE__, __LINE__, #a, static_cast<long long>(va), #b,    \
                   static_cast<long long>(vb));                               \
    }                                                                         \
  } while (0)

void test_nearest_rank() {
  // Ten samples: rank ceil(p/100 * 10).
  std::vector<int> ten = {7, 3, 9, 1, 10, 5, 2, 8, 6, 4};
  const perf::Summary s = perf::summarize(ten);
  CHECK_EQ(s.count, 10u);
  CHECK_EQ(s.p50, 5.0);   // rank 5
  CHECK_EQ(s.p90, 9.0);   // rank 9
  CHECK_EQ(s.p99, 10.0);  // rank ceil(9.9) = 10
  CHECK_EQ(s.max, 10.0);
  CHECK(s.mean == 5.5);
  CHECK(!s.p99_supported);

  // Odd count, unsorted input.
  std::vector<int> three = {5, 1, 3};
  CHECK_EQ(perf::summarize(three).p50, 3.0);  // rank ceil(1.5) = 2

  // Exact products stay put: 0.99 * 1000 is rank 990, not 991.
  CHECK_EQ(nearest_rank(1000, 99), 990u);
  CHECK_EQ(nearest_rank(1000, 50), 500u);
  CHECK_EQ(nearest_rank(1, 99), 1u);
  CHECK_EQ(nearest_rank(0, 50), 0u);
  CHECK_EQ(nearest_rank(7, 100), 7u);

  std::vector<int> empty;
  CHECK_EQ(perf::summarize(empty).count, 0u);
  CHECK_EQ(perf::percentile(empty, 50), 0);
}

void test_ten_beyond() {
  // p99 of 1000 samples: rank 990, ten beyond -> supported.
  CHECK_EQ(perf::beyond(1000, 99), 10u);
  CHECK(perf::supported(1000, 99));
  // 999 samples: rank ceil(989.01) = 990, nine beyond -> not supported.
  CHECK_EQ(perf::beyond(999, 99), 9u);
  CHECK(!perf::supported(999, 99));
  // p90 needs 100 samples; the median needs 20.
  CHECK(perf::supported(100, 90));
  CHECK(!perf::supported(99, 90));
  CHECK(perf::supported(20, 50));
  CHECK(!perf::supported(19, 50));
  CHECK(!perf::supported(0, 50));
  // The summary flags it too.
  std::vector<int> thousand(1000);
  for (int i = 0; i < 1000; ++i) thousand[static_cast<std::size_t>(i)] = 1000 - i;
  const perf::Summary s = perf::summarize(thousand);
  CHECK_EQ(s.p99, 990.0);
  CHECK(s.p99_supported);
}

void test_exact_mean() {
  // Nine recvmmsg batches of one datagram each: the mean is exactly 1 (a
  // power-of-two histogram would report p50 = 2 for the same batches).
  CHECK(perf::exact_mean(9, 9) == 1.0);
  CHECK(perf::exact_mean(10, 4) == 2.5);
  CHECK(perf::exact_mean(5, 0) == 0.0);
}

void test_reply_member() {
  using fproto::MsgKind;
  const auto msg = [](MsgKind kind, net::Payload ints) {
    return net::Message{{}, {}, fproto::wire_type(kind), std::move(ints)};
  };
  const std::uint64_t rid = (77ull << 32) | 5;
  CHECK_EQ(*perf::reply_member(MsgKind::kJoinAck,
                               msg(MsgKind::kJoinAck, fproto::encode(fproto::JoinAckMsg{
                                                          floorctl::MemberId{77},
                                                          floorctl::GroupId{1}, true}))),
           77u);
  CHECK_EQ(*perf::reply_member(MsgKind::kGrant,
                               msg(MsgKind::kGrant, fproto::encode(fproto::GrantMsg{rid, false, 0.5}))),
           77u);
  CHECK_EQ(*perf::reply_member(MsgKind::kReleaseAck,
                               msg(MsgKind::kReleaseAck, fproto::encode(fproto::ReleaseAckMsg{rid}))),
           77u);
  CHECK_EQ(*perf::reply_member(MsgKind::kSuspend,
                               msg(MsgKind::kSuspend, fproto::encode(fproto::SuspendMsg{9, rid}))),
           77u);
  CHECK(!perf::reply_member(MsgKind::kResume, msg(MsgKind::kResume, {9})));
  CHECK(!perf::reply_member(MsgKind::kDeny, msg(MsgKind::kDeny, {})));
}

/// The ledger identity, exercised on the daemon's own code path over
/// loopback UDP: a FloorServer in front of a ShardedFloorService, agents
/// multiplexed on one socket through AgentPort. Every grant the floor layer
/// makes — a direct grant (full or degraded) or a queue promotion — is held
/// by one member on one host, and that member's release reaches exactly one
/// shard, which counts one floor.releases. Once every agent is back at
/// rest, therefore:
///
///   floor.releases == floor.granted + floor.granted_degraded + floor.promotions
///
/// and nothing is active, suspended or queued. Denied and aborted requests
/// record no route, so no release reaches the floor for them.
void test_ledger_identity() {
  constexpr int kAgents = 48;
  constexpr int kHosts = 2;
  constexpr int kOpsPerAgent = 40;

  transport::UdpLoop loop;
  transport::LoopClock clock(loop);
  obs::MetricsRegistry metrics;
  obs::WireInstruments wire(metrics);
  obs::FloorInstruments floor(metrics);
  obs::MetricsRegistry client_metrics;
  obs::WireInstruments client_wire(client_metrics);

  floorctl::GroupRegistry registry;
  std::vector<floorctl::MemberId> members;
  floorctl::GroupId groups[2];
  {
    floorctl::GroupRegistry::Batch batch(registry);
    const floorctl::MemberId chair =
        registry.add_member("chair", 1'000'000, floorctl::HostId{1});
    for (int i = 0; i < kAgents; ++i) {
      members.push_back(registry.add_member(
          "m" + std::to_string(i), 1 + i % 3,
          floorctl::HostId{static_cast<std::uint32_t>(1 + i % kHosts)}));
    }
    groups[0] = registry.create_group("three", floorctl::FcmMode::kFreeAccess, chair,
                                      floorctl::PolicyKind::kThreeRegime);
    groups[1] = registry.create_group("queue", floorctl::FcmMode::kFreeAccess, chair,
                                      floorctl::PolicyKind::kQueueing);
  }
  floorctl::ShardedFloorService service(registry, clock, resource::Thresholds{0.25, 0.05});
  service.set_observability(&floor, nullptr);
  for (int h = 1; h <= kHosts; ++h) {
    service.add_host(floorctl::HostId{static_cast<std::uint32_t>(h)},
                     resource::Resource{1.0, 1.0, 1.0});
  }
  transport::UdpEndpoint server_socket(loop, fproto::wire_schema(), 0, &wire);
  fproto::ServerConfig server_config;
  server_config.notify_retry = util::Duration::millis(100);
  server_config.obs = &wire;
  fproto::FloorServer server(server_socket, registry, service, server_config);

  transport::UdpEndpoint client_socket(loop, fproto::wire_schema(), 0, &client_wire);
  const net::NodeId server_node =
      client_socket.add_peer("127.0.0.1", server_socket.local_port());
  perf::SocketRouter router(client_socket);

  struct Agent {
    std::unique_ptr<perf::AgentPort> port;
    std::unique_ptr<fproto::FloorAgent> agent;
    int ops_left = kOpsPerAgent;
    bool busy = false;
  };
  util::Rng rng(20011);
  std::vector<std::unique_ptr<Agent>> agents;
  int failed = 0;
  const auto next = [&](Agent& a) {
    a.busy = false;
    if (a.ops_left-- <= 0) return;
    a.busy = true;
    if (rng.chance(0.125)) {
      a.agent->leave();
      return;
    }
    const double q = rng.uniform(0.15, 0.45);
    a.agent->request_floor(media::QosRequirement{q, q, q});
  };
  fproto::AgentConfig config;
  config.retry = util::Duration::millis(40);
  config.obs = &client_wire;
  for (int i = 0; i < kAgents; ++i) {
    auto holder = std::make_unique<Agent>();
    Agent& a = *holder;
    a.port = std::make_unique<perf::AgentPort>(client_socket);
    router.attach(members[static_cast<std::size_t>(i)].value(), a.port.get());
    fproto::AgentEvents events;
    events.on_joined = [&] { next(a); };
    events.on_left = [&] { a.agent->join(); };
    events.on_granted = [&](std::uint64_t, bool) {
      const auto hold = util::Duration::micros(static_cast<std::int64_t>(rng.index(3000)));
      a.port->schedule_in(hold, [&] { a.agent->release_floor(); });
    };
    events.on_denied = [&](std::uint64_t, floorctl::Outcome) { next(a); };
    events.on_released = [&](std::uint64_t) { next(a); };
    events.on_failed = [&](fproto::AgentState) { ++failed; };
    a.agent = std::make_unique<fproto::FloorAgent>(
        *a.port, server_node, members[static_cast<std::size_t>(i)],
        groups[i % 2], floorctl::HostId{static_cast<std::uint32_t>(1 + i % kHosts)},
        config, events);
    agents.push_back(std::move(holder));
  }
  for (const auto& a : agents) a->agent->join();
  const auto deadline = loop.now() + util::Duration::seconds(20);
  const auto settled = [&] {
    for (const auto& a : agents) {
      if (a->busy || a->ops_left > 0 || !a->agent->terminated()) return false;
    }
    return true;
  };
  while (!settled() && loop.now() < deadline) loop.poll(util::Duration::millis(1));

  CHECK(settled());
  CHECK_EQ(failed, 0);
  CHECK_EQ(router.unrouted(), 0u);
  CHECK(router.routed() > 0);
  const auto value = [&](const char* name) { return metrics.value(name); };
  // Every outcome path ran, or the identity would be tested trivially.
  CHECK(value("floor.granted") > 0);
  CHECK(value("floor.granted_degraded") > 0);
  CHECK(value("floor.promotions") > 0);
  CHECK(value("floor.queued") > 0);
  CHECK(value("floor.suspends") > 0);
  CHECK(value("floor.denied") + value("floor.aborted") > 0);
  CHECK_EQ(value("floor.releases"), value("floor.granted") +
                                        value("floor.granted_degraded") +
                                        value("floor.promotions"));
  CHECK_EQ(value("floor.requests"), value("wire.server.arbitrations"));
  CHECK_EQ(service.active_grants(), 0u);
  CHECK_EQ(service.suspended_grants(), 0u);
  CHECK_EQ(service.queued_requests(), 0u);
  for (int i = 0; i < kAgents; ++i) router.detach(members[static_cast<std::size_t>(i)].value());
}

}  // namespace

int main() {
  test_nearest_rank();
  test_ten_beyond();
  test_exact_mean();
  test_reply_member();
  test_ledger_identity();
  std::printf("perf_tests: %d checks, %d failed\n", checks, failures);
  return failures == 0 ? 0 : 1;
}
