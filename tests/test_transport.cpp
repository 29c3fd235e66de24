// The transport layer: wire frame, timer wheel, the SimTransport seam, and
// (on Linux) the UDP/epoll backend end to end over real loopback sockets.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "clock/drift_clock.hpp"
#include "floor/sharded_service.hpp"
#include "fproto/agent.hpp"
#include "fproto/codec.hpp"
#include "fproto/server.hpp"
#include "net/sim_network.hpp"
#include "obs/registry.hpp"
#include "sim/simulator.hpp"
#include "transport/frame.hpp"
#include "transport/sim_transport.hpp"
#include "transport/timer_wheel.hpp"

#ifdef __linux__
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "transport/udp.hpp"
#endif

namespace {

using namespace dmps;
using fproto::MsgKind;
using transport::Frame;
using transport::FrameError;
using util::Duration;
using util::TimePoint;

// ------------------------------------------------------------------- frame

/// A representative payload for every fproto kind, in MsgKind order.
std::vector<net::Payload> sample_payloads() {
  using namespace dmps::floorctl;
  const MemberId m{7};
  const GroupId g{3};
  fproto::RequestMsg req;
  req.request_id = (7ull << 32) | 1;
  req.member = m;
  req.group = g;
  req.host = HostId{2};
  req.qos = media::QosRequirement{0.25, 0.125, 1.0 / 3.0};
  return {
      fproto::encode(fproto::JoinMsg{m, g}),
      fproto::encode(fproto::JoinAckMsg{m, g, true}),
      fproto::encode(fproto::LeaveMsg{m, g}),
      fproto::encode(fproto::LeaveAckMsg{m, g, true}),
      fproto::encode(req),
      fproto::encode(fproto::GrantMsg{99, true, 0.375}),
      fproto::encode(fproto::DenyMsg{99, Outcome::kAborted}),
      fproto::encode(fproto::QueuedMsg{99}),
      fproto::encode(fproto::ReleaseMsg{99, m, g}),
      fproto::encode(fproto::ReleaseAckMsg{99}),
      fproto::encode(fproto::SuspendMsg{5, 99}),
      fproto::encode(fproto::SuspendAckMsg{5}),
      fproto::encode(fproto::ResumeMsg{6, 99}),
      fproto::encode(fproto::ResumeAckMsg{6}),
  };
}

TEST(Frame, RoundTripsEveryFprotoKind) {
  const auto payloads = sample_payloads();
  ASSERT_EQ(payloads.size(), fproto::kMsgKindCount);

  for (std::size_t kind = 0; kind < payloads.size(); ++kind) {
    std::uint8_t buf[transport::kFrameMaxBytes];
    const std::size_t size = transport::encode_frame(
        static_cast<std::uint8_t>(kind), payloads[kind], buf, sizeof(buf));
    ASSERT_EQ(size, transport::kFrameHeaderBytes + 8 * payloads[kind].size())
        << "kind " << kind;

    Frame frame;
    ASSERT_EQ(transport::decode_frame(buf, size, frame), FrameError::kOk)
        << "kind " << kind;
    EXPECT_EQ(frame.kind, kind);
    ASSERT_EQ(frame.ints.size(), payloads[kind].size());
    for (std::size_t lane = 0; lane < payloads[kind].size(); ++lane) {
      EXPECT_EQ(frame.ints[lane], payloads[kind][lane]) << "kind " << kind;
    }
  }
}

TEST(Frame, ClassifiesEveryRejection) {
  std::uint8_t buf[transport::kFrameMaxBytes];
  const net::Payload lanes = {1, -2, 3};
  const std::size_t size = transport::encode_frame(4, lanes, buf, sizeof(buf));
  ASSERT_GT(size, 0u);
  Frame frame;

  // Shorter than the header: kShort whatever the bytes say.
  for (std::size_t len = 0; len < transport::kFrameHeaderBytes; ++len) {
    EXPECT_EQ(transport::decode_frame(buf, len, frame), FrameError::kShort)
        << "len " << len;
  }

  {
    std::uint8_t bad[sizeof(buf)];
    std::memcpy(bad, buf, size);
    bad[0] ^= 0xFF;
    EXPECT_EQ(transport::decode_frame(bad, size, frame),
              FrameError::kBadMagic);
  }
  {
    std::uint8_t bad[sizeof(buf)];
    std::memcpy(bad, buf, size);
    bad[4] = transport::kFrameVersion + 1;
    EXPECT_EQ(transport::decode_frame(bad, size, frame),
              FrameError::kBadVersion);
  }
  {
    // Declared lane count over the bound.
    std::uint8_t bad[sizeof(buf)];
    std::memcpy(bad, buf, size);
    bad[6] = static_cast<std::uint8_t>(transport::kFrameMaxLanes + 1);
    bad[7] = 0;
    EXPECT_EQ(transport::decode_frame(bad, size, frame),
              FrameError::kBadLaneCount);
  }
  // Body truncated relative to the declared count — and padded past it.
  EXPECT_EQ(transport::decode_frame(buf, size - 1, frame),
            FrameError::kBadLaneCount);
  EXPECT_EQ(transport::decode_frame(buf, size + 1, frame),
            FrameError::kBadLaneCount);
}

TEST(Frame, EncodeRefusesOversizedPayloads) {
  net::Payload too_many;
  for (std::size_t i = 0; i <= transport::kFrameMaxLanes; ++i) {
    too_many.push_back(static_cast<std::int64_t>(i));
  }
  std::uint8_t buf[transport::kFrameMaxBytes * 2];
  EXPECT_EQ(transport::encode_frame(0, too_many, buf, sizeof(buf)), 0u);
  // A buffer one byte too small is refused, not overrun.
  const net::Payload lanes = {1, 2};
  const std::size_t need = transport::kFrameHeaderBytes + 16;
  EXPECT_EQ(transport::encode_frame(0, lanes, buf, need - 1), 0u);
  EXPECT_EQ(transport::encode_frame(0, lanes, buf, need), need);
}

// ----------------------------------------------------------- codec hardening

TEST(FprotoCodec, StableWireIdsCoverEveryKind) {
  const transport::WireSchema schema = fproto::wire_schema();
  ASSERT_EQ(schema.types.size(), fproto::kMsgKindCount);
  for (std::size_t i = 0; i < fproto::kMsgKindCount; ++i) {
    const auto kind = fproto::kind_from_wire(static_cast<std::uint8_t>(i));
    ASSERT_TRUE(kind);
    EXPECT_EQ(static_cast<std::size_t>(*kind), i);
    // The schema row is that kind's interned type, and kind_of inverts it.
    EXPECT_EQ(schema.types[i], fproto::wire_type(*kind));
    const auto back = fproto::kind_of(schema.types[i]);
    ASSERT_TRUE(back);
    EXPECT_EQ(*back, *kind);
  }
  EXPECT_FALSE(fproto::kind_from_wire(fproto::kMsgKindCount));
  EXPECT_FALSE(fproto::kind_from_wire(0xFF));
  EXPECT_FALSE(fproto::kind_of(net::msg_type("not.fproto")));
}

TEST(FprotoCodec, RejectsSurplusLanes) {
  // Exact layouts: a long payload is as malformed as a short one.
  auto grant = fproto::encode(fproto::GrantMsg{1, false, 0.5});
  grant.push_back(0);
  EXPECT_FALSE(fproto::decode_grant(
      {{}, {}, wire_type(MsgKind::kGrant), grant}));
  auto join = fproto::encode(fproto::JoinMsg{floorctl::MemberId{1},
                                             floorctl::GroupId{0}});
  join.push_back(7);
  EXPECT_FALSE(fproto::decode_join({{}, {}, wire_type(MsgKind::kJoin), join}));
}

TEST(FprotoCodec, RejectsNonFiniteDoubles) {
  const std::int64_t nan_bits = 0x7FF8'0000'0000'0001;  // a quiet NaN
  const std::int64_t inf_bits = 0x7FF0'0000'0000'0000;  // +infinity

  fproto::RequestMsg req;
  req.request_id = 1;
  req.member = floorctl::MemberId{1};
  req.group = floorctl::GroupId{0};
  req.host = floorctl::HostId{1};
  req.qos = media::QosRequirement{0.5, 0.5, 0.5};
  auto lanes = fproto::encode(req);
  ASSERT_TRUE(fproto::decode_request(
      {{}, {}, wire_type(MsgKind::kRequest), lanes}));
  for (std::size_t qos_lane = 5; qos_lane <= 7; ++qos_lane) {
    auto bad = lanes;
    bad[qos_lane] = nan_bits;
    EXPECT_FALSE(fproto::decode_request(
        {{}, {}, wire_type(MsgKind::kRequest), bad}))
        << "lane " << qos_lane;
  }

  auto grant = fproto::encode(fproto::GrantMsg{1, false, 0.5});
  grant[2] = inf_bits;
  EXPECT_FALSE(fproto::decode_grant(
      {{}, {}, wire_type(MsgKind::kGrant), grant}));
}

// ------------------------------------------------------------- timer wheel

TEST(TimerWheel, FiresInDeadlineOrder) {
  transport::TimerWheel wheel(Duration::millis(1), 16);
  std::vector<int> fired;
  const TimePoint t0 = TimePoint::zero();
  wheel.schedule_at(t0 + Duration::millis(30), [&] { fired.push_back(3); });
  wheel.schedule_at(t0 + Duration::millis(10), [&] { fired.push_back(1); });
  wheel.schedule_at(t0 + Duration::millis(20), [&] { fired.push_back(2); });
  EXPECT_EQ(wheel.pending(), 3u);

  wheel.advance(t0 + Duration::millis(5));
  EXPECT_TRUE(fired.empty());  // nothing due yet
  wheel.advance(t0 + Duration::millis(15));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 1);
  // A single advance spanning several deadlines fires them all, in order —
  // including deadlines more than one wheel revolution out.
  wheel.advance(t0 + Duration::millis(40));
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[1], 2);
  EXPECT_EQ(fired[2], 3);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, CancelledTimersNeverFire) {
  transport::TimerWheel wheel(Duration::millis(1), 16);
  int fired = 0;
  const TimePoint t0 = TimePoint::zero();
  const auto id = wheel.schedule_at(t0 + Duration::millis(5), [&] { ++fired; });
  wheel.schedule_at(t0 + Duration::millis(5), [&] { ++fired; });
  EXPECT_TRUE(wheel.cancel(id));
  EXPECT_FALSE(wheel.cancel(id));      // already dead
  EXPECT_FALSE(wheel.cancel(991199));  // never existed
  wheel.advance(t0 + Duration::millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, CallbacksMayRescheduleAndPastDeadlinesFire) {
  transport::TimerWheel wheel(Duration::millis(1), 16);
  int chain = 0;
  const TimePoint t0 = TimePoint::zero();
  // A callback that re-arms itself (the retransmission pattern).
  std::function<void()> rearm = [&] {
    if (++chain < 3) wheel.schedule_at(t0 + Duration::millis(chain), rearm);
  };
  wheel.schedule_at(t0, rearm);  // already due
  wheel.advance(t0 + Duration::millis(10));
  EXPECT_EQ(chain, 3);

  // A deadline behind the cursor is clamped, not lost.
  int late = 0;
  wheel.schedule_at(t0 + Duration::millis(1), [&] { ++late; });
  wheel.advance(t0 + Duration::millis(12));
  EXPECT_EQ(late, 1);
}

TEST(TimerWheel, CancelledTimersAreDroppedOnceNothingIsArmed) {
  // The retransmit-timer pattern on an otherwise idle wheel: arm 100 ms
  // out, cancel before it fires, let time pass. With nothing armed the
  // cursor jumps over the slots holding the cancelled entries, so the
  // wheel must drop them itself. Every stored entry keeps its callback,
  // and the shared token it captured, alive: the token's use count, less
  // its own reference, is the number of entries still stored.
  transport::TimerWheel wheel;
  const auto token = std::make_shared<int>(0);
  TimePoint now = TimePoint::zero();
  for (int i = 0; i < 200'000; ++i) {
    const auto id =
        wheel.schedule_at(now + Duration::millis(100), [token] { (void)token; });
    wheel.advance(now);
    ASSERT_TRUE(wheel.cancel(id));
    now = now + Duration::millis(1);
    wheel.advance(now);
    ASSERT_LE(token.use_count(), 2) << "after cycle " << i;
  }
  EXPECT_EQ(wheel.pending(), 0u);
  EXPECT_EQ(token.use_count(), 1);
}

// ------------------------------------------------------- SimTransport seam

TEST(SimTransport, ForwardsTheEndpointContract) {
  sim::Simulator sim;
  net::SimNetwork network(sim, 7, net::LinkQuality{Duration::millis(1)});
  const net::NodeId a = network.add_node("a");
  const net::NodeId b = network.add_node("b");
  net::Demux demux_a(network, a);
  net::Demux demux_b(network, b);
  transport::SimTransport ta(demux_a);
  transport::SimTransport tb(demux_b);
  const net::MsgType type = net::msg_type("seam.ping");

  // on() takes ownership of the type; a second owner is refused — exactly
  // Demux's single-owner rule surfaced through the seam.
  int got = 0;
  net::NodeId got_from = net::NodeId::invalid();
  ASSERT_TRUE(tb.on(type, [&](const net::Message& msg) {
    ++got;
    got_from = msg.from;
  }));
  EXPECT_FALSE(tb.on(type, [](const net::Message&) {}));

  ta.send(b, type, {1, 2, 3});
  sim.run_until(sim.now() + Duration::millis(10));
  EXPECT_EQ(got, 1);
  EXPECT_EQ(got_from, a);  // from is a valid reply target

  // off() releases the type for a new owner.
  tb.off(type);
  ASSERT_TRUE(tb.on(type, [&](const net::Message&) { ++got; }));

  // now() is the simulation clock; timers run on it and cancel by id.
  EXPECT_EQ(ta.now(), sim.now());
  int ticks = 0;
  const auto keep = ta.schedule_in(Duration::millis(5), [&] { ++ticks; });
  const auto drop = ta.schedule_in(Duration::millis(5), [&] { ++ticks; });
  EXPECT_NE(keep, 0u);
  EXPECT_TRUE(ta.cancel(drop));
  EXPECT_FALSE(ta.cancel(drop));
  sim.run_until(sim.now() + Duration::millis(10));
  EXPECT_EQ(ticks, 1);
}

// ------------------------------------------------------- UDP/epoll backend

#ifdef __linux__

/// A complete floor-control conversation in one process: server endpoint
/// and agent endpoints on one UdpLoop, talking through the kernel's
/// loopback UDP stack.
struct UdpWorld {
  transport::UdpLoop loop;
  obs::MetricsRegistry metrics;
  obs::WireInstruments wire{metrics};
  transport::LoopClock clock{loop};
  transport::UdpEndpoint server_ep{loop, fproto::wire_schema(), 0, &wire};
  floorctl::GroupRegistry registry;
  floorctl::FloorService service{registry, clock,
                                 resource::Thresholds{0.25, 0.05}};
  floorctl::MemberId chair;
  floorctl::GroupId group;
  std::unique_ptr<fproto::FloorServer> server;

  struct Station {
    std::unique_ptr<transport::UdpEndpoint> endpoint;
    std::unique_ptr<fproto::FloorAgent> agent;
    int joined = 0, granted = 0, released = 0, failed = 0;
  };
  std::vector<std::unique_ptr<Station>> stations;

  UdpWorld() {
    const floorctl::HostId host{1};
    service.add_host(host, resource::Resource{1.0, 1.0, 1.0});
    chair = registry.add_member("chair", 100, host);
    group = registry.create_group("g", floorctl::FcmMode::kFreeAccess, chair);
    fproto::ServerConfig config;
    config.notify_retry = Duration::millis(50);
    config.obs = &wire;
    server = std::make_unique<fproto::FloorServer>(server_ep, registry,
                                                   service, config);
  }

  Station& add_station(const std::string& name, int priority,
                       Duration retry = Duration::millis(30)) {
    auto station = std::make_unique<Station>();
    Station& s = *station;
    stations.push_back(std::move(station));
    s.endpoint = std::make_unique<transport::UdpEndpoint>(
        loop, fproto::wire_schema(), 0, &wire);
    const net::NodeId server_node =
        s.endpoint->add_peer("127.0.0.1", server_ep.local_port());
    const floorctl::MemberId member =
        registry.add_member(name, priority, floorctl::HostId{1});
    fproto::AgentConfig config;
    config.retry = retry;
    config.max_tries = 100;
    config.obs = &wire;
    fproto::AgentEvents events;
    events.on_joined = [&s] { ++s.joined; };
    events.on_granted = [&s](std::uint64_t, bool) { ++s.granted; };
    events.on_released = [&s](std::uint64_t) { ++s.released; };
    events.on_failed = [&s](fproto::AgentState) { ++s.failed; };
    s.agent = std::make_unique<fproto::FloorAgent>(
        *s.endpoint, server_node, member, group, floorctl::HostId{1}, config,
        events);
    return s;
  }

  /// Drive the loop until `done` or a real-time budget expires. Returns
  /// whether `done` came true.
  bool run_until(const std::function<bool()>& done,
                 Duration budget = Duration::seconds(5)) {
    const TimePoint deadline = loop.now() + budget;
    loop.run_while(
        [&] { return loop.now() < deadline && !done(); });
    return done();
  }
};

TEST(UdpTransport, FullConversationOverLoopback) {
  UdpWorld w;
  auto& s = w.add_station("a", 1);

  ASSERT_TRUE(s.agent->join());
  ASSERT_TRUE(w.run_until([&] { return s.joined == 1; }));
  EXPECT_EQ(s.agent->state(), fproto::AgentState::kJoined);

  const auto id = s.agent->request_floor(media::QosRequirement{0.4, 0.4, 0.4});
  EXPECT_NE(id, 0u);
  ASSERT_TRUE(w.run_until([&] { return s.granted == 1; }));
  EXPECT_EQ(s.agent->state(), fproto::AgentState::kGranted);
  EXPECT_EQ(w.service.active_grants(), 1u);

  ASSERT_TRUE(s.agent->release_floor());
  ASSERT_TRUE(w.run_until([&] { return s.released == 1; }));
  EXPECT_EQ(s.agent->state(), fproto::AgentState::kJoined);
  EXPECT_EQ(w.service.active_grants(), 0u);
  EXPECT_EQ(s.failed, 0);

  // Real datagrams moved in both directions.
  EXPECT_GE(w.metrics.value("wire.udp.tx_datagrams"), 6.0);
  EXPECT_GE(w.metrics.value("wire.udp.rx_datagrams"), 6.0);
  EXPECT_EQ(w.metrics.value("wire.udp.send_failures"), 0.0);
}

TEST(UdpTransport, DroppedRequestIsRetransmittedAndConverges) {
  UdpWorld w;
  auto& s = w.add_station("a", 1, Duration::millis(20));

  ASSERT_TRUE(s.agent->join());
  ASSERT_TRUE(w.run_until([&] { return s.joined == 1; }));

  // The wire eats the first copy of the FloorRequest; every later copy
  // passes. The retransmission machinery must deliver the grant anyway.
  const net::MsgType request_type = fproto::wire_type(MsgKind::kRequest);
  int request_sends = 0;
  s.endpoint->set_send_filter(
      [&](net::NodeId, net::MsgType type) {
        if (type != request_type) return true;
        return ++request_sends > 1;
      });

  s.agent->request_floor(media::QosRequirement{0.4, 0.4, 0.4});
  ASSERT_TRUE(w.run_until([&] { return s.granted == 1; }));
  EXPECT_EQ(s.agent->state(), fproto::AgentState::kGranted);
  EXPECT_GE(request_sends, 2);
  EXPECT_GE(s.agent->retransmits(), 1u);
  EXPECT_EQ(w.server->requests_arbitrated(), 1u);
}

TEST(UdpTransport, HostileDatagramsAreCountedAndDropped) {
  UdpWorld w;
  // A raw socket playing the hostile peer: none of these bytes may crash
  // the loop, and each waits in its own drop-counter bucket.
  const int fd = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons(w.server_ep.local_port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &to.sin_addr), 1);
  const auto blast = [&](const std::uint8_t* data, std::size_t len) {
    ASSERT_EQ(sendto(fd, data, len, 0, reinterpret_cast<sockaddr*>(&to),
                     sizeof(to)),
              static_cast<ssize_t>(len));
  };

  const std::uint8_t runt[3] = {0x44, 0x4D, 0x50};  // shorter than a header
  blast(runt, sizeof(runt));
  std::uint8_t garbage[24];
  std::memset(garbage, 0xAB, sizeof(garbage));  // wrong magic
  blast(garbage, sizeof(garbage));

  std::uint8_t frame[transport::kFrameMaxBytes];
  const std::size_t ok_size =
      transport::encode_frame(0, fproto::encode(fproto::QueuedMsg{1}), frame,
                              sizeof(frame));
  ASSERT_GT(ok_size, 0u);
  frame[4] = transport::kFrameVersion + 9;  // foreign version
  blast(frame, ok_size);
  frame[4] = transport::kFrameVersion;
  frame[5] = 0xEE;  // unknown kind
  blast(frame, ok_size);
  // Valid frame for a server-side type nobody handles (kQueued is
  // client-side): structurally fine, dropped as unhandled.
  frame[5] = static_cast<std::uint8_t>(MsgKind::kQueued);
  blast(frame, ok_size);

  w.run_until([&] {
    return w.metrics.value("wire.udp.rx_datagrams") >= 5.0;
  });
  close(fd);

  EXPECT_EQ(w.metrics.value("wire.udp.drop_malformed"), 2.0);
  EXPECT_EQ(w.metrics.value("wire.udp.drop_version"), 1.0);
  EXPECT_EQ(w.metrics.value("wire.udp.drop_unknown_kind"), 1.0);
  EXPECT_EQ(w.metrics.value("wire.udp.drop_unhandled"), 1.0);
  // And the loop still serves legitimate traffic afterwards.
  auto& s = w.add_station("a", 1);
  ASSERT_TRUE(s.agent->join());
  EXPECT_TRUE(w.run_until([&] { return s.joined == 1; }));
}

TEST(UdpTransport, RxBatchDrainsMixedDatagramsInOneAdvance) {
  UdpWorld w;
  // Queue a burst — valid joins among hostile datagrams — while the loop is
  // *not* polling, then drain. recvmmsg must take the whole queue in one
  // syscall without losing a single per-class drop counter to batching.
  const int fd = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons(w.server_ep.local_port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &to.sin_addr), 1);
  const auto blast = [&](const std::uint8_t* data, std::size_t len) {
    ASSERT_EQ(sendto(fd, data, len, 0, reinterpret_cast<sockaddr*>(&to),
                     sizeof(to)),
              static_cast<ssize_t>(len));
  };

  // Four valid Join frames (the server handles kJoin) …
  const floorctl::MemberId member =
      w.registry.add_member("burst", 1, floorctl::HostId{1});
  std::uint8_t join_frame[transport::kFrameMaxBytes];
  const std::size_t join_size = transport::encode_frame(
      static_cast<std::uint8_t>(MsgKind::kJoin),
      fproto::encode(fproto::JoinMsg{member, w.group}), join_frame,
      sizeof(join_frame));
  ASSERT_GT(join_size, 0u);
  for (int i = 0; i < 4; ++i) blast(join_frame, join_size);

  // … interleaved with one of each hostile class.
  const std::uint8_t runt[3] = {0x44, 0x4D, 0x50};
  blast(runt, sizeof(runt));  // malformed (short)
  std::uint8_t garbage[24];
  std::memset(garbage, 0xAB, sizeof(garbage));
  blast(garbage, sizeof(garbage));  // malformed (magic)
  std::uint8_t frame[transport::kFrameMaxBytes];
  const std::size_t ok_size =
      transport::encode_frame(0, fproto::encode(fproto::QueuedMsg{1}), frame,
                              sizeof(frame));
  ASSERT_GT(ok_size, 0u);
  frame[4] = transport::kFrameVersion + 9;
  blast(frame, ok_size);  // foreign version
  frame[4] = transport::kFrameVersion;
  frame[5] = 0xEE;
  blast(frame, ok_size);  // unknown kind
  frame[5] = static_cast<std::uint8_t>(MsgKind::kQueued);
  blast(frame, ok_size);  // valid but server-unhandled

  // All nine datagrams are queued on the server socket before this poll, so
  // one recvmmsg drains them — one histogram sample covering the burst.
  w.loop.poll(Duration::millis(50));
  close(fd);

  EXPECT_EQ(w.metrics.value("wire.udp.rx_datagrams"), 9);
  EXPECT_EQ(w.metrics.value("wire.udp.drop_malformed"), 2);
  EXPECT_EQ(w.metrics.value("wire.udp.drop_version"), 1);
  EXPECT_EQ(w.metrics.value("wire.udp.drop_unknown_kind"), 1);
  EXPECT_EQ(w.metrics.value("wire.udp.drop_unhandled"), 1);
  EXPECT_EQ(w.wire.udp_rx_batch.count(), 1u);
  EXPECT_EQ(w.wire.udp_rx_batch.sum(), 9);
}

TEST(UdpTransport, TxCoalescingPreservesPerPeerOrdering) {
  transport::UdpLoop loop;
  obs::MetricsRegistry metrics;
  obs::WireInstruments wire{metrics};
  transport::UdpEndpoint sender{loop, fproto::wire_schema(), 0, &wire};
  transport::UdpEndpoint receiver_b{loop, fproto::wire_schema(), 0, &wire};
  transport::UdpEndpoint receiver_c{loop, fproto::wire_schema(), 0, &wire};
  const net::NodeId to_b = sender.add_peer("127.0.0.1", receiver_b.local_port());
  const net::NodeId to_c = sender.add_peer("127.0.0.1", receiver_c.local_port());

  const net::MsgType type = fproto::wire_type(MsgKind::kQueued);
  std::vector<std::int64_t> got_b, got_c;
  ASSERT_TRUE(receiver_b.on(
      type, [&](const net::Message& msg) { got_b.push_back(msg.ints[0]); }));
  ASSERT_TRUE(receiver_c.on(
      type, [&](const net::Message& msg) { got_c.push_back(msg.ints[0]); }));

  // Twenty sends to two interleaved peers, all coalesced in the sender's
  // flush buffer (nothing has polled yet). The flush must replay each
  // peer's subsequence exactly in send order.
  for (std::int64_t i = 0; i < 20; ++i) {
    sender.send(i % 2 == 0 ? to_b : to_c, type, {i});
  }
  const TimePoint deadline = loop.now() + Duration::seconds(5);
  loop.run_while([&] {
    return loop.now() < deadline && (got_b.size() < 10 || got_c.size() < 10);
  });

  ASSERT_EQ(got_b.size(), 10u);
  ASSERT_EQ(got_c.size(), 10u);
  for (std::int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(got_b[static_cast<std::size_t>(i)], 2 * i);
    EXPECT_EQ(got_c[static_cast<std::size_t>(i)], 2 * i + 1);
  }
  // The whole burst left in one sendmmsg: one tx batch sample of 20.
  EXPECT_EQ(wire.udp_tx_batch.count(), 1u);
  EXPECT_EQ(wire.udp_tx_batch.sum(), 20);
  EXPECT_EQ(metrics.value("wire.udp.send_failures"), 0);
}

TEST(UdpTransport, ShardedServersShareOneFloorControl) {
  // The daemon's sharded shape, in-process: two shard endpoints on one
  // loop, each with its own FloorServer, both fronting one
  // ShardedFloorService through the FloorControl seam. Agents route by host
  // exactly as the wire_common convention does, and nobody gets stuck.
  transport::UdpLoop loop;
  obs::MetricsRegistry metrics;
  obs::WireInstruments wire{metrics};
  transport::LoopClock clock{loop};
  transport::UdpEndpoint shard0{loop, fproto::wire_schema(), 0, &wire};
  transport::UdpEndpoint shard1{loop, fproto::wire_schema(), 0, &wire};

  floorctl::GroupRegistry registry;
  const floorctl::MemberId chair =
      registry.add_member("chair", 100, floorctl::HostId{1});
  const floorctl::GroupId group =
      registry.create_group("g", floorctl::FcmMode::kFreeAccess, chair);
  const floorctl::MemberId m1 =
      registry.add_member("m1", 1, floorctl::HostId{1});
  const floorctl::MemberId m2 =
      registry.add_member("m2", 2, floorctl::HostId{2});

  floorctl::ShardedFloorService service{registry, clock,
                                        resource::Thresholds{0.25, 0.05}};
  service.add_host(floorctl::HostId{1}, resource::Resource{1.0, 1.0, 1.0});
  service.add_host(floorctl::HostId{2}, resource::Resource{1.0, 1.0, 1.0});
  ASSERT_EQ(service.shard_count(), 2u);

  fproto::ServerConfig server_config;
  server_config.notify_retry = Duration::millis(50);
  server_config.obs = &wire;
  fproto::FloorServer server0{shard0, registry, service, server_config};
  fproto::FloorServer server1{shard1, registry, service, server_config};

  struct Station {
    std::unique_ptr<transport::UdpEndpoint> endpoint;
    std::unique_ptr<fproto::FloorAgent> agent;
    int joined = 0, granted = 0, released = 0, failed = 0;
  };
  const auto make_station = [&](floorctl::MemberId member,
                                floorctl::HostId host,
                                transport::UdpEndpoint& shard_ep) {
    auto s = std::make_unique<Station>();
    s->endpoint = std::make_unique<transport::UdpEndpoint>(
        loop, fproto::wire_schema(), 0, &wire);
    const net::NodeId server_node =
        s->endpoint->add_peer("127.0.0.1", shard_ep.local_port());
    fproto::AgentConfig config;
    config.retry = Duration::millis(30);
    config.max_tries = 100;
    config.obs = &wire;
    fproto::AgentEvents events;
    Station& ref = *s;
    events.on_joined = [&ref] { ++ref.joined; };
    events.on_granted = [&ref](std::uint64_t, bool) { ++ref.granted; };
    events.on_released = [&ref](std::uint64_t) { ++ref.released; };
    events.on_failed = [&ref](fproto::AgentState) { ++ref.failed; };
    s->agent = std::make_unique<fproto::FloorAgent>(
        *s->endpoint, server_node, member, group, host, config, events);
    return s;
  };
  // Host 1 -> shard 0, host 2 -> shard 1 ((host-1) % shards).
  const auto s1 = make_station(m1, floorctl::HostId{1}, shard0);
  const auto s2 = make_station(m2, floorctl::HostId{2}, shard1);

  const auto run_until = [&](const std::function<bool()>& done) {
    const TimePoint deadline = loop.now() + Duration::seconds(5);
    loop.run_while([&] { return loop.now() < deadline && !done(); });
    return done();
  };

  ASSERT_TRUE(s1->agent->join());
  ASSERT_TRUE(s2->agent->join());
  ASSERT_TRUE(run_until([&] { return s1->joined == 1 && s2->joined == 1; }));

  // Different hosts, so both requests land on their own shard's capacity
  // and both must be granted.
  s1->agent->request_floor(media::QosRequirement{0.4, 0.4, 0.4});
  s2->agent->request_floor(media::QosRequirement{0.4, 0.4, 0.4});
  ASSERT_TRUE(run_until([&] { return s1->granted == 1 && s2->granted == 1; }));
  EXPECT_EQ(service.active_grants(), 2u);

  ASSERT_TRUE(s1->agent->release_floor());
  ASSERT_TRUE(s2->agent->release_floor());
  ASSERT_TRUE(
      run_until([&] { return s1->released == 1 && s2->released == 1; }));
  EXPECT_EQ(service.active_grants(), 0u);
  EXPECT_EQ(s1->failed + s2->failed, 0);
  EXPECT_EQ(metrics.value("wire.server.arbitrations"), 2);
}

#endif  // __linux__

}  // namespace
