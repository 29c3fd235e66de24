// The transport layer: wire frame, timer wheel, and (on Linux) the UDP/epoll
// backend end to end over real loopback sockets.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <initializer_list>
#include <memory>
#include <vector>

#include "clock/drift_clock.hpp"
#include "floor/sharded_service.hpp"
#include "fproto/agent.hpp"
#include "fproto/codec.hpp"
#include "fproto/server.hpp"
#include "net/endpoint.hpp"
#include "obs/registry.hpp"
#include "transport/frame.hpp"
#include "transport/timer_wheel.hpp"
#include "util/rng.hpp"

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
    EXPECT_EQ(frame.size, size);
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
  // A body shorter than the declared count is truncated. A longer buffer
  // is the next frame's business: the head frame parses and reports its
  // own size.
  EXPECT_EQ(transport::decode_frame(buf, size - 1, frame),
            FrameError::kBadLaneCount);
  ASSERT_EQ(transport::decode_frame(buf, size + 1, frame), FrameError::kOk);
  EXPECT_EQ(frame.size, size);

  // The datagram walker needs the frames to tile the datagram exactly: a
  // truncated body, one trailing byte, an empty or an oversized datagram
  // each fail it.
  EXPECT_EQ(transport::check_datagram(buf, size), FrameError::kOk);
  EXPECT_EQ(transport::check_datagram(buf, size - 1),
            FrameError::kBadLaneCount);
  EXPECT_EQ(transport::check_datagram(buf, size + 1), FrameError::kShort);
  EXPECT_EQ(transport::check_datagram(buf, 0), FrameError::kShort);
  std::vector<std::uint8_t> big;  // valid frames, past the datagram limit
  while (big.size() <= transport::kDatagramMaxBytes) {
    big.insert(big.end(), buf, buf + size);
  }
  EXPECT_EQ(transport::check_datagram(big.data(), big.size()),
            FrameError::kTooLong);
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
  transport::TimerWheel wheel;
  std::vector<int> fired;
  const TimePoint t0 = TimePoint::zero();
  // 600 ms is more than one 512-tick revolution out: it shares slot 88
  // with tick 88 and must wait there for its round.
  wheel.schedule_at(t0 + Duration::millis(600), [&] { fired.push_back(3); });
  wheel.schedule_at(t0 + Duration::millis(10), [&] { fired.push_back(1); });
  wheel.schedule_at(t0 + Duration::millis(20), [&] { fired.push_back(2); });
  EXPECT_EQ(wheel.pending(), 3u);

  wheel.advance(t0 + Duration::millis(5));
  EXPECT_TRUE(fired.empty());  // nothing due yet
  wheel.advance(t0 + Duration::millis(15));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 1);
  wheel.advance(t0 + Duration::millis(100));
  ASSERT_EQ(fired.size(), 2u);  // the later round did not fire at tick 88
  // A single advance spanning several deadlines fires them all, in order —
  // including deadlines more than one wheel revolution out.
  wheel.advance(t0 + Duration::millis(700));
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[1], 2);
  EXPECT_EQ(fired[2], 3);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, CancelledTimersNeverFire) {
  transport::TimerWheel wheel;
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

TEST(TimerWheel, StaleIdsNeverMatchANewerTimer) {
  // An id names its pool entry and the entry's generation: an id that
  // fired or was cancelled must not match the newer timer holding its
  // entry now, and the pool growing under many armed timers keeps every
  // armed id.
  transport::TimerWheel wheel;
  TimePoint now = TimePoint::zero();
  int fired = 0;
  std::vector<std::uint64_t> stale;
  for (int i = 0; i < 1'000; ++i) {  // each fires at once
    const auto id = wheel.schedule_at(now, [&] { ++fired; });
    stale.push_back(id);
    wheel.advance(now);
    now = now + Duration::millis(1);
  }
  EXPECT_EQ(fired, 1'000);
  std::vector<std::uint64_t> armed;
  for (int i = 0; i < 500; ++i) {
    armed.push_back(
        wheel.schedule_at(now + Duration::millis(5), [&] { ++fired; }));
  }
  for (const auto id : stale) EXPECT_FALSE(wheel.cancel(id)) << id;
  EXPECT_EQ(wheel.pending(), 500u);
  for (std::size_t i = 0; i < armed.size(); i += 2) {
    EXPECT_TRUE(wheel.cancel(armed[i]));
  }
  EXPECT_EQ(wheel.pending(), 250u);
  wheel.advance(now + Duration::millis(10));
  EXPECT_EQ(fired, 1'250);
  for (const auto id : armed) EXPECT_FALSE(wheel.cancel(id)) << id;
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, CallbacksMayRescheduleAndPastDeadlinesFire) {
  transport::TimerWheel wheel;
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

// ------------------------------------------------------- UDP/epoll backend

#ifdef __linux__

/// A complete floor-control conversation in one process: server endpoint
/// and agent endpoints on one UdpLoop, talking through the kernel's
/// loopback UDP stack.
struct UdpWorld {
  transport::UdpLoop loop;
  obs::MetricsRegistry metrics;
  obs::WireInstruments wire{metrics};
  transport::UdpEndpoint server_ep{loop, fproto::wire_schema(), 0, &wire};
  floorctl::GroupRegistry registry;
  floorctl::FloorService service{registry, resource::Thresholds{0.25, 0.05},
                                 floorctl::HostId{1},
                                 resource::Resource{1.0, 1.0, 1.0}};
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
    chair = registry.add_member("chair", 100, service.host());
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

/// A plain UDP socket aimed at one local port: a foreign or hostile peer
/// that writes datagrams byte for byte.
class RawSender {
 public:
  explicit RawSender(std::uint16_t port)
      : fd_(socket(AF_INET, SOCK_DGRAM, 0)) {
    to_.sin_family = AF_INET;
    to_.sin_port = htons(port);
    to_.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  }
  ~RawSender() {
    if (fd_ >= 0) close(fd_);
  }
  RawSender(const RawSender&) = delete;
  RawSender& operator=(const RawSender&) = delete;

  bool send(const std::uint8_t* data, std::size_t len) const {
    return fd_ >= 0 &&
           sendto(fd_, data, len, 0, reinterpret_cast<const sockaddr*>(&to_),
                  sizeof(to_)) == static_cast<ssize_t>(len);
  }
  bool send(const std::vector<std::uint8_t>& bytes) const {
    return send(bytes.data(), bytes.size());
  }

 private:
  int fd_;
  sockaddr_in to_{};
};

/// One encoded frame, ready to be put in a datagram with others.
std::vector<std::uint8_t> frame_bytes(std::uint8_t kind,
                                      const net::Payload& ints) {
  std::vector<std::uint8_t> out(transport::kFrameMaxBytes);
  out.resize(transport::encode_frame(kind, ints, out.data(), out.size()));
  return out;
}

std::vector<std::uint8_t> concat(
    std::initializer_list<std::vector<std::uint8_t>> parts) {
  std::vector<std::uint8_t> out;
  for (const auto& part : parts) out.insert(out.end(), part.begin(), part.end());
  return out;
}

/// Poll `loop` until `done` or five seconds pass; returns `done()`.
bool poll_until(transport::UdpLoop& loop, const std::function<bool()>& done) {
  const TimePoint deadline = loop.now() + Duration::seconds(5);
  loop.run_while([&] { return loop.now() < deadline && !done(); });
  return done();
}

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
  const RawSender raw(w.server_ep.local_port());
  const auto blast = [&](const std::uint8_t* data, std::size_t len) {
    ASSERT_TRUE(raw.send(data, len));
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
  const RawSender raw(w.server_ep.local_port());
  const auto blast = [&](const std::uint8_t* data, std::size_t len) {
    ASSERT_TRUE(raw.send(data, len));
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
  // The whole burst left in one sendmmsg of two datagrams, one per peer,
  // ten frames each.
  EXPECT_EQ(wire.udp_tx_batch.count(), 1u);
  EXPECT_EQ(wire.udp_tx_batch.sum(), 2);
  EXPECT_EQ(metrics.value("wire.udp.tx_datagrams"), 2);
  EXPECT_EQ(metrics.value("wire.udp.tx_frames"), 20);
  EXPECT_EQ(metrics.value("wire.udp.rx_frames"), 20);
  EXPECT_EQ(metrics.value("wire.udp.send_failures"), 0);
}

/// One sender and any number of receivers on one loop, for the send side's
/// coalescing rules. Every receiver records the first lane of each kQueued
/// frame it gets; the endpoint frames any lane count, so a test sizes its
/// frames by the lanes it sends.
struct TxWorld {
  transport::UdpLoop loop;
  obs::MetricsRegistry metrics;
  obs::WireInstruments wire{metrics};
  transport::UdpEndpoint sender{loop, fproto::wire_schema(), 0, &wire};
  const net::MsgType type = fproto::wire_type(MsgKind::kQueued);

  struct Receiver {
    std::unique_ptr<transport::UdpEndpoint> endpoint;
    net::NodeId node;               // the sender's id for it
    std::vector<std::int64_t> got;  // first lanes, in arrival order
  };
  std::vector<std::unique_ptr<Receiver>> receivers;

  Receiver& add_receiver() {
    auto receiver = std::make_unique<Receiver>();
    Receiver& r = *receiver;
    receivers.push_back(std::move(receiver));
    r.endpoint = std::make_unique<transport::UdpEndpoint>(
        loop, fproto::wire_schema(), 0, &wire);
    r.node = sender.add_peer("127.0.0.1", r.endpoint->local_port());
    EXPECT_TRUE(r.endpoint->on(
        type, [&r](const net::Message& msg) { r.got.push_back(msg.ints[0]); }));
    return r;
  }

  std::size_t received() const {
    std::size_t n = 0;
    for (const auto& r : receivers) n += r->got.size();
    return n;
  }
};

TEST(UdpTransport, TxSplitsABurstOverTheDatagramLimitInOrder) {
  TxWorld w;
  auto& r = w.add_receiver();
  // 1-lane frames are 16 bytes, so 92 fill a 1,472-byte datagram: 200 of
  // them to one peer take three datagrams (92 + 92 + 16).
  constexpr std::int64_t kFrames = 200;
  for (std::int64_t i = 0; i < kFrames; ++i) w.sender.send(r.node, w.type, {i});
  ASSERT_TRUE(poll_until(w.loop, [&] { return w.received() >= kFrames; }));

  ASSERT_EQ(r.got.size(), static_cast<std::size_t>(kFrames));
  for (std::int64_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(r.got[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(w.metrics.value("wire.udp.tx_frames"), kFrames);
  EXPECT_EQ(w.metrics.value("wire.udp.tx_datagrams"), 3);
  EXPECT_EQ(w.metrics.value("wire.udp.rx_datagrams"), 3);
  EXPECT_EQ(w.metrics.value("wire.udp.rx_frames"), kFrames);
}

TEST(UdpTransport, TxNeverAppendsToAnEarlierDatagram) {
  TxWorld w;
  auto& r = w.add_receiver();
  // Ten 16-lane frames (136 bytes each) leave 112 of the first datagram's
  // 1,472 bytes free. The eleventh 16-lane frame does not fit and opens a
  // second datagram; the 1-lane frame after it would fit the first one's
  // tail, but must follow into the second or it would overtake frame 10.
  net::Payload wide;
  for (std::size_t lane = 0; lane < transport::kFrameMaxLanes; ++lane) {
    wide.push_back(0);
  }
  for (std::int64_t i = 0; i <= 10; ++i) {
    wide[0] = i;
    w.sender.send(r.node, w.type, wide);
  }
  w.sender.send(r.node, w.type, {11});
  ASSERT_TRUE(poll_until(w.loop, [&] { return w.received() >= 12; }));

  ASSERT_EQ(r.got.size(), 12u);
  for (std::int64_t i = 0; i < 12; ++i) {
    EXPECT_EQ(r.got[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(w.metrics.value("wire.udp.tx_datagrams"), 2);
  EXPECT_EQ(w.metrics.value("wire.udp.rx_frames"), 12);
}

TEST(UdpTransport, TxManyPeersInOneTurnTakeTheBufferFullFlush) {
  TxWorld w;
  // More peers than tx slots, two frames each in two rounds, all before
  // the loop polls: the sends themselves must flush a full buffer, and no
  // frame may be lost or reordered on the way.
  constexpr std::size_t kPeers = transport::UdpEndpoint::kTxBatch + 8;
  for (std::size_t p = 0; p < kPeers; ++p) w.add_receiver();
  for (std::int64_t round = 0; round < 2; ++round) {
    for (std::size_t p = 0; p < kPeers; ++p) {
      w.sender.send(w.receivers[p]->node, w.type,
                    {round * static_cast<std::int64_t>(kPeers) +
                     static_cast<std::int64_t>(p)});
    }
  }
  EXPECT_GE(w.wire.udp_tx_batch.count(), 1u);  // a buffer-full flush ran
  ASSERT_TRUE(poll_until(w.loop, [&] { return w.received() >= 2 * kPeers; }));

  for (std::size_t p = 0; p < kPeers; ++p) {
    const auto& got = w.receivers[p]->got;
    ASSERT_EQ(got.size(), 2u) << "peer " << p;
    EXPECT_EQ(got[0], static_cast<std::int64_t>(p));
    EXPECT_EQ(got[1], static_cast<std::int64_t>(kPeers + p));
  }
  EXPECT_EQ(w.metrics.value("wire.udp.tx_frames"), 2.0 * kPeers);
  EXPECT_EQ(w.metrics.value("wire.udp.send_failures"), 0);
}

TEST(UdpTransport, TxSendFilterEatsFramesBeforeTheyEnterADatagram) {
  TxWorld w;
  auto& r = w.add_receiver();
  int offered = 0;
  w.sender.set_send_filter(
      [&](net::NodeId, net::MsgType) { return offered++ % 2 == 0; });
  for (std::int64_t i = 0; i < 10; ++i) w.sender.send(r.node, w.type, {i});
  ASSERT_TRUE(poll_until(w.loop, [&] { return w.received() >= 5; }));

  EXPECT_EQ(r.got, (std::vector<std::int64_t>{0, 2, 4, 6, 8}));
  // Eaten frames still count as sent, but the one datagram carries only
  // the five that passed.
  EXPECT_EQ(w.metrics.value("wire.udp.tx_frames"), 10);
  EXPECT_EQ(w.metrics.value("wire.udp.tx_datagrams"), 1);
  EXPECT_EQ(w.metrics.value("wire.udp.rx_frames"), 5);
}

/// A bare endpoint that records every kJoin frame it is handed.
struct JoinSink {
  transport::UdpLoop loop;
  obs::MetricsRegistry metrics;
  obs::WireInstruments wire{metrics};
  transport::UdpEndpoint endpoint{loop, fproto::wire_schema(), 0, &wire};
  std::vector<net::Message> got;

  JoinSink() {
    EXPECT_TRUE(endpoint.on(fproto::wire_type(MsgKind::kJoin),
                            [this](const net::Message& msg) {
                              got.push_back(msg);
                            }));
  }

  static std::vector<std::uint8_t> join(std::int64_t member) {
    return frame_bytes(static_cast<std::uint8_t>(MsgKind::kJoin),
                       fproto::encode(fproto::JoinMsg{
                           floorctl::MemberId{static_cast<std::uint32_t>(member)},
                           floorctl::GroupId{0}}));
  }

  /// Send one datagram from `raw` and poll until the endpoint has read it.
  bool deliver(const RawSender& raw, const std::vector<std::uint8_t>& bytes) {
    const double before = metrics.value("wire.udp.rx_datagrams");
    return raw.send(bytes) && poll_until(loop, [&] {
             return metrics.value("wire.udp.rx_datagrams") > before;
           });
  }
};

TEST(UdpTransport, RxDispatchesEveryFrameAroundAnUnknownKind) {
  JoinSink sink;
  const RawSender raw(sink.endpoint.local_port());
  ASSERT_TRUE(sink.deliver(
      raw, concat({JoinSink::join(7), frame_bytes(0xEE, {1, 2}),
                   JoinSink::join(8)})));

  ASSERT_EQ(sink.got.size(), 2u);
  EXPECT_EQ(sink.got[0].ints[0], 7);
  EXPECT_EQ(sink.got[1].ints[0], 8);
  EXPECT_EQ(sink.got[0].from, sink.got[1].from);
  EXPECT_EQ(sink.endpoint.peer_count(), 1u);  // interned once
  EXPECT_EQ(sink.metrics.value("wire.udp.drop_unknown_kind"), 1);
  EXPECT_EQ(sink.metrics.value("wire.udp.rx_frames"), 3);
  EXPECT_EQ(sink.metrics.value("wire.udp.drop_malformed"), 0);
  EXPECT_EQ(sink.metrics.value("wire.udp.drop_version"), 0);
}

TEST(UdpTransport, RxDropsADatagramWholeOnAnyFramingError) {
  JoinSink sink;
  const RawSender raw(sink.endpoint.local_port());
  const auto join = JoinSink::join(7);

  // A good frame followed by bytes that are not one: each datagram
  // dispatches nothing and counts one drop, in its class.
  ASSERT_TRUE(sink.deliver(raw, concat({join, {0xAB, 0xAB, 0xAB}})));
  EXPECT_EQ(sink.metrics.value("wire.udp.drop_malformed"), 1);

  auto foreign = JoinSink::join(8);
  foreign[4] = transport::kFrameVersion - 1;
  ASSERT_TRUE(sink.deliver(raw, concat({join, foreign})));
  EXPECT_EQ(sink.metrics.value("wire.udp.drop_version"), 1);

  auto truncated = JoinSink::join(8);
  truncated.pop_back();
  ASSERT_TRUE(sink.deliver(raw, concat({join, truncated})));
  EXPECT_EQ(sink.metrics.value("wire.udp.drop_malformed"), 2);

  EXPECT_TRUE(sink.got.empty());
  EXPECT_EQ(sink.endpoint.peer_count(), 0u);  // a dropped source is not learned
  EXPECT_EQ(sink.metrics.value("wire.udp.rx_frames"), 0);

  // The same frame alone passes.
  ASSERT_TRUE(sink.deliver(raw, join));
  EXPECT_EQ(sink.got.size(), 1u);
  EXPECT_EQ(sink.metrics.value("wire.udp.rx_frames"), 1);
}

/// The fuzz oracle's reference tiling, read off WIRE.md's frame format
/// rather than frame.cpp: how a datagram fails, or the offsets of the
/// frames it holds.
struct Tiling {
  FrameError error = FrameError::kOk;
  std::vector<std::size_t> offsets;
};

Tiling reference_tiling(const std::vector<std::uint8_t>& d) {
  Tiling t;
  if (d.size() > transport::kDatagramMaxBytes) {
    t.error = FrameError::kTooLong;
    return t;
  }
  std::size_t at = 0;
  do {
    const std::size_t left = d.size() - at;
    if (left < 8) {
      t.error = FrameError::kShort;
    } else if (d[at] != 0x44 || d[at + 1] != 0x4D || d[at + 2] != 0x50 ||
               d[at + 3] != 0x53) {
      t.error = FrameError::kBadMagic;
    } else if (d[at + 4] != transport::kFrameVersion) {
      t.error = FrameError::kBadVersion;
    } else {
      const std::size_t lanes = d[at + 6] | (std::size_t{d[at + 7]} << 8);
      if (lanes > transport::kFrameMaxLanes || 8 + 8 * lanes > left) {
        t.error = FrameError::kBadLaneCount;
      } else {
        t.offsets.push_back(at);
        at += 8 + 8 * lanes;
        continue;
      }
    }
    t.offsets.clear();
    return t;
  } while (at < d.size());
  return t;
}

/// Builds random datagrams of valid frames and mutates them the ways a
/// broken or hostile peer would.
class DatagramFuzzer {
 public:
  explicit DatagramFuzzer(std::uint64_t seed) : rng_(seed) {}

  std::vector<std::uint8_t> next() {
    std::vector<std::size_t> offsets;
    auto d = valid(offsets);
    switch (rng_.index(6)) {
      case 0:  // left whole
        break;
      case 1:  // truncated
        d.resize(rng_.index(d.size()));
        break;
      case 2:  // one byte flipped
        d[rng_.index(d.size())] ^= static_cast<std::uint8_t>(1 + rng_.index(255));
        break;
      case 3: {  // one frame's lane count rewritten
        const std::size_t at = offsets[rng_.index(offsets.size())];
        d[at + 6] = static_cast<std::uint8_t>(rng_.index(transport::kFrameMaxLanes + 8));
        d[at + 7] = rng_.chance(0.1) ? static_cast<std::uint8_t>(rng_.index(256)) : 0;
        break;
      }
      case 4: {  // the head of one datagram spliced onto the tail of another
        std::vector<std::size_t> unused;
        const auto other = valid(unused);
        d.resize(rng_.index(d.size() + 1));
        d.insert(d.end(), other.begin() + static_cast<std::ptrdiff_t>(
                                              rng_.index(other.size() + 1)),
                 other.end());
        break;
      }
      default:  // bytes appended
        for (std::size_t n = 1 + rng_.index(16); n > 0; --n) {
          d.push_back(static_cast<std::uint8_t>(rng_.index(256)));
        }
        break;
    }
    return d;
  }

 private:
  /// 1–40 random frames (fewer if the datagram limit comes first); kinds
  /// run two past the schema, so unknown kinds occur too.
  std::vector<std::uint8_t> valid(std::vector<std::size_t>& offsets) {
    std::vector<std::uint8_t> d;
    for (std::size_t n = 1 + rng_.index(40); n > 0; --n) {
      net::Payload ints;
      for (std::size_t lanes = rng_.index(transport::kFrameMaxLanes + 1);
           lanes > 0; --lanes) {
        ints.push_back(static_cast<std::int64_t>(rng_.next()));
      }
      const auto frame = frame_bytes(
          static_cast<std::uint8_t>(rng_.index(fproto::kMsgKindCount + 2)),
          ints);
      if (d.size() + frame.size() > transport::kDatagramMaxBytes) break;
      offsets.push_back(d.size());
      d.insert(d.end(), frame.begin(), frame.end());
    }
    return d;
  }

  util::Rng rng_;
};

TEST(UdpTransport, FuzzedDatagramsDispatchWholeOrDropOnce) {
  constexpr int kDatagrams = 200'000;
  constexpr int kSampleEvery = 100;  // every 100th goes through a real socket
  DatagramFuzzer fuzzer(20'011);
  std::vector<std::vector<std::uint8_t>> sample;
  std::size_t accepted = 0, version = 0, malformed = 0;

  for (int i = 0; i < kDatagrams; ++i) {
    const auto d = fuzzer.next();
    const Tiling want = reference_tiling(d);
    // An exactly sized heap copy: a read past the datagram is an ASan error.
    const auto exact = std::make_unique<std::uint8_t[]>(d.size());
    std::copy(d.begin(), d.end(), exact.get());

    std::vector<std::uint8_t> rebuilt;
    const FrameError got = transport::walk_datagram(
        exact.get(), d.size(), [&](Frame& f) {
          const auto bytes = frame_bytes(f.kind, f.ints);
          rebuilt.insert(rebuilt.end(), bytes.begin(), bytes.end());
        });
    ASSERT_EQ(got, want.error) << "datagram " << i;
    if (got == FrameError::kOk) {
      // Every frame, in order, and nothing else: re-encoding what the
      // walker handed out rebuilds the datagram byte for byte.
      ASSERT_EQ(rebuilt, d) << "datagram " << i;
      ++accepted;
    } else {
      ASSERT_TRUE(rebuilt.empty()) << "datagram " << i;
      ++(got == FrameError::kBadVersion ? version : malformed);
    }
    if (i % kSampleEvery == 0) sample.push_back(d);
  }
  // The mutations reach every outcome.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(version, 0u);
  EXPECT_GT(malformed, 0u);

  // The sample through a real endpoint: each datagram lands in exactly one
  // structural drop class or has every frame dispatched, unknown or
  // unhandled. The server handles exactly the client-to-server kinds.
  const auto server_side = [](std::uint8_t kind) {
    for (const MsgKind k : {MsgKind::kJoin, MsgKind::kLeave, MsgKind::kRequest,
                            MsgKind::kRelease, MsgKind::kSuspendAck,
                            MsgKind::kResumeAck}) {
      if (kind == static_cast<std::uint8_t>(k)) return true;
    }
    return false;
  };
  double want_version = 0, want_malformed = 0, want_frames = 0,
         want_unknown = 0, want_unhandled = 0;
  for (const auto& d : sample) {
    const Tiling t = reference_tiling(d);
    if (t.error == FrameError::kBadVersion) ++want_version;
    if (t.error != FrameError::kOk && t.error != FrameError::kBadVersion) {
      ++want_malformed;
    }
    for (const std::size_t at : t.offsets) {
      ++want_frames;
      if (d[at + 5] >= fproto::kMsgKindCount) {
        ++want_unknown;
      } else if (!server_side(d[at + 5])) {
        ++want_unhandled;
      }
    }
  }

  UdpWorld w;
  const RawSender raw(w.server_ep.local_port());
  double sent = 0;
  for (const auto& d : sample) {
    ASSERT_TRUE(raw.send(d));
    // Let the endpoint catch up every 16 datagrams: the socket buffer must
    // never overflow, or the counts would not add up.
    if (++sent == sample.size() || static_cast<int>(sent) % 16 == 0) {
      ASSERT_TRUE(w.run_until([&] {
        return w.metrics.value("wire.udp.rx_datagrams") >= sent;
      }));
    }
  }
  EXPECT_EQ(w.metrics.value("wire.udp.rx_datagrams"), sent);
  EXPECT_EQ(w.metrics.value("wire.udp.drop_version"), want_version);
  EXPECT_EQ(w.metrics.value("wire.udp.drop_malformed"), want_malformed);
  EXPECT_EQ(w.metrics.value("wire.udp.rx_frames"), want_frames);
  EXPECT_EQ(w.metrics.value("wire.udp.drop_unknown_kind"), want_unknown);
  EXPECT_EQ(w.metrics.value("wire.udp.drop_unhandled"), want_unhandled);

  // And the loop still serves a real member.
  auto& s = w.add_station("after-fuzz", 1);
  ASSERT_TRUE(s.agent->join());
  EXPECT_TRUE(w.run_until([&] { return s.joined == 1; }));
}

TEST(UdpTransport, ShardedServersShareOneFloorControl) {
  // Two endpoints on one loop, each with its own FloorServer, both
  // fronting one ShardedFloorService through the FloorControl seam (how
  // session::Presentation federates its hosts). Each agent talks to its
  // host's server, and nobody gets stuck.
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
  // Host 1 talks to server 0, host 2 to server 1.
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
