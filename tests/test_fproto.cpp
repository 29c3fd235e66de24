#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "clock/drift_clock.hpp"
#include "fproto/agent.hpp"
#include "fproto/codec.hpp"
#include "fproto/server.hpp"
#include "transport/sim_transport.hpp"

namespace {

using namespace dmps;
using namespace dmps::floorctl;
using fproto::AgentState;
using fproto::MsgKind;
using resource::Resource;
using resource::Thresholds;
using util::Duration;
using util::TimePoint;

// ------------------------------------------------------------------- codec

TEST(FprotoCodec, RoundTripsEveryKind) {
  const MemberId m{7};
  const GroupId g{3};
  const HostId h{2};

  {
    const auto v = fproto::encode(fproto::JoinMsg{m, g});
    const auto d = fproto::decode_join({{}, {}, wire_type(MsgKind::kJoin), v});
    ASSERT_TRUE(d);
    EXPECT_EQ(d->member, m);
    EXPECT_EQ(d->group, g);
  }
  {
    const auto v = fproto::encode(fproto::JoinAckMsg{m, g, true});
    const auto d =
        fproto::decode_join_ack({{}, {}, wire_type(MsgKind::kJoinAck), v});
    ASSERT_TRUE(d);
    EXPECT_TRUE(d->accepted);
  }
  {
    const auto v = fproto::encode(fproto::LeaveMsg{m, g});
    const auto d = fproto::decode_leave({{}, {}, wire_type(MsgKind::kLeave), v});
    ASSERT_TRUE(d);
    EXPECT_EQ(d->member, m);
  }
  {
    const auto v = fproto::encode(fproto::LeaveAckMsg{m, g, false});
    const auto d =
        fproto::decode_leave_ack({{}, {}, wire_type(MsgKind::kLeaveAck), v});
    ASSERT_TRUE(d);
    EXPECT_FALSE(d->accepted);
  }
  {
    fproto::RequestMsg r;
    r.request_id = (7ull << 32) | 42;
    r.member = m;
    r.group = g;
    r.host = h;
    r.mode = FcmMode::kChaired;
    r.qos = media::QosRequirement{0.125, 0.0625, 1.0 / 3.0};  // 1/3 is inexact
    const auto v = fproto::encode(r);
    const auto d =
        fproto::decode_request({{}, {}, wire_type(MsgKind::kRequest), v});
    ASSERT_TRUE(d);
    EXPECT_EQ(d->request_id, r.request_id);
    EXPECT_EQ(d->member, m);
    EXPECT_EQ(d->group, g);
    EXPECT_EQ(d->host, h);
    EXPECT_EQ(d->mode, FcmMode::kChaired);
    // Bit-cast lanes: exact doubles, even non-dyadic ones.
    EXPECT_EQ(d->qos.bandwidth, 0.125);
    EXPECT_EQ(d->qos.cpu, 0.0625);
    EXPECT_EQ(d->qos.memory, 1.0 / 3.0);
  }
  {
    const auto v = fproto::encode(fproto::GrantMsg{99, true, 0.375});
    const auto d = fproto::decode_grant({{}, {}, wire_type(MsgKind::kGrant), v});
    ASSERT_TRUE(d);
    EXPECT_EQ(d->request_id, 99u);
    EXPECT_TRUE(d->degraded);
    EXPECT_EQ(d->availability, 0.375);
  }
  {
    const auto v = fproto::encode(fproto::DenyMsg{99, Outcome::kAborted});
    const auto d = fproto::decode_deny({{}, {}, wire_type(MsgKind::kDeny), v});
    ASSERT_TRUE(d);
    EXPECT_EQ(d->outcome, Outcome::kAborted);
  }
  {
    const auto v = fproto::encode(fproto::ReleaseMsg{99, m, g});
    const auto d =
        fproto::decode_release({{}, {}, wire_type(MsgKind::kRelease), v});
    ASSERT_TRUE(d);
    EXPECT_EQ(d->request_id, 99u);
    EXPECT_EQ(d->member, m);
  }
  {
    const auto v = fproto::encode(fproto::ReleaseAckMsg{99});
    const auto d =
        fproto::decode_release_ack({{}, {}, wire_type(MsgKind::kReleaseAck), v});
    ASSERT_TRUE(d);
    EXPECT_EQ(d->request_id, 99u);
  }
  {
    const auto v = fproto::encode(fproto::SuspendMsg{5, 99});
    const auto d =
        fproto::decode_suspend({{}, {}, wire_type(MsgKind::kSuspend), v});
    ASSERT_TRUE(d);
    EXPECT_EQ(d->notify_id, 5u);
    EXPECT_EQ(d->request_id, 99u);
  }
  {
    const auto v = fproto::encode(fproto::SuspendAckMsg{5});
    const auto d = fproto::decode_suspend_ack(
        {{}, {}, wire_type(MsgKind::kSuspendAck), v});
    ASSERT_TRUE(d);
    EXPECT_EQ(d->notify_id, 5u);
  }
  {
    const auto v = fproto::encode(fproto::ResumeMsg{6, 99});
    const auto d = fproto::decode_resume({{}, {}, wire_type(MsgKind::kResume), v});
    ASSERT_TRUE(d);
    EXPECT_EQ(d->notify_id, 6u);
  }
  {
    const auto v = fproto::encode(fproto::ResumeAckMsg{6});
    const auto d =
        fproto::decode_resume_ack({{}, {}, wire_type(MsgKind::kResumeAck), v});
    ASSERT_TRUE(d);
    EXPECT_EQ(d->notify_id, 6u);
  }
}

TEST(FprotoCodec, RejectsWrongTypeAndShortPayload) {
  const auto good = fproto::encode(fproto::GrantMsg{1, false, 0.5});
  // Right payload under the wrong wire type.
  EXPECT_FALSE(fproto::decode_grant({{}, {}, wire_type(MsgKind::kDeny), good}));
  // Right type, truncated payload.
  EXPECT_FALSE(fproto::decode_grant(
      {{}, {}, wire_type(MsgKind::kGrant), {good[0], good[1]}}));
  EXPECT_FALSE(
      fproto::decode_request({{}, {}, wire_type(MsgKind::kRequest), {1, 2, 3}}));
  EXPECT_FALSE(fproto::decode_join({{}, {}, wire_type(MsgKind::kJoin), {}}));
}

// ----------------------------------------------------------- protocol world

/// One server station plus N member stations over one lossy network.
struct ProtoWorld {
  sim::Simulator sim;
  net::SimNetwork network;
  net::NodeId server_node;
  net::Demux server_demux;
  transport::SimTransport server_transport;
  clk::TrueClock clock;
  GroupRegistry registry;
  FloorService service;
  HostId host{1};
  MemberId chair;
  GroupId group;
  fproto::FloorServer server;

  struct Station {
    net::NodeId node;
    std::unique_ptr<net::Demux> demux;
    std::unique_ptr<transport::SimTransport> transport;
    std::unique_ptr<fproto::FloorAgent> agent;
    // Latest observed callbacks.
    int granted = 0, denied = 0, queued = 0, suspended = 0, resumed = 0,
        released = 0;
    int joined = 0, failed = 0;
  };
  std::vector<std::unique_ptr<Station>> stations;

  explicit ProtoWorld(std::uint64_t seed, double loss,
                      Resource capacity = Resource{1.0, 1.0, 1.0},
                      FcmMode mode = FcmMode::kFreeAccess,
                      PolicyKind policy = PolicyKind::kThreeRegime)
      : network(sim, seed,
                net::LinkQuality{Duration::millis(5), Duration::millis(2), loss}),
        server_node(network.add_node("server")),
        server_demux(network, server_node),
        server_transport(server_demux),
        clock(sim),
        service(registry, clock, Thresholds{0.25, 0.05}),
        server(server_transport, registry, service, {Duration::millis(120), 200}) {
    service.add_host(host, capacity);
    chair = registry.add_member("chair", 100, host);
    group = registry.create_group("g", mode, chair, policy);
  }

  /// A station for a fresh member — or, when `as` names an existing member
  /// (e.g. the chair), a station speaking for that member.
  Station& add_station(const std::string& name, int priority,
                       fproto::AgentConfig config = {Duration::millis(120), 200},
                       MemberId as = MemberId::invalid()) {
    auto station = std::make_unique<Station>();
    Station& s = *station;
    stations.push_back(std::move(station));
    const MemberId member =
        as.valid() ? as : registry.add_member(name, priority, host);
    s.node = network.add_node(name);
    s.demux = std::make_unique<net::Demux>(network, s.node);
    s.transport = std::make_unique<transport::SimTransport>(*s.demux);
    fproto::AgentEvents events;
    events.on_joined = [&s] { ++s.joined; };
    events.on_granted = [&s](std::uint64_t, bool) { ++s.granted; };
    events.on_denied = [&s](std::uint64_t, Outcome) { ++s.denied; };
    events.on_queued = [&s](std::uint64_t) { ++s.queued; };
    events.on_suspended = [&s](std::uint64_t) { ++s.suspended; };
    events.on_resumed = [&s](std::uint64_t) { ++s.resumed; };
    events.on_released = [&s](std::uint64_t) { ++s.released; };
    events.on_failed = [&s](AgentState) { ++s.failed; };
    s.agent = std::make_unique<fproto::FloorAgent>(
        *s.transport, server_node, member, group, host, config, events);
    return s;
  }

  void run_for(double seconds) {
    sim.run_until(sim.now() + Duration::from_seconds(seconds));
  }
};

TEST(FloorAgent, JoinRequestReleaseOnCleanLink) {
  ProtoWorld w(11, 0.0);
  auto& s = w.add_station("a", 1);
  EXPECT_TRUE(s.agent->join());
  EXPECT_FALSE(s.agent->join());  // one op at a time
  w.run_for(1.0);
  EXPECT_EQ(s.agent->state(), AgentState::kJoined);
  EXPECT_EQ(s.joined, 1);

  const auto id = s.agent->request_floor(media::QosRequirement{0.4, 0.4, 0.4});
  EXPECT_NE(id, 0u);
  w.run_for(1.0);
  EXPECT_EQ(s.agent->state(), AgentState::kGranted);
  EXPECT_EQ(s.granted, 1);
  EXPECT_EQ(w.service.active_grants(), 1u);

  EXPECT_TRUE(s.agent->release_floor());
  w.run_for(1.0);
  EXPECT_EQ(s.agent->state(), AgentState::kJoined);
  EXPECT_EQ(s.released, 1);
  EXPECT_EQ(w.service.active_grants(), 0u);
  // Clean link: nothing retransmitted, nothing duplicated.
  EXPECT_EQ(s.agent->retransmits(), 0u);
  EXPECT_EQ(w.server.duplicate_requests(), 0u);
  EXPECT_EQ(w.server.requests_arbitrated(), 1u);
}

TEST(FloorAgent, RequestRetransmitsUntilGrantedUnderLoss) {
  // 35% loss each way: the first transmission almost surely isn't the one
  // that lands both directions. The agent must converge anyway, and the
  // server must arbitrate exactly once no matter how many copies arrive.
  ProtoWorld w(42, 0.35);
  auto& s = w.add_station("a", 1);
  ASSERT_TRUE(s.agent->join());
  w.run_for(10.0);
  ASSERT_EQ(s.agent->state(), AgentState::kJoined);

  s.agent->request_floor(media::QosRequirement{0.4, 0.4, 0.4});
  w.run_for(20.0);
  EXPECT_EQ(s.agent->state(), AgentState::kGranted);
  EXPECT_EQ(s.granted, 1);  // exactly one grant callback
  EXPECT_GT(s.agent->retransmits(), 0u);
  EXPECT_EQ(w.server.requests_arbitrated(), 1u);  // dedup held
  EXPECT_EQ(w.service.active_grants(), 1u);

  // And the release leg converges the same way.
  ASSERT_TRUE(s.agent->release_floor());
  w.run_for(20.0);
  EXPECT_EQ(s.agent->state(), AgentState::kJoined);
  EXPECT_EQ(s.released, 1);
  EXPECT_EQ(w.service.active_grants(), 0u);
}

TEST(FloorAgent, DuplicateGrantsAreSuppressed) {
  ProtoWorld w(13, 0.0);
  auto& s = w.add_station("a", 1);
  ASSERT_TRUE(s.agent->join());
  w.run_for(1.0);
  const auto id = s.agent->request_floor(media::QosRequirement{0.3, 0.3, 0.3});
  w.run_for(1.0);
  ASSERT_EQ(s.agent->state(), AgentState::kGranted);
  ASSERT_EQ(s.granted, 1);

  // Replay the server's Grant three times (a retransmission echo burst).
  for (int i = 0; i < 3; ++i) {
    w.network.send({w.server_node, s.node, wire_type(MsgKind::kGrant),
                    fproto::encode(fproto::GrantMsg{id, false, 0.7})});
  }
  w.run_for(1.0);
  EXPECT_EQ(s.granted, 1);  // no double start
  EXPECT_EQ(s.agent->state(), AgentState::kGranted);
  EXPECT_EQ(s.agent->duplicates_suppressed(), 3u);
}

TEST(FloorServer, RetransmittedRequestIsArbitratedOnce) {
  ProtoWorld w(17, 0.0);
  auto& s = w.add_station("a", 1);
  ASSERT_TRUE(s.agent->join());
  w.run_for(1.0);
  const auto id = s.agent->request_floor(media::QosRequirement{0.3, 0.3, 0.3});
  w.run_for(1.0);
  ASSERT_EQ(s.agent->state(), AgentState::kGranted);

  // A late duplicate of the request hits the server after it decided.
  fproto::RequestMsg dup;
  dup.request_id = id;
  dup.member = s.agent->member();
  dup.group = w.group;
  dup.host = w.host;
  dup.qos = media::QosRequirement{0.3, 0.3, 0.3};
  w.network.send({s.node, w.server_node, wire_type(MsgKind::kRequest),
                  fproto::encode(dup)});
  w.run_for(1.0);
  EXPECT_EQ(w.server.requests_arbitrated(), 1u);
  EXPECT_EQ(w.server.duplicate_requests(), 1u);
  EXPECT_EQ(w.service.active_grants(), 1u);  // not double-reserved
  // The replayed reply reached the agent as a suppressed duplicate.
  EXPECT_EQ(s.agent->duplicates_suppressed(), 1u);
}

TEST(FloorServer, SuspendAndResumeNotificationsSurviveLoss) {
  // Capacity 1.0: "low" (priority 1) takes 0.6, then "high" (priority 5)
  // asks for 0.6 — low must be Media-Suspended. When high releases, low is
  // Media-Resumed. 30% loss each way: the notifications are retransmitted
  // until acked.
  ProtoWorld w(23, 0.30);
  auto& low = w.add_station("low", 1);
  auto& high = w.add_station("high", 5);
  ASSERT_TRUE(low.agent->join());
  ASSERT_TRUE(high.agent->join());
  w.run_for(10.0);
  ASSERT_EQ(low.agent->state(), AgentState::kJoined);
  ASSERT_EQ(high.agent->state(), AgentState::kJoined);

  low.agent->request_floor(media::QosRequirement{0.6, 0.6, 0.6});
  w.run_for(15.0);
  ASSERT_EQ(low.agent->state(), AgentState::kGranted);

  high.agent->request_floor(media::QosRequirement{0.6, 0.6, 0.6});
  w.run_for(15.0);
  EXPECT_EQ(high.agent->state(), AgentState::kGranted);
  EXPECT_EQ(low.agent->state(), AgentState::kSuspended);
  EXPECT_EQ(low.suspended, 1);
  EXPECT_EQ(w.server.suspends_sent(), 1u);

  ASSERT_TRUE(high.agent->release_floor());
  w.run_for(15.0);
  EXPECT_EQ(high.agent->state(), AgentState::kJoined);
  EXPECT_EQ(low.agent->state(), AgentState::kGranted);  // resumed
  EXPECT_EQ(low.resumed, 1);
  EXPECT_EQ(w.server.resumes_sent(), 1u);
  EXPECT_EQ(w.server.notifies_pending(), 0u);  // every notification acked
}

TEST(FloorAgent, StaleSuspendCannotReSuspendAResumedGrant) {
  // The retransmission race: Suspend(n1) applies but its ack is lost; the
  // server later Resumes(n2); then the old Suspend(n1) is retransmitted.
  // Notify ids are monotonic, so the replay must be acked-but-ignored —
  // otherwise the agent re-suspends forever (no further Resume is coming).
  ProtoWorld w(41, 0.0);
  auto& s = w.add_station("a", 1);
  ASSERT_TRUE(s.agent->join());
  w.run_for(1.0);
  const auto id = s.agent->request_floor(media::QosRequirement{0.3, 0.3, 0.3});
  w.run_for(1.0);
  ASSERT_EQ(s.agent->state(), AgentState::kGranted);

  const auto inject = [&](MsgKind kind, std::uint64_t notify_id) {
    const auto ints = kind == MsgKind::kSuspend
                          ? fproto::encode(fproto::SuspendMsg{notify_id, id})
                          : fproto::encode(fproto::ResumeMsg{notify_id, id});
    w.network.send({w.server_node, s.node, wire_type(kind), ints});
  };
  inject(MsgKind::kSuspend, 1);
  w.run_for(1.0);
  ASSERT_EQ(s.agent->state(), AgentState::kSuspended);
  inject(MsgKind::kResume, 2);
  w.run_for(1.0);
  ASSERT_EQ(s.agent->state(), AgentState::kGranted);

  inject(MsgKind::kSuspend, 1);  // the stale retransmission
  w.run_for(1.0);
  EXPECT_EQ(s.agent->state(), AgentState::kGranted);  // NOT re-suspended
  EXPECT_EQ(s.suspended, 1);
  EXPECT_EQ(s.resumed, 1);

  // Reorder variant: Resume(n4) beats Suspend(n3) to the station. The late
  // Suspend is older than the highest applied id and must not suspend
  // anything. (Injected with a gap so link jitter can't flip the order —
  // the *arrival* order is the scenario under test.)
  inject(MsgKind::kResume, 4);
  w.run_for(0.5);
  inject(MsgKind::kSuspend, 3);
  w.run_for(1.0);
  EXPECT_EQ(s.agent->state(), AgentState::kGranted);
  EXPECT_EQ(s.suspended, 1);
}

TEST(FloorAgent, SuspendOvertakingGrantSynthesizesTheGrant) {
  // A Suspend for the agent's own pending request implies it was granted:
  // the agent must surface on_granted (degraded) and then on_suspended, so
  // callers' grant accounting stays consistent; the late Grant is a dup.
  ProtoWorld w(43, 0.0);
  auto& s = w.add_station("a", 1);
  ASSERT_TRUE(s.agent->join());
  w.run_for(1.0);
  // Blackhole the server->client link so the real Grant never arrives.
  w.network.set_link(w.server_node, s.node,
                     net::LinkQuality{Duration::millis(5), Duration::zero(), 1.0});
  const auto id = s.agent->request_floor(media::QosRequirement{0.3, 0.3, 0.3});
  w.run_for(0.5);
  ASSERT_EQ(s.agent->state(), AgentState::kPending);
  // Heal the link and inject the suspend notification directly.
  w.network.set_link(w.server_node, s.node,
                     net::LinkQuality{Duration::millis(5), Duration::zero(), 0.0});
  w.network.send({w.server_node, s.node, wire_type(MsgKind::kSuspend),
                  fproto::encode(fproto::SuspendMsg{1, id})});
  w.run_for(1.0);
  EXPECT_EQ(s.agent->state(), AgentState::kSuspended);
  EXPECT_EQ(s.granted, 1);  // synthesized grant
  EXPECT_EQ(s.suspended, 1);
  // The (retransmission-triggered) real Grant now lands as a duplicate.
  w.network.send({w.server_node, s.node, wire_type(MsgKind::kGrant),
                  fproto::encode(fproto::GrantMsg{id, false, 0.7})});
  w.run_for(1.0);
  EXPECT_EQ(s.granted, 1);
  EXPECT_EQ(s.agent->state(), AgentState::kSuspended);
}

TEST(FloorAgent, ExhaustedRetriesFailTheOperation) {
  ProtoWorld w(31, 0.0);
  auto& s = w.add_station("a", 1, fproto::AgentConfig{Duration::millis(50), 4});
  // Total blackout: nothing ever arrives at the server.
  w.network.set_link(s.node, w.server_node,
                     net::LinkQuality{Duration::millis(5), Duration::zero(), 1.0});
  ASSERT_TRUE(s.agent->join());
  w.run_for(5.0);
  EXPECT_EQ(s.agent->state(), AgentState::kFailed);
  EXPECT_EQ(s.failed, 1);
  EXPECT_FALSE(s.agent->terminated());  // failed is the visible stuck state
  EXPECT_EQ(s.agent->retransmits(), 3u);  // max_tries - 1 resends
}

TEST(FloorAgent, LeaveReleasesHeldFloorServerSide) {
  ProtoWorld w(37, 0.0);
  auto& s = w.add_station("a", 1);
  ASSERT_TRUE(s.agent->join());
  w.run_for(1.0);
  s.agent->request_floor(media::QosRequirement{0.5, 0.5, 0.5});
  w.run_for(1.0);
  ASSERT_EQ(s.agent->state(), AgentState::kGranted);
  ASSERT_EQ(w.service.active_grants(), 1u);

  ASSERT_TRUE(s.agent->leave());
  w.run_for(1.0);
  EXPECT_EQ(s.agent->state(), AgentState::kIdle);
  EXPECT_EQ(w.service.active_grants(), 0u);  // server released on leave
  EXPECT_FALSE(w.registry.in_group(s.agent->member(), w.group));
}

// ------------------------------------------------- member churn on the wire

TEST(FloorServer, LeaveWhileHoldingResumesSuspendedHolders) {
  // Member churn: "high" Media-Suspends "low", then *leaves* mid-holding
  // instead of releasing. The server must give high's floor back and
  // Media-Resume low — a leaver cannot strand suspended holders.
  ProtoWorld w(53, 0.0);
  auto& low = w.add_station("low", 1);
  auto& high = w.add_station("high", 5);
  ASSERT_TRUE(low.agent->join());
  ASSERT_TRUE(high.agent->join());
  w.run_for(1.0);

  low.agent->request_floor(media::QosRequirement{0.6, 0.6, 0.6});
  w.run_for(1.0);
  ASSERT_EQ(low.agent->state(), AgentState::kGranted);
  high.agent->request_floor(media::QosRequirement{0.6, 0.6, 0.6});
  w.run_for(1.0);
  ASSERT_EQ(high.agent->state(), AgentState::kGranted);
  ASSERT_EQ(low.agent->state(), AgentState::kSuspended);

  ASSERT_TRUE(high.agent->leave());
  w.run_for(2.0);
  EXPECT_EQ(high.agent->state(), AgentState::kIdle);
  EXPECT_FALSE(w.registry.in_group(high.agent->member(), w.group));
  EXPECT_EQ(low.agent->state(), AgentState::kGranted);  // Media-Resumed
  EXPECT_EQ(low.resumed, 1);
  EXPECT_EQ(w.service.active_grants(), 1u);
  EXPECT_EQ(w.service.suspended_grants(), 0u);
  EXPECT_EQ(w.server.notifies_pending(), 0u);
}

// ----------------------------------------------- chaired groups on the wire

TEST(FloorServer, ChairedGroupOverTheWireReservesTheFloorForTheChair) {
  // The fp.request mode field, end to end: in a chaired group only the
  // chair's station gets a Grant; every other member is denied.
  ProtoWorld w(59, 0.0, Resource{1.0, 1.0, 1.0}, FcmMode::kChaired);
  auto& member = w.add_station("member", 5);
  auto& chair_station =
      w.add_station("chair-station", 0, {Duration::millis(120), 200}, w.chair);
  ASSERT_TRUE(member.agent->join());
  ASSERT_TRUE(chair_station.agent->join());
  w.run_for(1.0);

  member.agent->request_floor(media::QosRequirement{0.1, 0.1, 0.1});
  w.run_for(1.0);
  EXPECT_EQ(member.agent->state(), AgentState::kJoined);  // bounced
  EXPECT_EQ(member.denied, 1);
  EXPECT_EQ(w.service.active_grants(), 0u);

  chair_station.agent->request_floor(media::QosRequirement{0.1, 0.1, 0.1});
  w.run_for(1.0);
  EXPECT_EQ(chair_station.agent->state(), AgentState::kGranted);
  EXPECT_EQ(chair_station.granted, 1);
  EXPECT_EQ(w.service.active_grants(), 1u);
}

TEST(FloorAgent, RequestSideChairedModeBindsInAFreeAccessGroup) {
  // A station may *ask* for chaired arbitration: the carried mode field
  // must deny a non-chair requester even though the group is free-access.
  ProtoWorld w(61, 0.0);
  auto& s = w.add_station("a", 9);
  ASSERT_TRUE(s.agent->join());
  w.run_for(1.0);
  s.agent->request_floor(media::QosRequirement{0.1, 0.1, 0.1},
                         FcmMode::kChaired);
  w.run_for(1.0);
  EXPECT_EQ(s.agent->state(), AgentState::kJoined);
  EXPECT_EQ(s.denied, 1);
  EXPECT_EQ(w.service.active_grants(), 0u);
}

// --------------------------------------------- queueing groups on the wire

TEST(FloorServer, QueuedRequestIsParkedThenGrantedOnRelease) {
  ProtoWorld w(67, 0.0, Resource{1.0, 1.0, 1.0}, FcmMode::kFreeAccess,
               PolicyKind::kQueueing);
  auto& a = w.add_station("a", 1);
  auto& b = w.add_station("b", 1);
  ASSERT_TRUE(a.agent->join());
  ASSERT_TRUE(b.agent->join());
  w.run_for(1.0);

  a.agent->request_floor(media::QosRequirement{0.7, 0.7, 0.7});
  w.run_for(1.0);
  ASSERT_EQ(a.agent->state(), AgentState::kGranted);

  // b's equal-priority 0.7 cannot fit and cannot suspend: a three-regime
  // group would deny it — the queueing group parks it instead.
  b.agent->request_floor(media::QosRequirement{0.7, 0.7, 0.7});
  w.run_for(1.0);
  EXPECT_EQ(b.agent->state(), AgentState::kQueued);
  EXPECT_EQ(b.queued, 1);
  EXPECT_EQ(b.denied, 0);
  EXPECT_EQ(w.server.queued_sent(), 1u);
  EXPECT_EQ(w.service.queued_requests(), 1u);

  // a releases: the parked request is promoted and the Grant reaches b.
  ASSERT_TRUE(a.agent->release_floor());
  w.run_for(2.0);
  EXPECT_EQ(b.agent->state(), AgentState::kGranted);
  EXPECT_EQ(b.granted, 1);
  EXPECT_EQ(w.server.promotions_sent(), 1u);
  EXPECT_EQ(w.service.queued_requests(), 0u);
  // The whole exchange took exactly two arbitrations: no client-side retry
  // storm while waiting.
  EXPECT_EQ(w.server.requests_arbitrated(), 2u);

  // And the promoted grant releases cleanly.
  ASSERT_TRUE(b.agent->release_floor());
  w.run_for(1.0);
  EXPECT_EQ(b.agent->state(), AgentState::kJoined);
  EXPECT_EQ(w.service.active_grants(), 0u);
}

TEST(FloorServer, PromotionGrantSurvivesLossViaPolling) {
  // 35% loss each way: the queued reply, the polls and the promotion push
  // all get dropped sometimes. The client's request retransmission polls
  // the server's stored decision, so the promotion still converges, and
  // dedup keeps it to one arbitration per request id.
  ProtoWorld w(71, 0.35, Resource{1.0, 1.0, 1.0}, FcmMode::kFreeAccess,
               PolicyKind::kQueueing);
  auto& a = w.add_station("a", 1);
  auto& b = w.add_station("b", 1);
  ASSERT_TRUE(a.agent->join());
  ASSERT_TRUE(b.agent->join());
  w.run_for(10.0);
  ASSERT_EQ(a.agent->state(), AgentState::kJoined);
  ASSERT_EQ(b.agent->state(), AgentState::kJoined);

  a.agent->request_floor(media::QosRequirement{0.7, 0.7, 0.7});
  w.run_for(15.0);
  ASSERT_EQ(a.agent->state(), AgentState::kGranted);
  b.agent->request_floor(media::QosRequirement{0.7, 0.7, 0.7});
  w.run_for(15.0);
  ASSERT_EQ(b.agent->state(), AgentState::kQueued);
  EXPECT_EQ(b.queued, 1);  // the callback fires once, polls are suppressed

  ASSERT_TRUE(a.agent->release_floor());
  w.run_for(20.0);
  EXPECT_EQ(b.agent->state(), AgentState::kGranted);
  EXPECT_EQ(b.granted, 1);
  EXPECT_EQ(w.server.requests_arbitrated(), 2u);
  EXPECT_EQ(w.service.active_grants(), 1u);  // exactly b's grant
}

TEST(FloorAgent, SuspendOvertakingAPromotionGrantSynthesizesIt) {
  // The kPending overtake rule extends to kQueued: a Suspend for the
  // agent's parked request implies it was promoted (granted) — the agent
  // must surface on_granted then on_suspended, even though the promotion's
  // Grant push never arrived.
  ProtoWorld w(83, 0.0, Resource{1.0, 1.0, 1.0}, FcmMode::kFreeAccess,
               PolicyKind::kQueueing);
  auto& a = w.add_station("a", 1);
  auto& b = w.add_station("b", 1);
  ASSERT_TRUE(a.agent->join());
  ASSERT_TRUE(b.agent->join());
  w.run_for(1.0);
  a.agent->request_floor(media::QosRequirement{0.7, 0.7, 0.7});
  w.run_for(1.0);
  ASSERT_EQ(a.agent->state(), AgentState::kGranted);
  const auto id = b.agent->request_floor(media::QosRequirement{0.7, 0.7, 0.7});
  w.run_for(1.0);
  ASSERT_EQ(b.agent->state(), AgentState::kQueued);

  // Inject the Suspend as if it overtook the promotion Grant on the wire.
  w.network.send({w.server_node, b.node, wire_type(MsgKind::kSuspend),
                  fproto::encode(fproto::SuspendMsg{7, id})});
  w.run_for(1.0);
  EXPECT_EQ(b.agent->state(), AgentState::kSuspended);
  EXPECT_EQ(b.granted, 1);  // synthesized
  EXPECT_EQ(b.suspended, 1);
  // The late Grant push lands as a duplicate.
  w.network.send({w.server_node, b.node, wire_type(MsgKind::kGrant),
                  fproto::encode(fproto::GrantMsg{id, true, 0.3})});
  w.run_for(1.0);
  EXPECT_EQ(b.granted, 1);
  EXPECT_EQ(b.agent->state(), AgentState::kSuspended);
}

TEST(FloorAgent, LongQueueWaitDoesNotExhaustTheRetryBudget) {
  // The parked wait is open-ended but healthy: every poll gets a kQueued
  // replay, and each replay refreshes the retry budget. With max_tries 5
  // the agent would fail within ~0.5s if replays did not refresh it; the
  // promotion after 4s must still find it waiting.
  ProtoWorld w(89, 0.0, Resource{1.0, 1.0, 1.0}, FcmMode::kFreeAccess,
               PolicyKind::kQueueing);
  auto& a = w.add_station("a", 1);
  auto& b = w.add_station("b", 1, fproto::AgentConfig{Duration::millis(100), 5});
  ASSERT_TRUE(a.agent->join());
  ASSERT_TRUE(b.agent->join());
  w.run_for(1.0);
  a.agent->request_floor(media::QosRequirement{0.7, 0.7, 0.7});
  w.run_for(1.0);
  ASSERT_EQ(a.agent->state(), AgentState::kGranted);
  b.agent->request_floor(media::QosRequirement{0.7, 0.7, 0.7});
  w.run_for(4.0);  // ~40 polls against a budget of 5
  ASSERT_EQ(b.agent->state(), AgentState::kQueued);
  ASSERT_EQ(b.failed, 0);

  ASSERT_TRUE(a.agent->release_floor());
  w.run_for(2.0);
  EXPECT_EQ(b.agent->state(), AgentState::kGranted);
  EXPECT_EQ(b.granted, 1);
}

// ------------------------------------------------- one record per member

TEST(FloorServer, DecidedRecordsAgeOutAsTheMemberMovesOn) {
  // ROADMAP scale item: request/release churn must not grow the decided-
  // request memory. Each new request id from the same member proves it saw
  // every earlier reply, so the member's record keeps only the latest.
  ProtoWorld w(73, 0.0);
  auto& s = w.add_station("a", 1);
  ASSERT_TRUE(s.agent->join());
  w.run_for(1.0);
  for (int i = 0; i < 50; ++i) {
    s.agent->request_floor(media::QosRequirement{0.3, 0.3, 0.3});
    w.run_for(1.0);
    ASSERT_EQ(s.agent->state(), AgentState::kGranted);
    ASSERT_TRUE(s.agent->release_floor());
    w.run_for(1.0);
    ASSERT_EQ(s.agent->state(), AgentState::kJoined);
    // One record per member, holding only the latest request.
    EXPECT_EQ(w.server.decided_records(), 1u) << "iteration " << i;
  }
  EXPECT_EQ(w.server.requests_arbitrated(), 50u);
}

TEST(FloorServer, ResurrectedOldRequestIdIsRefusedWithoutArbitration) {
  // Once the member moved on, a stale retransmission of an *old* request id
  // (delayed in the network for ages) must not be re-arbitrated — deciding
  // it afresh could double-reserve the floor.
  ProtoWorld w(79, 0.0);
  auto& s = w.add_station("a", 1);
  ASSERT_TRUE(s.agent->join());
  w.run_for(1.0);

  const auto id1 = s.agent->request_floor(media::QosRequirement{0.3, 0.3, 0.3});
  w.run_for(1.0);
  ASSERT_EQ(s.agent->state(), AgentState::kGranted);
  ASSERT_TRUE(s.agent->release_floor());
  w.run_for(1.0);
  const auto id2 = s.agent->request_floor(media::QosRequirement{0.3, 0.3, 0.3});
  w.run_for(1.0);
  ASSERT_EQ(s.agent->state(), AgentState::kGranted);
  ASSERT_NE(id1, id2);
  ASSERT_EQ(w.server.requests_arbitrated(), 2u);

  // Replay the long-evicted first request.
  fproto::RequestMsg dup;
  dup.request_id = id1;
  dup.member = s.agent->member();
  dup.group = w.group;
  dup.host = w.host;
  dup.qos = media::QosRequirement{0.3, 0.3, 0.3};
  w.network.send({s.node, w.server_node, wire_type(MsgKind::kRequest),
                  fproto::encode(dup)});
  w.run_for(1.0);
  EXPECT_EQ(w.server.requests_arbitrated(), 2u);  // NOT re-arbitrated
  EXPECT_EQ(w.server.duplicate_requests(), 1u);
  EXPECT_EQ(w.service.active_grants(), 1u);  // id2's grant only
  EXPECT_EQ(s.agent->state(), AgentState::kGranted);  // the Deny replay is a dup
}

// ------------------------------------------- contract-breaking frames

/// A request frame as a station would send it, id and member chosen freely.
net::Payload raw_request(std::uint64_t request_id, MemberId member,
                         GroupId group, HostId host) {
  fproto::RequestMsg request;
  request.request_id = request_id;
  request.member = member;
  request.group = group;
  request.host = host;
  request.qos = media::QosRequirement{0.3, 0.3, 0.3};
  return fproto::encode(request);
}

/// What a refused frame must leave untouched: arbitrations, member records,
/// grants, parked requests and every datagram the server sent.
auto server_state(const ProtoWorld& w) {
  return std::make_tuple(w.server.requests_arbitrated(),
                         w.server.decided_records(), w.service.active_grants(),
                         w.service.queued_requests(), w.server.messages_sent());
}

/// Deliver one frame from `from` to the server and let it settle.
void inject(ProtoWorld& w, const ProtoWorld::Station& from, MsgKind kind,
            net::Payload ints) {
  w.network.send({from.node, w.server_node, wire_type(kind), std::move(ints)});
  w.run_for(1.0);
}

TEST(FloorServer, FrameWhoseIdNamesAnotherMemberIsRefused) {
  ProtoWorld w(91, 0.0);
  auto& s = w.add_station("a", 1);
  ASSERT_TRUE(s.agent->join());
  w.run_for(1.0);
  const MemberId member = s.agent->member();
  const std::uint64_t foreign_id =
      (static_cast<std::uint64_t>(member.value() + 1) << 32) | 1;
  const auto before = server_state(w);

  inject(w, s, MsgKind::kRequest,
         raw_request(foreign_id, member, w.group, w.host));
  EXPECT_EQ(server_state(w), before);
  inject(w, s, MsgKind::kRelease,
         fproto::encode(fproto::ReleaseMsg{foreign_id, member, w.group}));
  EXPECT_EQ(server_state(w), before);
}

TEST(FloorServer, FrameFromAnUnregisteredMemberIsRefused) {
  ProtoWorld w(93, 0.0);
  auto& s = w.add_station("a", 1);
  ASSERT_TRUE(s.agent->join());
  w.run_for(1.0);
  const MemberId stranger{999};
  ASSERT_FALSE(w.registry.has_member(stranger));
  const std::uint64_t id = (std::uint64_t{999} << 32) | 1;
  const auto before = server_state(w);

  inject(w, s, MsgKind::kRequest, raw_request(id, stranger, w.group, w.host));
  EXPECT_EQ(server_state(w), before);
  inject(w, s, MsgKind::kRelease,
         fproto::encode(fproto::ReleaseMsg{id, stranger, w.group}));
  EXPECT_EQ(server_state(w), before);
}

TEST(FloorServer, FloodOfUnregisteredMembersLeavesNoRecords) {
  // Spoofed member ids cost the server nothing it keeps: no record per
  // never-registered member, so the memory stays bounded by the registry.
  ProtoWorld w(95, 0.0);
  auto& s = w.add_station("a", 1);
  ASSERT_TRUE(s.agent->join());
  w.run_for(1.0);
  const auto before = server_state(w);
  for (std::uint32_t m = 1000; m < 3000; ++m) {
    w.network.send({s.node, w.server_node, wire_type(MsgKind::kRequest),
                    raw_request((std::uint64_t{m} << 32) | 1, MemberId{m},
                                w.group, w.host)});
  }
  w.run_for(1.0);
  EXPECT_EQ(server_state(w), before);
  EXPECT_EQ(w.server.decided_records(), 1u);  // the joined member only
}

TEST(FloorServer, ReleaseNamingAnotherGroupIsRefused) {
  ProtoWorld w(97, 0.0);
  auto& s = w.add_station("a", 1);
  const GroupId other = w.registry.create_group("other", FcmMode::kFreeAccess,
                                                w.chair);
  ASSERT_TRUE(s.agent->join());
  w.run_for(1.0);
  const auto id = s.agent->request_floor(media::QosRequirement{0.3, 0.3, 0.3});
  w.run_for(1.0);
  ASSERT_EQ(s.agent->state(), AgentState::kGranted);
  const auto before = server_state(w);

  inject(w, s, MsgKind::kRelease,
         fproto::encode(fproto::ReleaseMsg{id, s.agent->member(), other}));
  EXPECT_EQ(server_state(w), before);
  EXPECT_EQ(w.service.active_grants(), 1u);

  // The release naming the right group still gives the floor back.
  ASSERT_TRUE(s.agent->release_floor());
  w.run_for(1.0);
  EXPECT_EQ(s.agent->state(), AgentState::kJoined);
  EXPECT_EQ(w.service.active_grants(), 0u);
}

TEST(FloorServer, NewRequestWhileHoldingIsRefusedAndLeaveStillReleases) {
  // A member breaking one-operation-at-a-time: a second request while its
  // first still holds. Arbitrating it would overwrite the only record of
  // the first grant; the server refuses it, so the grant stays tracked and
  // Leave gives it back.
  ProtoWorld w(99, 0.0);
  auto& s = w.add_station("a", 1);
  ASSERT_TRUE(s.agent->join());
  w.run_for(1.0);
  const auto id = s.agent->request_floor(media::QosRequirement{0.3, 0.3, 0.3});
  w.run_for(1.0);
  ASSERT_EQ(s.agent->state(), AgentState::kGranted);
  const auto before = server_state(w);

  inject(w, s, MsgKind::kRequest,
         raw_request(id + 1, s.agent->member(), w.group, w.host));
  EXPECT_EQ(server_state(w), before);

  ASSERT_TRUE(s.agent->leave());
  w.run_for(1.0);
  EXPECT_EQ(s.agent->state(), AgentState::kIdle);
  EXPECT_EQ(w.service.active_grants(), 0u);
}

TEST(FloorServer, NewRequestWhileParkedIsRefused) {
  ProtoWorld w(101, 0.0, Resource{1.0, 1.0, 1.0}, FcmMode::kFreeAccess,
               PolicyKind::kQueueing);
  auto& a = w.add_station("a", 1);
  auto& b = w.add_station("b", 1);
  ASSERT_TRUE(a.agent->join());
  ASSERT_TRUE(b.agent->join());
  w.run_for(1.0);
  a.agent->request_floor(media::QosRequirement{0.7, 0.7, 0.7});
  w.run_for(1.0);
  ASSERT_EQ(a.agent->state(), AgentState::kGranted);
  const auto id = b.agent->request_floor(media::QosRequirement{0.7, 0.7, 0.7});
  w.run_for(1.0);
  ASSERT_EQ(b.agent->state(), AgentState::kQueued);
  // b's polls keep the server sending; mute them so the check below sees
  // only what the injected frame causes, and inject it over a's uplink.
  w.network.set_link(b.node, w.server_node,
                     net::LinkQuality{Duration::millis(5), Duration::zero(), 1.0});
  w.run_for(1.0);
  const auto before = server_state(w);

  inject(w, a, MsgKind::kRequest,
         raw_request(id + 1, b.agent->member(), w.group, w.host));
  EXPECT_EQ(server_state(w), before);
  EXPECT_EQ(w.service.queued_requests(), 1u);
}

TEST(FloorAgent, ExponentialBackoffSendsFarFewerThanFixedDuringOutage) {
  // A total outage (loss 1.0 both ways) for three seconds, then a healed
  // link. Both schedules must converge to a grant once the link heals; the
  // backed-off agent must get there with strictly fewer datagrams — that is
  // the whole point of the satellite.
  const auto outage_run = [](double factor, Duration cap) {
    ProtoWorld w(31, 0.0);
    auto& s = w.add_station("a", 1,
                            fproto::AgentConfig{Duration::millis(50), 200,
                                                factor, cap});
    EXPECT_TRUE(s.agent->join());
    w.run_for(1.0);
    EXPECT_EQ(s.agent->state(), AgentState::kJoined);
    const auto sends_before = s.agent->messages_sent();

    const net::LinkQuality dead{Duration::millis(5), Duration::millis(2), 1.0};
    w.network.set_link(s.node, w.server_node, dead);
    w.network.set_link(w.server_node, s.node, dead);
    s.agent->request_floor(media::QosRequirement{0.4, 0.4, 0.4});
    w.run_for(3.0);
    EXPECT_EQ(s.agent->state(), AgentState::kPending);  // still trying

    const net::LinkQuality healed{Duration::millis(5), Duration::millis(2), 0.0};
    w.network.set_link(s.node, w.server_node, healed);
    w.network.set_link(w.server_node, s.node, healed);
    w.run_for(5.0);
    EXPECT_EQ(s.agent->state(), AgentState::kGranted);
    return s.agent->messages_sent() - sends_before;
  };

  // factor 1.0 = the old fixed-interval schedule; 2.0 doubles to a 1s cap.
  const auto fixed_sends = outage_run(1.0, Duration::millis(50));
  const auto backoff_sends = outage_run(2.0, Duration::seconds(1));
  EXPECT_GT(fixed_sends, 40u);  // ~20/s across a 3 s outage
  EXPECT_LT(backoff_sends, fixed_sends / 3);
  EXPECT_GE(backoff_sends, 5u);  // but it never went silent
}

}  // namespace
