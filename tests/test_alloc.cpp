// The daemon's request, release and notify path allocates nothing once warm.
//
// One fproto::FloorServer in front of a ShardedFloorService, as dmps_floord
// runs them, behind a loopback net::Endpoint whose timers are a real
// TimerWheel. A seeded client drives it with op streams shaped like the
// benchmark's wire workloads:
//   light     — plain grants on hosts far from full;
//   contended — priorities 1-3, qos 0.15-0.35 on unit capacity: grants,
//               Media-Suspends and Media-Resumes, each acked;
//   churn     — queueing groups on unit capacity: parked requests,
//               promotions, and leave + rejoin pairs.
// After a warm-up, every message the server handles and every wheel
// advance is bracketed by the allocation counter this binary installs
// (src/util/counting_new.cpp, shared with bench_fcm_arbitrate), and the
// total must be zero. The client's own bookkeeping runs outside the
// brackets.
//
// Replacing operator new would fight a sanitizer's own allocator, so under
// sanitizers the counter is not installed and the tests skip.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "floor/group.hpp"
#include "floor/sharded_service.hpp"
#include "fproto/codec.hpp"
#include "fproto/server.hpp"
#include "net/endpoint.hpp"
#include "sim/simulator.hpp"
#include "transport/timer_wheel.hpp"
#include "util/alloc_probe.hpp"
#include "util/rng.hpp"
#include "util/sanitizers.hpp"
#include "util/slot_pool.hpp"

namespace {

using namespace dmps;
using floorctl::GroupId;
using floorctl::HostId;
using floorctl::MemberId;
using fproto::MsgKind;

/// The server's side of an in-process wire: handlers by message type,
/// replies into a preallocated outbox, timers on a real TimerWheel driven
/// by a manual clock. Every call into the server goes through deliver() or
/// advance(), which count the allocations made inside them.
class LoopbackEndpoint final : public net::Endpoint {
 public:
  static constexpr net::NodeId kServer{0};

  LoopbackEndpoint() {
    outbox_.reserve(4096);
    inbox_.reserve(4096);
  }

  bool on(net::MsgType type, Handler handler) override {
    if (type.value() >= handlers_.size()) handlers_.resize(type.value() + 1u);
    if (handlers_[type.value()]) return false;
    handlers_[type.value()] = std::move(handler);
    return true;
  }
  void off(net::MsgType type) override {
    if (type.value() < handlers_.size()) handlers_[type.value()] = nullptr;
  }
  void send(net::NodeId to, net::MsgType type, net::Payload ints) override {
    outbox_.push_back(net::Message{kServer, to, type, std::move(ints)});
  }
  net::TimerId schedule_in(util::Duration delay, std::function<void()> cb) override {
    return wheel_.schedule_at(now_ + delay, std::move(cb));
  }
  bool cancel(net::TimerId id) override { return wheel_.cancel(id); }
  util::TimePoint now() const override { return now_; }

  /// Hand one client message to the server's handler.
  void deliver(net::NodeId from, MsgKind kind, net::Payload ints) {
    const net::Message msg{from, kServer, fproto::wire_type(kind),
                           std::move(ints)};
    const std::uint64_t before = util::alloc_probe_count();
    handlers_.at(msg.type.value())(msg);
    allocs_ += util::alloc_probe_count() - before;
  }

  /// Move the clock on and fire the server's due timers.
  void advance(util::Duration by) {
    now_ = now_ + by;
    const std::uint64_t before = util::alloc_probe_count();
    wheel_.advance(now_);
    allocs_ += util::alloc_probe_count() - before;
  }

  /// The server's replies since the last call (the buffers swap, so the
  /// next deliver() writes into the other one).
  std::vector<net::Message>& take_outbox() {
    inbox_.clear();
    inbox_.swap(outbox_);
    return inbox_;
  }

  std::uint64_t allocs() const { return allocs_; }
  void reset_allocs() { allocs_ = 0; }

 private:
  std::vector<Handler> handlers_;
  std::vector<net::Message> outbox_;
  std::vector<net::Message> inbox_;
  transport::TimerWheel wheel_;
  util::TimePoint now_ = util::TimePoint::zero();
  std::uint64_t allocs_ = 0;
};

struct Shape {
  int agents;
  int hosts;
  int groups;
  floorctl::PolicyKind policy;
  double capacity;
  double qos_lo;
  double qos_hi;
  double churn;  // share of idle agents' ops that are a leave + rejoin
};

/// The client half: one agent per member, one operation in flight each,
/// reacting to every reply the way fproto::FloorAgent does.
class Drive {
 public:
  explicit Drive(const Shape& shape)
      : shape_(shape),
        service_(registry_, clock_, resource::Thresholds{0.25, 0.05}) {
    const MemberId chair =
        registry_.add_member("moderator", 1'000'000, HostId{1});
    for (int g = 0; g < shape.groups; ++g) {
      groups_.push_back(registry_.create_group(
          "g" + std::to_string(g), floorctl::FcmMode::kFreeAccess, chair,
          shape.policy));
    }
    for (int i = 0; i < shape.agents; ++i) {
      Agent agent;
      agent.host = HostId{static_cast<std::uint32_t>(1 + i % shape.hosts)};
      agent.member = registry_.add_member("m" + std::to_string(i), 1 + i % 3,
                                          agent.host);
      agent.group = groups_[static_cast<std::size_t>(i % shape.groups)];
      agent.station = net::NodeId{static_cast<std::uint32_t>(1 + i)};
      agents_.push_back(agent);
    }
    for (int h = 0; h < shape.hosts; ++h) {
      service_.add_host(HostId{static_cast<std::uint32_t>(1 + h)},
                        resource::Resource{shape.capacity, shape.capacity,
                                           shape.capacity});
    }
    server_ = std::make_unique<fproto::FloorServer>(endpoint_, registry_,
                                                     service_,
                                                     fproto::ServerConfig{});
    for (Agent& agent : agents_) {
      endpoint_.deliver(agent.station, MsgKind::kJoin,
                        fproto::encode(fproto::JoinMsg{agent.member, agent.group}));
      drain();
    }
  }

  /// Run `ops` client operations, then release everything still held.
  void run(int ops) {
    for (int op = 0; op < ops; ++op) {
      step();
      endpoint_.advance(util::Duration::millis(1));
    }
  }

  LoopbackEndpoint& endpoint() { return endpoint_; }
  const fproto::FloorServer& server() const { return *server_; }
  const floorctl::ShardedFloorService& service() const { return service_; }
  std::uint64_t leaves() const { return leaves_; }

 private:
  enum class State { kIdle, kWaiting, kHeld, kQueued, kReleasing };
  struct Agent {
    MemberId member;
    GroupId group;
    HostId host;
    net::NodeId station;
    std::uint32_t seq = 0;
    std::uint64_t request_id = 0;
    State state = State::kIdle;
    std::size_t held_at = 0;  // index in held_ while kHeld
  };

  void step() {
    // Half the ops end a hold; the rest pick any agent. Agents run closed
    // loop, like the benchmark's: one whose release or rejoin completes
    // requests again at once.
    Agent& agent = !held_.empty() && rng_.chance(0.5)
                       ? agents_[held_[rng_.index(held_.size())]]
                       : agents_[rng_.index(agents_.size())];
    switch (agent.state) {
      case State::kIdle:
        if (rng_.chance(shape_.churn)) {
          leave_and_rejoin(agent);
        } else {
          request(agent);
        }
        break;
      case State::kHeld:
        release(agent);
        break;
      case State::kQueued:
        // A parked agent mostly waits for its promotion; now and then it
        // leaves, which dequeues it.
        if (rng_.chance(shape_.churn)) leave_and_rejoin(agent);
        break;
      case State::kWaiting:
      case State::kReleasing:
        break;  // replies arrive synchronously: never left waiting
    }
    drain();
    if (agent.state == State::kIdle) {
      request(agent);
      drain();
    }
  }

  void request(Agent& agent) {
    const double q = rng_.uniform(shape_.qos_lo, shape_.qos_hi);
    fproto::RequestMsg msg;
    msg.request_id =
        (static_cast<std::uint64_t>(agent.member.value()) << 32) | ++agent.seq;
    msg.member = agent.member;
    msg.group = agent.group;
    msg.host = agent.host;
    msg.qos = media::QosRequirement{q, q, q};
    agent.request_id = msg.request_id;
    set_state(agent, State::kWaiting);
    endpoint_.deliver(agent.station, MsgKind::kRequest, fproto::encode(msg));
  }

  void release(Agent& agent) {
    set_state(agent, State::kReleasing);
    endpoint_.deliver(
        agent.station, MsgKind::kRelease,
        fproto::encode(fproto::ReleaseMsg{agent.request_id, agent.member,
                                          agent.group}));
  }

  void leave_and_rejoin(Agent& agent) {
    // A leave gives back whatever the member holds or has parked.
    ++leaves_;
    set_state(agent, State::kIdle);
    endpoint_.deliver(agent.station, MsgKind::kLeave,
                      fproto::encode(fproto::LeaveMsg{agent.member, agent.group}));
    drain();
    endpoint_.deliver(agent.station, MsgKind::kJoin,
                      fproto::encode(fproto::JoinMsg{agent.member, agent.group}));
  }

  /// Move an agent to `state`, keeping held_ (the agents holding a floor)
  /// in step.
  void set_state(Agent& agent, State state) {
    if (agent.state == State::kHeld) {
      held_[agent.held_at] = held_.back();
      agents_[held_.back()].held_at = agent.held_at;
      held_.pop_back();
    }
    agent.state = state;
    if (state == State::kHeld) {
      agent.held_at = held_.size();
      held_.push_back(static_cast<std::size_t>(&agent - agents_.data()));
    }
  }

  Agent& agent_of(std::uint64_t request_id) {
    // Member 0 is the moderator; agent i is member i + 1.
    return agents_[static_cast<std::size_t>((request_id >> 32) - 1)];
  }

  /// React to the server's replies until it has nothing more to say.
  void drain() {
    for (;;) {
      std::vector<net::Message>& replies = endpoint_.take_outbox();
      if (replies.empty()) return;
      for (const net::Message& reply : replies) react(reply);
    }
  }

  void react(const net::Message& reply) {
    const auto kind = fproto::kind_of(reply.type);
    ASSERT_TRUE(kind.has_value());
    switch (*kind) {
      case MsgKind::kGrant: {
        Agent& agent = agent_of(fproto::decode_grant(reply)->request_id);
        if (agent.state == State::kWaiting || agent.state == State::kQueued) {
          set_state(agent, State::kHeld);
        }
        break;
      }
      case MsgKind::kDeny: {
        Agent& agent = agent_of(fproto::decode_deny(reply)->request_id);
        if (agent.state == State::kWaiting || agent.state == State::kQueued) {
          set_state(agent, State::kIdle);
        }
        break;
      }
      case MsgKind::kQueued: {
        Agent& agent = agent_of(fproto::decode_queued(reply)->request_id);
        if (agent.state == State::kWaiting) set_state(agent, State::kQueued);
        break;
      }
      case MsgKind::kReleaseAck: {
        Agent& agent = agent_of(fproto::decode_release_ack(reply)->request_id);
        if (agent.state == State::kReleasing) set_state(agent, State::kIdle);
        break;
      }
      case MsgKind::kSuspend: {
        // A suspended holder keeps its grant (and releases it later); the
        // station acks every notification.
        const auto suspend = fproto::decode_suspend(reply);
        endpoint_.deliver(reply.to, MsgKind::kSuspendAck,
                          fproto::encode(fproto::SuspendAckMsg{suspend->notify_id}));
        break;
      }
      case MsgKind::kResume: {
        const auto resume = fproto::decode_resume(reply);
        endpoint_.deliver(reply.to, MsgKind::kResumeAck,
                          fproto::encode(fproto::ResumeAckMsg{resume->notify_id}));
        break;
      }
      default:
        break;  // JoinAck / LeaveAck
    }
  }

  Shape shape_;
  sim::Simulator sim_;
  clk::TrueClock clock_{sim_};
  floorctl::GroupRegistry registry_;
  floorctl::ShardedFloorService service_;
  LoopbackEndpoint endpoint_;
  std::unique_ptr<fproto::FloorServer> server_;
  std::vector<GroupId> groups_;
  std::vector<Agent> agents_;
  std::vector<std::size_t> held_;  // agents in kHeld, by index
  util::Rng rng_{2027};
  std::uint64_t leaves_ = 0;
};

/// What the measured phase exercised, so a zero cannot come from a stream
/// that never reached the paths under test.
struct Tally {
  std::uint64_t arbitrations, grants, suspends, resumes, promotions, denies,
      queued, leaves;
};

Tally tally_of(const Drive& drive) {
  const fproto::FloorServer& s = drive.server();
  return Tally{s.requests_arbitrated(), s.grants_sent(),  s.suspends_sent(),
               s.resumes_sent(),        s.promotions_sent(), s.denies_sent(),
               s.queued_sent(),         drive.leaves()};
}

Tally measured(const Shape& shape, std::uint64_t* allocs) {
  Drive drive(shape);
  drive.run(30'000);  // warm-up: every pool and table sees its peak
  const Tally before = tally_of(drive);
  drive.endpoint().reset_allocs();
  drive.run(30'000);
  *allocs = drive.endpoint().allocs();
  const Tally after = tally_of(drive);
  return Tally{after.arbitrations - before.arbitrations,
               after.grants - before.grants,
               after.suspends - before.suspends,
               after.resumes - before.resumes,
               after.promotions - before.promotions,
               after.denies - before.denies,
               after.queued - before.queued,
               after.leaves - before.leaves};
}

#if defined(DMPS_SANITIZED)
#define DMPS_SKIP_UNDER_SANITIZERS() \
  GTEST_SKIP() << "the allocation counter is not installed under sanitizers"
#else
#define DMPS_SKIP_UNDER_SANITIZERS() (void)0
#endif

TEST(DaemonAllocations, LightPlainGrantsAllocateNothingAfterWarmUp) {
  DMPS_SKIP_UNDER_SANITIZERS();
  std::uint64_t allocs = 0;
  const Tally t = measured(Shape{256, 4, 4,
                                 floorctl::PolicyKind::kThreeRegime, 64.0,
                                 0.25, 0.25, 0.0},
                           &allocs);
  EXPECT_GT(t.grants, 10'000u);
  EXPECT_EQ(allocs, 0u) << "over " << t.arbitrations << " arbitrations";
}

TEST(DaemonAllocations, ContendedSuspendResumeAllocateNothingAfterWarmUp) {
  DMPS_SKIP_UNDER_SANITIZERS();
  std::uint64_t allocs = 0;
  const Tally t = measured(Shape{256, 4, 4,
                                 floorctl::PolicyKind::kThreeRegime, 1.0,
                                 0.15, 0.35, 0.0},
                           &allocs);
  EXPECT_GT(t.grants, 5'000u);
  EXPECT_GT(t.suspends, 1'000u);
  EXPECT_GT(t.resumes, 1'000u);
  EXPECT_GT(t.denies, 5'000u);
  EXPECT_EQ(allocs, 0u) << "over " << t.arbitrations << " arbitrations";
}

TEST(DaemonAllocations, ChurnQueueingAndRejoinsAllocateNothingAfterWarmUp) {
  DMPS_SKIP_UNDER_SANITIZERS();
  std::uint64_t allocs = 0;
  const Tally t = measured(Shape{2048, 4, 2,
                                 floorctl::PolicyKind::kQueueing, 1.0, 0.25,
                                 0.25, 0.125},
                           &allocs);
  EXPECT_GT(t.queued, 5'000u);
  EXPECT_GT(t.promotions, 5'000u);
  EXPECT_GT(t.leaves, 500u);
  EXPECT_EQ(allocs, 0u) << "over " << t.arbitrations << " arbitrations";
}

TEST(SlotPoolAllocations, WarmAcquireLinkUnlinkReleaseAllocatesNothing) {
  DMPS_SKIP_UNDER_SANITIZERS();
  // Up to 64 nodes live at once, linked at the head, the tail or after a
  // random live node, then unlinked and released in random order: the
  // cycle every pooled structure runs.
  using Pool = util::SlotPool<std::uint64_t>;
  Pool pool;
  Pool::List list;
  std::vector<std::uint32_t> held;
  held.reserve(64);
  util::Rng rng(30);
  std::uint64_t released = 0;
  std::uint64_t found = 0;  // released nodes whose id still found them
  const auto cycle = [&](int rounds) {
    for (int round = 0; round < rounds; ++round) {
      const std::size_t live = 1 + rng.index(64);
      while (held.size() < live) {
        const std::uint32_t slot = pool.acquire();
        pool[slot] = pool.id(slot);
        const std::size_t where = rng.index(3);
        if (where == 0 || held.empty()) {
          pool.push_back(list, slot);
        } else if (where == 1) {
          pool.insert_after(list, Pool::kNone, slot);
        } else {
          pool.insert_after(list, held[rng.index(held.size())], slot);
        }
        held.push_back(slot);
      }
      while (!held.empty()) {
        const std::size_t i = rng.index(held.size());
        const std::uint32_t slot = held[i];
        found += pool.find(pool[slot]) == slot ? 1 : 0;
        pool.unlink(list, slot);
        pool.release(slot);
        ++released;
        held[i] = held.back();
        held.pop_back();
      }
    }
  };
  const std::uint64_t cold = util::alloc_probe_count();
  cycle(200);  // warm-up: the pool reaches its peak of 64 nodes
  EXPECT_GT(util::alloc_probe_count() - cold, 0u);  // the counter is live
  const std::uint64_t before = util::alloc_probe_count();
  cycle(2'000);
  EXPECT_EQ(util::alloc_probe_count() - before, 0u);
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.slots(), 64u);
  EXPECT_EQ(found, released);
}

}  // namespace
