#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/sim_network.hpp"

namespace {

using namespace dmps;
using util::Duration;
using util::TimePoint;

struct NetFixture : ::testing::Test {
  sim::Simulator sim;
  net::SimNetwork network{sim, 99,
                          net::LinkQuality{Duration::millis(4), Duration::millis(3), 0.0}};
  net::NodeId a = network.add_node("a");
  net::NodeId b = network.add_node("b");
  net::MsgType ping = net::msg_type("test.ping");
  net::MsgType pong = net::msg_type("test.pong");
  net::MsgType other = net::msg_type("test.other");
};

TEST_F(NetFixture, InterningIsIdempotentAndDense) {
  EXPECT_EQ(net::msg_type("test.ping"), ping);  // same name, same id
  EXPECT_NE(ping, pong);                        // distinct names, distinct ids
  EXPECT_EQ(net::msg_type_name(ping), "test.ping");
  EXPECT_EQ(net::msg_type_name(pong), "test.pong");
}

TEST_F(NetFixture, DeliversWithinLatencyPlusJitter) {
  net::Demux demux_b(network, b);
  double delivered_at = -1;
  ASSERT_TRUE(demux_b.on(ping, [&](const net::Message& msg) {
    EXPECT_EQ(msg.from, a);
    EXPECT_EQ(msg.ints.at(0), 7);
    delivered_at = sim.now().to_millis();
  }));
  network.send(net::Message{a, b, ping, {7}});
  EXPECT_EQ(sim.pending(), 1u);  // the delivery is a pending target event
  sim.run_until(TimePoint::from_seconds(1.0));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_GE(delivered_at, 4.0);
  EXPECT_LE(delivered_at, 7.0);
  EXPECT_EQ(network.delivered(), 1u);
}

TEST_F(NetFixture, DispatchesByTypeOnly) {
  net::Demux demux_b(network, b);
  int pings = 0, pongs = 0;
  ASSERT_TRUE(demux_b.on(ping, [&](const net::Message&) { ++pings; }));
  ASSERT_TRUE(demux_b.on(pong, [&](const net::Message&) { ++pongs; }));
  network.send(net::Message{a, b, ping, {}});
  network.send(net::Message{a, b, other, {}});
  network.send(net::Message{a, b, pong, {}});
  sim.run_until(TimePoint::from_seconds(1.0));
  EXPECT_EQ(pings, 1);
  EXPECT_EQ(pongs, 1);
}

TEST_F(NetFixture, LossyLinkDropsEverythingAtLossOne) {
  network.set_link(a, b, net::LinkQuality{Duration::millis(1), Duration::zero(), 1.0});
  net::Demux demux_b(network, b);
  int got = 0;
  ASSERT_TRUE(demux_b.on(ping, [&](const net::Message&) { ++got; }));
  for (int i = 0; i < 50; ++i) network.send(net::Message{a, b, ping, {}});
  sim.run_until(TimePoint::from_seconds(1.0));
  EXPECT_EQ(got, 0);
  EXPECT_EQ(network.dropped(), 50u);
  // The reverse direction keeps the default (lossless) link.
  net::Demux demux_a(network, a);
  ASSERT_TRUE(demux_a.on(ping, [&](const net::Message&) { ++got; }));
  network.send(net::Message{b, a, ping, {}});
  sim.run_until(TimePoint::from_seconds(2.0));
  EXPECT_EQ(got, 1);
}

TEST_F(NetFixture, LinkOverridesMatchAMapReference) {
  // 40 nodes give 1,600 ordered pairs. A seeded stream sets 900 distinct
  // ones, re-setting many on the way, while the table doubles from 16
  // slots to 2,048; link() must answer what a std::map of the calls says.
  std::vector<net::NodeId> nodes{a, b};
  while (nodes.size() < 40) {
    nodes.push_back(network.add_node("n" + std::to_string(nodes.size())));
  }
  // A quality is tagged by its latency in ns; the default link is 4 ms.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::int64_t> want;
  const auto matches = [&] {
    for (const net::NodeId from : nodes) {
      for (const net::NodeId to : nodes) {
        const auto it = want.find({from.value(), to.value()});
        const std::int64_t expect =
            it == want.end() ? Duration::millis(4).raw_nanos() : it->second;
        if (network.link(from, to).latency.raw_nanos() != expect) return false;
      }
    }
    return true;
  };
  ASSERT_TRUE(matches());  // no overrides yet: every pair is the default
  util::Rng rng(5);
  std::int64_t tag = 1;
  std::size_t overwrites = 0;
  while (want.size() < 900) {
    const net::NodeId from = nodes[rng.index(nodes.size())];
    const net::NodeId to = nodes[rng.index(nodes.size())];
    overwrites += want.count({from.value(), to.value()});
    want[{from.value(), to.value()}] = tag;
    network.set_link(from, to,
                     net::LinkQuality{Duration::nanos(tag), Duration::zero(), 0.0});
    if (++tag % 50 == 0) {
      ASSERT_TRUE(matches()) << want.size() << " overrides";
    }
  }
  EXPECT_TRUE(matches());
  EXPECT_GT(overwrites, 100u);
}

TEST_F(NetFixture, SetLinkRefusesUnknownNodes) {
  const net::LinkQuality q{Duration::millis(1), Duration::zero(), 0.0};
  EXPECT_THROW(network.set_link(a, net::NodeId(2), q), std::out_of_range);
  EXPECT_THROW(network.set_link(net::NodeId(), net::NodeId(), q), std::out_of_range);
  EXPECT_EQ(network.link(net::NodeId(), net::NodeId()).latency, Duration::millis(4));
}

TEST_F(NetFixture, MessageTypesHaveOneOwner) {
  net::Demux demux_b(network, b);
  int first = 0, second = 0;
  ASSERT_TRUE(demux_b.on(ping, [&](const net::Message&) { ++first; }));
  // A second registration for the same type is refused, not a silent clobber.
  EXPECT_FALSE(demux_b.on(ping, [&](const net::Message&) { ++second; }));
  network.send(net::Message{a, b, ping, {}});
  sim.run_until(TimePoint::from_seconds(1.0));
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 0);
  // off() frees the type for a new owner.
  demux_b.off(ping);
  ASSERT_TRUE(demux_b.on(ping, [&](const net::Message&) { ++second; }));
  network.send(net::Message{a, b, ping, {}});
  sim.run_until(TimePoint::from_seconds(2.0));
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST_F(NetFixture, NodeNames) {
  EXPECT_EQ(network.node_name(a), "a");
  EXPECT_EQ(network.node_name(b), "b");
  EXPECT_EQ(network.node_count(), 2u);
}

}  // namespace
