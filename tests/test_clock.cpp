#include <gtest/gtest.h>

#include <cmath>

#include "clock/global_clock.hpp"
#include "net/sim_network.hpp"

namespace {

using namespace dmps;
using util::Duration;
using util::TimePoint;

struct ClockWorld {
  sim::Simulator sim;
  net::SimNetwork network{sim, 17,
                          net::LinkQuality{Duration::millis(4), Duration::millis(3), 0.0}};
  net::NodeId server_node = network.add_node("server");
  net::NodeId client_node = network.add_node("client");
  net::Demux server_demux{network, server_node};
  net::Demux client_demux{network, client_node};
  clk::TrueClock server_clock{sim};
  clk::GlobalClockServer server{server_demux, server_clock};
};

TEST(DriftClock, AppliesPhaseAndRate) {
  sim::Simulator sim;
  clk::DriftClock clock(sim, 1000.0, Duration::millis(50));  // 1000 ppm fast
  sim.run_until(TimePoint::from_seconds(10.0));
  // local = 10s * 1.001 + 50ms = 10.060s
  EXPECT_NEAR(clock.now().to_seconds(), 10.060, 1e-9);
}

TEST(GlobalClockClient, OffsetConvergesDespiteDriftAndPhase) {
  ClockWorld w;
  clk::DriftClock local(w.sim, 200.0, Duration::millis(37));
  clk::GlobalClockClient client(w.client_demux, local, w.server_node,
                                {Duration::millis(250), 8});
  // Before any sync the estimate is just the local clock: ~37 ms off.
  w.sim.run_until(TimePoint::from_seconds(0.0));
  const double before_ms =
      std::abs((client.global_now() - w.sim.now()).to_millis());
  EXPECT_GT(before_ms, 30.0);

  client.start();
  w.sim.run_until(TimePoint::from_seconds(5.0));
  EXPECT_TRUE(client.synchronized());
  // Steady state: bounded by drift x period plus link asymmetry — a couple
  // of ms at worst for 200 ppm over 250 ms with 3 ms jitter.
  double worst_ms = 0;
  for (int i = 0; i < 50; ++i) {
    w.sim.run_until(w.sim.now() + Duration::millis(100));
    worst_ms = std::max(
        worst_ms, std::abs((client.global_now() - w.sim.now()).to_millis()));
  }
  EXPECT_LT(worst_ms, 5.0);
}

TEST(AdmissionController, FastClockWaitsForGlobalDeadline) {
  ClockWorld w;
  clk::DriftClock local(w.sim, 0.0, Duration::millis(80));  // reads 80 ms ahead
  clk::GlobalClockClient client(w.client_demux, local, w.server_node,
                                {Duration::millis(100), 8});
  client.start();
  w.sim.run_until(TimePoint::from_seconds(1.0));

  const TimePoint deadline = w.sim.now() + Duration::seconds(2);
  // A naive client fires when its local clock reads the deadline — 80 ms
  // early in true time. The admission rule must hold it until global D.
  const TimePoint local_plan = deadline - Duration::millis(80);
  clk::AdmissionController admission(w.sim, client);
  TimePoint fired_at;
  bool fired = false;
  w.sim.run_until(local_plan);
  admission.admit(deadline, [&] {
    fired = true;
    fired_at = w.sim.now();
  });
  EXPECT_FALSE(fired);  // held, not fired synchronously
  w.sim.run_until(TimePoint::from_seconds(10.0));
  ASSERT_TRUE(fired);
  EXPECT_LT(std::abs((fired_at - deadline).to_millis()), 10.0);
  EXPECT_GT((fired_at - local_plan).to_millis(), 60.0);  // waited ~80 ms
}

TEST(GlobalClockClient, StopCancelsPeriodicRounds) {
  ClockWorld w;
  clk::DriftClock local(w.sim, 0.0, Duration::zero());
  clk::GlobalClockClient client(w.client_demux, local, w.server_node,
                                {Duration::millis(100), 4});
  client.start();
  w.sim.run_until(TimePoint::from_seconds(1.0));
  const auto rounds_at_stop = client.rounds();
  EXPECT_GE(rounds_at_stop, 9u);
  client.stop();
  w.sim.run_until(TimePoint::from_seconds(5.0));
  EXPECT_EQ(client.rounds(), rounds_at_stop);  // no further rounds fired
  client.start();  // re-arming works
  w.sim.run_until(TimePoint::from_seconds(6.0));
  EXPECT_GT(client.rounds(), rounds_at_stop);
}

TEST(GlobalClockServer, IgnoresMalformedProbes) {
  ClockWorld w;
  w.client_demux.send(w.server_node, net::msg_type("clk.req"), {});       // no payload
  w.client_demux.send(w.server_node, net::msg_type("clk.req"), {1});      // cookie only
  w.sim.run_until(TimePoint::from_seconds(1.0));
  EXPECT_EQ(w.server.probes_answered(), 0u);
}

TEST(AdmissionController, CountersClassifyEachAdmitOnce) {
  ClockWorld w;
  clk::DriftClock local(w.sim, 0.0, Duration::zero());
  clk::GlobalClockClient client(w.client_demux, local, w.server_node,
                                {Duration::millis(100), 8});
  client.start();
  w.sim.run_until(TimePoint::from_seconds(1.0));
  clk::AdmissionController admission(w.sim, client);

  int fired = 0;
  admission.admit(w.sim.now() - Duration::millis(1), [&] { ++fired; });
  admission.admit(w.sim.now() + Duration::seconds(1), [&] { ++fired; });
  w.sim.run_until(TimePoint::from_seconds(10.0));
  EXPECT_EQ(fired, 2);
  // One immediate, one held — the held one's wake-up must not recount.
  EXPECT_EQ(admission.immediate_fires(), 1u);
  EXPECT_EQ(admission.held_fires(), 1u);
}

TEST(AdmissionController, SlowClockFiresWithoutDelay) {
  ClockWorld w;
  clk::DriftClock local(w.sim, 0.0, Duration::millis(-80));  // reads behind
  clk::GlobalClockClient client(w.client_demux, local, w.server_node,
                                {Duration::millis(100), 8});
  client.start();
  w.sim.run_until(TimePoint::from_seconds(1.0));

  const TimePoint deadline = w.sim.now() + Duration::seconds(2);
  const TimePoint local_plan = deadline + Duration::millis(80);  // late plan
  clk::AdmissionController admission(w.sim, client);
  bool fired = false;
  w.sim.run_until(local_plan);
  admission.admit(deadline, [&] {
    fired = true;
    // Global D already passed: must fire synchronously, with zero wait
    // beyond the (late) local plan instant.
    EXPECT_EQ(w.sim.now(), local_plan);
  });
  EXPECT_TRUE(fired);
  EXPECT_GE(admission.immediate_fires(), 1u);
}

}  // namespace
