// CLOCK — the paper's §3 global clock: "if the clock in client side is
// faster than global clock, the current transition will not fire until
// global clock arrives ... if slower ... fire without delay".
//
// Scenario 1: steady-state clock estimate error vs drift rate and sync
// period (expected: error grows with drift x period, floored by link
// asymmetry).
// Scenario 2: the admission rule — for a fast and a slow client firing the
// same global deadline, report how long each actually waited and the firing
// error against true global time (fast waits; slow fires immediately).

#include <cmath>

#include "bench_common.hpp"
#include "clock/global_clock.hpp"
#include "net/sim_network.hpp"

namespace {

using namespace dmps;
using util::Duration;
using util::TimePoint;

struct SyncWorld {
  sim::Simulator sim;
  net::SimNetwork network;
  net::NodeId server_node, client_node;
  net::Demux server_demux, client_demux;
  clk::TrueClock server_clock;
  clk::GlobalClockServer server;

  explicit SyncWorld(std::uint64_t seed)
      : network(sim, seed, net::LinkQuality{Duration::millis(4), Duration::millis(3), 0.0}),
        server_node(network.add_node("server")),
        client_node(network.add_node("client")),
        server_demux(network, server_node),
        client_demux(network, client_node),
        server_clock(sim),
        server(server_demux, server_clock) {}
};

void skew_scenario() {
  dmps::bench::table_header(
      "CLOCK: steady-state |global estimate error| vs drift and sync period",
      "drift_ppm | sync_period_s | mean_err_ms | max_err_ms");
  for (double drift : {0.0, 50.0, 200.0, 500.0}) {
    for (double period_s : {0.25, 1.0, 4.0}) {
      SyncWorld w(13);
      clk::DriftClock local(w.sim, drift, Duration::millis(37));
      clk::GlobalClockClient client(w.client_demux, local, w.server_node,
                                    {Duration::from_seconds(period_s), 8});
      client.start();
      w.sim.run_until(TimePoint::from_seconds(20.0));  // settle

      double sum = 0, worst = 0;
      const int samples = 200;
      for (int i = 0; i < samples; ++i) {
        w.sim.run_until(w.sim.now() + Duration::millis(100));
        const double err =
            std::abs((client.global_now() - w.sim.now()).to_seconds()) * 1000.0;
        sum += err;
        worst = std::max(worst, err);
      }
      dmps::bench::row("%9.0f | %13.2f | %11.3f | %10.3f", drift, period_s,
                  sum / samples, worst);
    }
  }
}

void admission_scenario() {
  // A transition is scheduled at global instant D (announced by the server).
  // A *naive* client treats its local clock as global and fires when the
  // local reading hits D: a fast clock fires early, a slow one late. The
  // paper's admission rule checks the synchronized global estimate instead:
  // the fast client "will not fire until global clock arrives" (it waits
  // beyond its local plan), the slow client fires "without delay" the moment
  // its late local plan comes due (global D already passed). Both land on D.
  dmps::bench::table_header(
      "CLOCK: paper's admission rule vs naive local firing (deadline D = now+2s)",
      "client      | phase_ms | naive_error_ms | admitted_error_ms | wait_beyond_local_plan_ms");
  struct Case {
    const char* name;
    double phase_ms;  // + = client clock runs ahead (fast)
  };
  for (const Case c : {Case{"fast(+80ms)", 80.0}, Case{"slow(-80ms)", -80.0},
                       Case{"in-sync", 0.0}}) {
    SyncWorld w(21);
    clk::DriftClock local(w.sim, 0.0, Duration::from_seconds(c.phase_ms / 1000.0));
    clk::GlobalClockClient client(w.client_demux, local, w.server_node,
                                  {Duration::millis(100), 8});
    client.start();
    w.sim.run_until(TimePoint::from_seconds(1.0));

    const TimePoint deadline = w.sim.now() + Duration::seconds(2);
    // Naive plan: fire when the local clock reads D. local = true + phase,
    // so that happens at true time D - phase.
    const double naive_error_ms = -c.phase_ms;
    // Local plan instant in true time (when a naive client would act):
    const TimePoint local_plan = deadline - Duration::from_seconds(c.phase_ms / 1000.0);

    clk::AdmissionController admission(w.sim, client);
    TimePoint fired_at;
    // The client consults admission at its local plan instant — exactly the
    // paper's situation: "my schedule says now; may I fire?"
    w.sim.run_until(local_plan);
    admission.admit(deadline, [&] { fired_at = w.sim.now(); });
    w.sim.run_until(TimePoint::from_seconds(20.0));

    dmps::bench::row("%-11s | %8.0f | %14.2f | %17.2f | %25.2f", c.name, c.phase_ms,
                naive_error_ms, (fired_at - deadline).to_millis(),
                (fired_at - local_plan).to_millis());
  }
}

void BM_SyncExchange(benchmark::State& state) {
  SyncWorld w(3);
  clk::DriftClock local(w.sim, 100.0, Duration::zero());
  clk::GlobalClockClient client(w.client_demux, local, w.server_node,
                                {Duration::millis(100), 8});
  for (auto _ : state) {
    client.sync_once();
    w.sim.run_until(w.sim.now() + Duration::millis(20));
    benchmark::DoNotOptimize(client.offset());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SyncExchange);

void BM_AdmissionAdmit(benchmark::State& state) {
  SyncWorld w(4);
  clk::DriftClock local(w.sim, 0.0, Duration::zero());
  clk::GlobalClockClient client(w.client_demux, local, w.server_node,
                                {Duration::millis(100), 8});
  client.start();
  w.sim.run_until(TimePoint::from_seconds(1.0));
  clk::AdmissionController admission(w.sim, client);
  for (auto _ : state) {
    admission.admit(w.sim.now() - Duration::millis(1), [] {});  // immediate path
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdmissionAdmit);

}  // namespace

int main(int argc, char** argv) {
  return dmps::bench::bench_main(argc, argv, "bench_clock_sync", [&] {
    skew_scenario();
    admission_scenario();
  });
}
