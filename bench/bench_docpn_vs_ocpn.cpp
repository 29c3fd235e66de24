// BASE-OCPN — the paper's central qualitative claim (§1): OCPN/XOPCN "do not
// deal with the schedule change caused by user interactions"; DOCPN's
// priority arcs fix that.
//
// Ablation: the same presentation, the same user pressing "skip" 20% into a
// media item. With priority arcs (DOCPN) the skip transition fires at once;
// without them (OCPN baseline) the skip can only take effect when the media
// token matures, i.e. at the media's natural end.
//
// Expected shape: DOCPN reaction latency ~= 0 regardless of media duration;
// OCPN reaction latency ~= 0.8 x duration, growing linearly. The whole-
// presentation makespan shows the same gap.

#include <algorithm>

#include "bench_common.hpp"
#include "clock/global_clock.hpp"
#include "docpn/docpn.hpp"
#include "docpn/engine.hpp"
#include "net/sim_network.hpp"

namespace {

using namespace dmps;
using util::Duration;
using util::TimePoint;

struct Result {
  double reaction_s = -1;   // skip issued -> media end event
  double makespan_s = -1;   // presentation start -> finished
};

Result run_case(bool priority_arcs, Duration media_duration) {
  sim::Simulator sim;
  net::SimNetwork network{sim, 5,
                          net::LinkQuality{Duration::millis(2), Duration::millis(1), 0.0}};
  const auto server_node = network.add_node("server");
  const auto client_node = network.add_node("client");
  net::Demux server_demux(network, server_node);
  net::Demux client_demux(network, client_node);
  clk::TrueClock server_clock(sim);
  clk::GlobalClockServer clock_server(server_demux, server_clock);
  clk::DriftClock local(sim, 50.0, Duration::zero());
  clk::GlobalClockClient clock_client(client_demux, local, server_node,
                                      {Duration::millis(100), 8});
  clk::AdmissionController admission(sim, clock_client);
  clock_client.start();
  sim.run_until(TimePoint::from_seconds(1.0));

  media::MediaLibrary lib;
  const auto intro = lib.add("intro", media::MediaType::kImage, Duration::seconds(2));
  const auto body = lib.add("body", media::MediaType::kVideo, media_duration);
  const auto outro = lib.add("outro", media::MediaType::kText, Duration::seconds(2));
  ocpn::PresentationSpec spec;
  spec.set_root(spec.seq({spec.media(intro), spec.media(body), spec.media(outro)}));

  docpn::Docpn model(lib, std::move(spec), docpn::Docpn::Options{priority_arcs});
  if (!model.add_skip(body)) return {};

  Result result;
  TimePoint skip_issued;
  bool skipped = false;
  TimePoint t0;
  docpn::EngineEvents events;
  events.on_media_end = [&](media::MediaId m, TimePoint at, bool) {
    if (m == body && skipped && result.reaction_s < 0) {
      result.reaction_s = (at - skip_issued).to_seconds();
    }
  };
  events.on_finished = [&](TimePoint at) { result.makespan_s = (at - t0).to_seconds(); };

  docpn::DocpnEngine engine(sim, admission, model, events);
  t0 = sim.now();
  engine.start(t0);

  // Skip 20% into the body media (which starts 2s in). Mark the skip as
  // issued *before* calling skip(): a priority fire happens synchronously
  // inside the call, and the end event must see the flag.
  const Duration into = Duration::from_seconds(media_duration.to_seconds() * 0.2);
  sim.run_until(t0 + Duration::seconds(2) + into);
  skip_issued = sim.now();
  skipped = true;
  if (!engine.skip(body)) skipped = false;
  sim.run_until(t0 + media_duration + Duration::seconds(60));
  return result;
}

void scenario() {
  dmps::bench::table_header(
      "BASE-OCPN ablation: user skips 20% into a media item",
      "media_s | docpn_react_s | ocpn_react_s | docpn_makespan_s | ocpn_makespan_s | react_speedup");
  for (const double dur_s : {2.0, 5.0, 10.0, 30.0, 120.0}) {
    const auto docpn = run_case(true, Duration::from_seconds(dur_s));
    const auto ocpn = run_case(false, Duration::from_seconds(dur_s));
    const double docpn_react = std::max(0.0, docpn.reaction_s);
    char speedup[32];
    if (docpn_react < 1e-3) {
      std::snprintf(speedup, sizeof(speedup), "immediate");
    } else {
      std::snprintf(speedup, sizeof(speedup), "%.1fx", ocpn.reaction_s / docpn_react);
    }
    dmps::bench::row("%7.0f | %13.3f | %12.3f | %16.2f | %15.2f | %12s", dur_s,
                docpn_react, ocpn.reaction_s, docpn.makespan_s, ocpn.makespan_s,
                speedup);
  }
}

void BM_SkipScenario(benchmark::State& state) {
  const bool priority = state.range(0) != 0;
  for (auto _ : state) {
    const auto r = run_case(priority, Duration::seconds(10));
    benchmark::DoNotOptimize(r.makespan_s);
  }
}
BENCHMARK(BM_SkipScenario)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return dmps::bench::bench_main(argc, argv, "bench_docpn_vs_ocpn", [&] {
    scenario();
  });
}
