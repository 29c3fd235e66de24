#include <gtest/gtest.h>

#include "clock/global_clock.hpp"
#include "docpn/docpn.hpp"
#include "docpn/engine.hpp"
#include "ocpn/schedule.hpp"
#include "net/sim_network.hpp"

namespace {

using namespace dmps;
using util::Duration;
using util::TimePoint;

/// The bench_docpn_vs_ocpn scenario, shrunk: intro(2s) -> body(10s) ->
/// outro(2s), user skips 2s into the body.
struct SkipWorld {
  sim::Simulator sim;
  net::SimNetwork network{sim, 5,
                          net::LinkQuality{Duration::millis(2), Duration::millis(1), 0.0}};
  net::NodeId server_node = network.add_node("server");
  net::NodeId client_node = network.add_node("client");
  net::Demux server_demux{network, server_node};
  net::Demux client_demux{network, client_node};
  clk::TrueClock server_clock{sim};
  clk::GlobalClockServer clock_server{server_demux, server_clock};
  clk::DriftClock local{sim, 50.0, Duration::zero()};
  clk::GlobalClockClient clock_client{client_demux, local, server_node,
                                      {Duration::millis(100), 8}};
  clk::AdmissionController admission{sim, clock_client};

  media::MediaLibrary lib;
  media::MediaId intro = lib.add("intro", media::MediaType::kImage, Duration::seconds(2));
  media::MediaId body = lib.add("body", media::MediaType::kVideo, Duration::seconds(10));
  media::MediaId outro = lib.add("outro", media::MediaType::kText, Duration::seconds(2));

  SkipWorld() {
    clock_client.start();
    sim.run_until(TimePoint::from_seconds(1.0));
  }

  docpn::Docpn make_model(bool priority_arcs) {
    ocpn::PresentationSpec spec;
    spec.set_root(spec.seq({spec.media(intro), spec.media(body), spec.media(outro)}));
    return docpn::Docpn(lib, std::move(spec), docpn::Docpn::Options{priority_arcs});
  }
};

struct RunResult {
  double reaction_s = -1;
  double makespan_s = -1;
  bool end_via_skip = false;
};

RunResult run_skip_case(bool priority_arcs) {
  SkipWorld w;
  auto model = w.make_model(priority_arcs);
  EXPECT_TRUE(model.add_skip(w.body));

  RunResult result;
  TimePoint skip_issued, t0;
  bool skipped = false;
  docpn::EngineEvents events;
  events.on_media_end = [&](media::MediaId m, TimePoint at, bool via_skip) {
    if (m == w.body && skipped && result.reaction_s < 0) {
      result.reaction_s = (at - skip_issued).to_seconds();
      result.end_via_skip = via_skip;
    }
  };
  events.on_finished = [&](TimePoint at) { result.makespan_s = (at - t0).to_seconds(); };

  docpn::DocpnEngine engine(w.sim, w.admission, model, events);
  t0 = w.sim.now();
  engine.start(t0);

  w.sim.run_until(t0 + Duration::seconds(4));  // 2s into the 10s body
  skip_issued = w.sim.now();
  skipped = true;
  EXPECT_TRUE(engine.skip(w.body));
  w.sim.run_until(t0 + Duration::seconds(60));
  EXPECT_TRUE(engine.finished());
  return result;
}

TEST(DocpnEngine, PriorityArcsMakeSkipImmediate) {
  const RunResult r = run_skip_case(true);
  EXPECT_GE(r.reaction_s, 0.0);
  EXPECT_LT(r.reaction_s, 0.05);  // fires synchronously inside skip()
  EXPECT_TRUE(r.end_via_skip);
  // Makespan collapses: 2 + 2 + 2 = ~6s instead of ~14s.
  EXPECT_NEAR(r.makespan_s, 6.0, 0.25);
}

TEST(DocpnEngine, WithoutPriorityArcsSkipWaitsForNaturalEnd) {
  const RunResult r = run_skip_case(false);
  // Skip issued 2s into a 10s body: reaction is the remaining 8s.
  EXPECT_NEAR(r.reaction_s, 8.0, 0.25);
  EXPECT_FALSE(r.end_via_skip);
  EXPECT_NEAR(r.makespan_s, 14.0, 0.25);
}

TEST(DocpnEngine, PlaysScheduleUnderGlobalClock) {
  SkipWorld w;
  auto model = w.make_model(true);
  std::vector<std::pair<std::string, double>> log;
  const TimePoint t0 = w.sim.now();
  docpn::EngineEvents events;
  events.on_media_start = [&](media::MediaId m, TimePoint at) {
    log.emplace_back("start:" + w.lib.get(m).name, (at - t0).to_seconds());
  };
  events.on_media_end = [&](media::MediaId m, TimePoint at, bool) {
    log.emplace_back("end:" + w.lib.get(m).name, (at - t0).to_seconds());
  };
  docpn::DocpnEngine engine(w.sim, w.admission, model, events);
  engine.start(t0);
  w.sim.run_until(t0 + Duration::seconds(60));

  ASSERT_EQ(log.size(), 6u);
  const char* expected[] = {"start:intro", "end:intro", "start:body",
                            "end:body",    "start:outro", "end:outro"};
  const double instants[] = {0, 2, 2, 12, 12, 14};
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(log[i].first, expected[i]);
    EXPECT_NEAR(log[i].second, instants[i], 0.1) << expected[i];
  }
}

TEST(DocpnEngine, PauseShiftsRemainingScheduleByTheSuspensionSpan) {
  // Pause 4s in (intro done, 2s into the 10s body), resume 5s later: every
  // remaining event lands exactly 5s late, nothing replays, nothing is lost.
  SkipWorld w;
  auto model = w.make_model(true);
  std::vector<std::pair<std::string, double>> log;
  const TimePoint t0 = w.sim.now();
  docpn::EngineEvents events;
  events.on_media_start = [&](media::MediaId m, TimePoint at) {
    log.emplace_back("start:" + w.lib.get(m).name, (at - t0).to_seconds());
  };
  events.on_media_end = [&](media::MediaId m, TimePoint at, bool) {
    log.emplace_back("end:" + w.lib.get(m).name, (at - t0).to_seconds());
  };
  docpn::DocpnEngine engine(w.sim, w.admission, model, events);
  engine.start(t0);

  w.sim.run_until(t0 + Duration::seconds(4));
  ASSERT_TRUE(engine.pause());
  EXPECT_TRUE(engine.paused());
  EXPECT_FALSE(engine.pause());        // idempotent-rejecting
  EXPECT_FALSE(engine.skip(w.body));   // no interaction while suspended
  const std::size_t events_at_pause = log.size();
  w.sim.run_until(t0 + Duration::seconds(9));
  EXPECT_EQ(log.size(), events_at_pause);  // nothing fires while paused

  ASSERT_TRUE(engine.resume());
  EXPECT_FALSE(engine.resume());  // not paused anymore
  w.sim.run_until(t0 + Duration::seconds(60));
  EXPECT_TRUE(engine.finished());

  ASSERT_EQ(log.size(), 6u);
  const char* expected[] = {"start:intro", "end:intro", "start:body",
                            "end:body",    "start:outro", "end:outro"};
  // Unsuspended instants are 0,2,2,12,12,14; everything after the pause at
  // t=4 shifts by the 5s suspension.
  const double instants[] = {0, 2, 2, 17, 17, 19};
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(log[i].first, expected[i]);
    EXPECT_NEAR(log[i].second, instants[i], 0.1) << expected[i];
  }
}

TEST(DocpnEngine, PauseBeforeStartAndAfterFinishIsRefused) {
  SkipWorld w;
  auto model = w.make_model(true);
  docpn::DocpnEngine engine(w.sim, w.admission, model, {});
  EXPECT_FALSE(engine.pause());  // not started
  engine.start(w.sim.now());
  w.sim.run_until(w.sim.now() + Duration::seconds(60));
  ASSERT_TRUE(engine.finished());
  EXPECT_FALSE(engine.pause());  // finished
}

TEST(Docpn, SkipRegistrationRules) {
  SkipWorld w;
  const auto unused = w.lib.add("unused", media::MediaType::kText,
                                Duration::seconds(1));  // in the library only
  auto model = w.make_model(true);
  EXPECT_TRUE(model.add_skip(w.body));
  EXPECT_FALSE(model.add_skip(w.body));  // already registered
  EXPECT_FALSE(model.add_skip(unused));  // not in this presentation
  EXPECT_TRUE(model.skippable(w.body));
  EXPECT_FALSE(model.skippable(w.intro));

  docpn::DocpnEngine engine(w.sim, w.admission, model, {});
  EXPECT_FALSE(engine.skip(w.intro));  // never registered
  EXPECT_FALSE(engine.skip(w.body));   // registered but not playing yet
}

TEST(Docpn, SkipSplicedNetHasNoStaticSchedule) {
  // After add_skip, done:body has two producers (end:body and skip:body):
  // compute_schedule must reject it loudly, not return a wrong schedule.
  SkipWorld w;
  auto model = w.make_model(true);
  ASSERT_TRUE(model.add_skip(w.body));
  EXPECT_THROW(ocpn::compute_schedule(model.compiled()), std::runtime_error);
}

TEST(DocpnEngine, DestroyedEngineIgnoresPendingWakeups) {
  // Destroy a mid-presentation engine, then keep the simulator (and the
  // admission controller's pending wake-up) running: nothing must fire
  // into the dead engine.
  SkipWorld w;
  auto model = w.make_model(true);
  int ends = 0;
  docpn::EngineEvents events;
  events.on_media_end = [&](media::MediaId, TimePoint, bool) { ++ends; };
  {
    docpn::DocpnEngine engine(w.sim, w.admission, model, events);
    engine.start(w.sim.now());
    w.sim.run_until(w.sim.now() + Duration::seconds(3));  // intro done, body playing
    EXPECT_EQ(ends, 1);
  }
  w.sim.run_until(w.sim.now() + Duration::seconds(60));
  EXPECT_EQ(ends, 1);  // no posthumous events
}

}  // namespace
