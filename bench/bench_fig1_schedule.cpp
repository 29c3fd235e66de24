// FIG1 — the paper's Figure 1: a DOCPN presentation net (video + audio +
// image + text branches joining at synchronization transitions).
//
// Scenario part: build the Fig.-1-style presentation, print its schedule and
// synchronous sets, then sweep presentation size and report compile +
// schedule + sync-set times (expected near-linear in net size).
// Micro part: compile/schedule throughput at several sizes.

#include <chrono>

#include "bench_common.hpp"
#include "media/media.hpp"
#include "ocpn/compile.hpp"
#include "ocpn/schedule.hpp"
#include "ocpn/spec.hpp"
#include "petri/timed_engine.hpp"

namespace {

using namespace dmps;
using Clock = std::chrono::steady_clock;
using util::Duration;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// The presentation sketched in the paper's Fig. 1: an opening slide, then a
/// lecture segment where video and audio run in lock-step while slides and
/// captions cycle, closing with a summary text.
void fig1_presentation() {
  media::MediaLibrary lib;
  const auto title = lib.add("title-slide", media::MediaType::kSlide, Duration::seconds(5));
  const auto video = lib.add("lecture-video", media::MediaType::kVideo, Duration::seconds(60));
  const auto audio = lib.add("lecture-audio", media::MediaType::kAudio, Duration::seconds(60));
  const auto slide1 = lib.add("slide-1", media::MediaType::kSlide, Duration::seconds(30));
  const auto slide2 = lib.add("slide-2", media::MediaType::kSlide, Duration::seconds(30));
  const auto caption = lib.add("captions", media::MediaType::kText, Duration::seconds(60));
  const auto summary = lib.add("summary", media::MediaType::kText, Duration::seconds(10));

  ocpn::PresentationSpec spec;
  spec.set_root(spec.seq(
      {spec.media(title),
       spec.par({spec.media(video), spec.media(audio), spec.media(caption),
                 spec.seq({spec.media(slide1), spec.media(slide2)})}),
       spec.media(summary)}));

  const auto compiled = ocpn::compile(spec, lib);
  const auto schedule = ocpn::compute_schedule(compiled);
  const auto sets = ocpn::sync_sets(schedule);

  dmps::bench::table_header("FIG1 schedule (the paper's example presentation)",
                            "medium | start_s | end_s");
  for (const auto& item : schedule.items) {
    dmps::bench::row("%-14s | %7.1f | %6.1f", lib.get(item.medium).name.c_str(),
                item.start.to_seconds(), item.end.to_seconds());
  }
  dmps::bench::table_header("FIG1 synchronous sets", "start_s | media");
  for (const auto& s : sets) {
    std::string names;
    for (auto m : s.media) names += lib.get(m).name + " ";
    dmps::bench::row("%7.1f | %s", s.start.to_seconds(), names.c_str());
  }
}

/// A lecture of `sections` sections, each: par(video, audio, seq(2 slides)).
ocpn::PresentationSpec lecture_spec(media::MediaLibrary& lib, int sections) {
  ocpn::PresentationSpec spec;
  std::vector<ocpn::SpecNodeId> parts;
  for (int i = 0; i < sections; ++i) {
    const auto v = lib.add("v" + std::to_string(i), media::MediaType::kVideo,
                           Duration::seconds(60));
    const auto a = lib.add("a" + std::to_string(i), media::MediaType::kAudio,
                           Duration::seconds(60));
    const auto s1 = lib.add("s1-" + std::to_string(i), media::MediaType::kSlide,
                            Duration::seconds(30));
    const auto s2 = lib.add("s2-" + std::to_string(i), media::MediaType::kSlide,
                            Duration::seconds(30));
    parts.push_back(spec.par({spec.media(v), spec.media(a),
                              spec.seq({spec.media(s1), spec.media(s2)})}));
  }
  spec.set_root(spec.seq(std::move(parts)));
  return spec;
}

void size_sweep() {
  dmps::bench::table_header(
      "FIG1 scaling: compile + schedule + sync-sets vs presentation size",
      "sections | places | transitions | media | compile_ms | schedule_ms | syncsets_ms | syncsets");
  for (int sections : {4, 16, 64, 256, 1024}) {
    media::MediaLibrary lib;
    const auto spec = lecture_spec(lib, sections);

    auto t0 = Clock::now();
    const auto compiled = ocpn::compile(spec, lib);
    const double compile_ms = ms_since(t0);

    t0 = Clock::now();
    const auto schedule = ocpn::compute_schedule(compiled);
    const double schedule_ms = ms_since(t0);

    t0 = Clock::now();
    const auto sets = ocpn::sync_sets(schedule);
    const double sets_ms = ms_since(t0);

    dmps::bench::row("%8d | %6zu | %11zu | %5zu | %10.2f | %11.2f | %11.3f | %zu",
                sections, compiled.net.place_count(), compiled.net.transition_count(),
                schedule.items.size(), compile_ms, schedule_ms, sets_ms, sets.size());
  }
}

/// Ablation: the naive timed engine (re-evaluate every transition per step —
/// how the first version of this library worked) vs the shipped incremental
/// engine. Kept here, not in the library, purely to quantify the design
/// decision recorded in DESIGN.md §6.7.
struct NaiveEngine {
  const petri::Net& net;
  std::vector<std::vector<util::TimePoint>> tokens;
  util::TimePoint now;

  explicit NaiveEngine(const petri::Net& n) : net(n), tokens(n.place_count()) {}

  void put(petri::PlaceId p, util::TimePoint at) {
    const auto m = at + net.place(p).duration;
    auto& v = tokens[p.value()];
    v.insert(std::upper_bound(v.begin(), v.end(), m), m);
  }

  bool step() {
    std::optional<std::pair<util::TimePoint, petri::TransitionId>> best;
    for (auto t : net.transition_ids()) {
      const auto& arcs = net.inputs(t);
      if (arcs.empty()) continue;
      util::TimePoint at = now;
      bool ok = true;
      for (const auto& a : arcs) {
        const auto& v = tokens[a.place.value()];
        if (v.size() < a.weight) {
          ok = false;
          break;
        }
        at = std::max(at, v[a.weight - 1]);
      }
      if (ok && (!best || at < best->first)) best = {at, t};
    }
    if (!best) return false;
    now = best->first;
    for (const auto& a : net.inputs(best->second)) {
      auto& v = tokens[a.place.value()];
      v.erase(v.begin(), v.begin() + a.weight);
    }
    for (const auto& a : net.outputs(best->second)) {
      for (std::uint32_t i = 0; i < a.weight; ++i) put(a.place, now);
    }
    return true;
  }
};

void engine_ablation() {
  dmps::bench::table_header(
      "FIG1 ablation: incremental candidate-heap engine vs naive full rescan",
      "sections | places | incremental_ms | naive_ms | speedup");
  for (int sections : {16, 64, 256}) {
    media::MediaLibrary lib;
    const auto spec = lecture_spec(lib, sections);
    const auto compiled = ocpn::compile(spec, lib);

    auto t0 = Clock::now();
    petri::TimedEngine fast(compiled.net);
    fast.put_token(compiled.start_place, util::TimePoint::zero());
    fast.run();
    const double fast_ms = ms_since(t0);

    t0 = Clock::now();
    NaiveEngine slow(compiled.net);
    slow.put(compiled.start_place, util::TimePoint::zero());
    while (slow.step()) {
    }
    const double slow_ms = ms_since(t0);

    dmps::bench::row("%8d | %6zu | %14.2f | %8.2f | %6.1fx", sections,
                compiled.net.place_count(), fast_ms, slow_ms,
                fast_ms > 0 ? slow_ms / fast_ms : 0.0);
  }
}

void BM_CompileAndSchedule(benchmark::State& state) {
  const int sections = static_cast<int>(state.range(0));
  media::MediaLibrary lib;
  const auto spec = lecture_spec(lib, sections);
  for (auto _ : state) {
    auto compiled = ocpn::compile(spec, lib);
    auto schedule = ocpn::compute_schedule(compiled);
    benchmark::DoNotOptimize(schedule.items.data());
  }
  state.SetItemsProcessed(state.iterations() * sections * 4);  // media scheduled
}
BENCHMARK(BM_CompileAndSchedule)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_SyncSets(benchmark::State& state) {
  media::MediaLibrary lib;
  const auto spec = lecture_spec(lib, static_cast<int>(state.range(0)));
  const auto schedule = ocpn::compute_schedule(ocpn::compile(spec, lib));
  for (auto _ : state) {
    auto sets = ocpn::sync_sets(schedule);
    benchmark::DoNotOptimize(sets.data());
  }
}
BENCHMARK(BM_SyncSets)->Arg(64)->Arg(1024);

void BM_VerifyPresentation(benchmark::State& state) {
  media::MediaLibrary lib;
  const auto spec = lecture_spec(lib, static_cast<int>(state.range(0)));
  const auto compiled = ocpn::compile(spec, lib);
  for (auto _ : state) {
    auto ok = ocpn::verify_presentation(compiled);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_VerifyPresentation)->Arg(4)->Arg(16);

}  // namespace

int main(int argc, char** argv) {
  return dmps::bench::bench_main(argc, argv, "bench_fig1_schedule", [&] {
    fig1_presentation();
    size_sweep();
    engine_ablation();
  });
}
