// SESSION — multi-client presentations over the fproto floor protocol: the
// first scenario where clock sync, DOCPN playout and FCM-Arbitrate run
// together over a lossy, asymmetric network.
//
// Scenario 1: sweep station count x loss rate. Each station joins, requests
// the floor (staggered), plays a DOCPN presentation when granted, pauses on
// Media-Suspend, resumes shifted on Media-Resume, and releases on finish.
// The invariant columns are the point: every issued request terminates
// (granted + denied == issued), every grant is released, and no agent is
// left with an operation in flight (stuck == 0) — at any loss rate. The
// retransmission cost of that guarantee shows up in retrans/dup columns.
//
// Scenario 2: protocol overhead vs loss at fixed fleet size — messages per
// completed playback and the share of traffic that is retransmission.
//
// Scenario 3: hosts x stations federation — floor state sharded by host
// behind a ShardedFloorService with one FloorServer endpoint per shard,
// stations homed round-robin, queueing discipline, hundreds of stations.
// Liveness is enforced the same way: zero stuck agents (agents parked in
// kQueued at horizon end are waiting, not stuck — they count separately).
//
// Micro: codec round-trip cost and a full small session per iteration.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench_common.hpp"
#include "session/presentation.hpp"

namespace {

using namespace dmps;
using util::Duration;

session::SessionConfig make_config(int stations, double loss, std::uint64_t seed) {
  session::SessionConfig config;
  config.seed = seed;
  config.stations = stations;
  config.loss = loss;
  config.qos = media::QosRequirement{0.22, 0.22, 0.22};
  config.media_len = Duration::seconds(4);
  config.request_stagger = Duration::millis(500);
  config.max_request_attempts = 12;
  config.retry_backoff = Duration::millis(1800);
  return config;
}

void sweep_scenario() {
  dmps::bench::table_header(
      "SESSION: stations x loss sweep (capacity 1.0, qos 0.22/station, "
      "asymmetric links)",
      "stations | loss_pct | requests | granted | denied | suspends | resumes "
      "| finished | retrans | dups | msgs | drop_pct | stuck");
  for (const int stations : {2, 4, 8, 12}) {
    for (const double loss : {0.0, 0.01, 0.05}) {
      session::Presentation presentation(
          make_config(stations, loss, 1000 + stations));
      const auto stats = presentation.run(Duration::seconds(180));
      const double drop_pct =
          stats.messages_sent == 0
              ? 0.0
              : 100.0 * static_cast<double>(stats.messages_dropped) /
                    static_cast<double>(stats.messages_sent);
      dmps::bench::row(
          "%8d | %8.1f | %8d | %7d | %6d | %8d | %7d | %8d | %7llu | %4llu | "
          "%4llu | %8.2f | %5d",
          stations, loss * 100.0, stats.requests_issued, stats.granted,
          stats.denied, stats.suspends, stats.resumes, stats.playbacks_finished,
          static_cast<unsigned long long>(stats.client_retransmits),
          static_cast<unsigned long long>(stats.duplicates_suppressed),
          static_cast<unsigned long long>(stats.messages_sent), drop_pct,
          stats.stuck_agents);
      // The protocol's liveness contract, enforced right here: a bench run
      // that strands a request or an agent is a regression, not a data
      // point.
      if (stats.stuck_agents != 0 ||
          stats.granted + stats.denied != stats.requests_issued ||
          stats.released != stats.granted || stats.notifies_pending != 0) {
        std::fprintf(stderr,
                     "SESSION invariant violated at stations=%d loss=%.2f\n",
                     stations, loss);
        std::abort();
      }
      // Double-entry bookkeeping check: registry instruments vs the per-
      // object counters they mirror.
      if (!presentation.counters_consistent()) {
        std::fprintf(stderr, "SESSION metrics inconsistent at stations=%d\n",
                     stations);
        std::abort();
      }
      char scenario[64];
      std::snprintf(scenario, sizeof(scenario), "sweep/s%d_loss%g", stations,
                    loss * 100.0);
      // Loss-free runs are pure functions of the seed: their fingerprints
      // gate in ci/bench_diff.py. Lossy ones are recorded for the report.
      dmps::bench::record_fingerprint(scenario, presentation.fingerprint(),
                                      loss == 0.0);
    }
  }
}

void overhead_scenario() {
  // `fp_msgs` counts only floor-protocol datagrams (clock-sync probes are
  // the steady background and would drown the trend).
  dmps::bench::table_header(
      "SESSION: floor-protocol overhead vs loss (8 stations)",
      "loss_pct | fp_msgs | fp_per_playback | retrans_share_pct | "
      "notify_retrans | arbitrations | dup_requests");
  for (const double loss : {0.0, 0.01, 0.02, 0.05, 0.10}) {
    session::Presentation presentation(make_config(8, loss, 77));
    const auto stats = presentation.run(Duration::seconds(240));
    const double per_playback =
        stats.playbacks_finished == 0
            ? 0.0
            : static_cast<double>(stats.floor_messages) / stats.playbacks_finished;
    const double retrans_share =
        stats.floor_messages == 0
            ? 0.0
            : 100.0 *
                  static_cast<double>(stats.client_retransmits +
                                      stats.notify_retransmits) /
                  static_cast<double>(stats.floor_messages);
    dmps::bench::row("%8.1f | %7llu | %15.1f | %17.2f | %14llu | %12llu | %12llu",
                     loss * 100.0,
                     static_cast<unsigned long long>(stats.floor_messages),
                     per_playback, retrans_share,
                     static_cast<unsigned long long>(stats.notify_retransmits),
                     static_cast<unsigned long long>(stats.server_arbitrations),
                     static_cast<unsigned long long>(stats.server_duplicate_requests));
  }
}

void federation_scenario() {
  // The millions-of-users direction, exercised end to end: every host
  // shard serves stations/hosts feeds of 0.22 against capacity 1.0 (4
  // concurrent per host), the queueing policy drains each shard's waves
  // in arrival order, and every playback must finish inside the horizon.
  dmps::bench::table_header(
      "SESSION: hosts x stations federation (sharded floor state, one "
      "endpoint per host, queueing policy, 1% loss)",
      "hosts | stations | requests | granted | queued | suspends | finished "
      "| waiting | stuck | fp_msgs | msgs | wall_ms");
  struct Case {
    int hosts;
    int stations;
  };
  for (const Case c : {Case{1, 48}, Case{4, 200}, Case{8, 200}, Case{16, 240}}) {
    session::SessionConfig config;
    config.seed = 4000 + c.hosts;
    config.stations = c.stations;
    config.hosts = c.hosts;
    config.loss = 0.01;
    config.policy = floorctl::PolicyKind::kQueueing;
    config.qos = media::QosRequirement{0.22, 0.22, 0.22};
    config.media_len = Duration::seconds(4);
    config.request_stagger = Duration::millis(40);
    config.max_request_attempts = 1;  // the queue serves, no retry budget
    const auto t0 = std::chrono::steady_clock::now();
    session::Presentation presentation(config);
    const auto stats = presentation.run(Duration::seconds(150));
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    dmps::bench::row(
        "%5d | %8d | %8d | %7d | %6d | %8d | %8d | %7d | %5d | %7llu | %8llu "
        "| %7.1f",
        c.hosts, c.stations, stats.requests_issued, stats.granted, stats.queued,
        stats.suspends, stats.playbacks_finished, stats.queued_waiting,
        stats.stuck_agents,
        static_cast<unsigned long long>(stats.floor_messages),
        static_cast<unsigned long long>(stats.messages_sent), wall_ms);
    // The federation liveness contract: nobody stuck, every request
    // terminated (or is still legitimately parked), every grant released
    // and played out.
    if (stats.stuck_agents != 0 ||
        stats.granted + stats.denied + stats.queued_waiting !=
            stats.requests_issued ||
        stats.released != stats.granted ||
        stats.playbacks_finished != stats.granted ||
        stats.notifies_pending != 0) {
      std::fprintf(stderr,
                   "SESSION federation invariant violated at hosts=%d "
                   "stations=%d\n",
                   c.hosts, c.stations);
      std::abort();
    }
    char scenario[64];
    std::snprintf(scenario, sizeof(scenario), "federation/h%d_s%d", c.hosts,
                  c.stations);
    dmps::bench::record_fingerprint(scenario, presentation.fingerprint(),
                                    /*deterministic=*/false);  // 1% loss
  }
}

void deterministic_federation_scenario(const std::string& trace_out) {
  // The regression anchor: a seeded, LOSS-FREE queueing federation. With
  // zero loss there are no retransmissions or duplicate paths, so the
  // event stream — and its fingerprint — is a pure function of the seed
  // and the arbitration policy: bit-identical across runs and compilers,
  // and gated in ci/bench_diff.py. This is also the scenario whose Chrome
  // trace CI archives (--trace-out).
  session::SessionConfig config;
  config.seed = 9001;
  config.stations = 96;
  config.hosts = 4;
  config.loss = 0.0;
  config.policy = floorctl::PolicyKind::kQueueing;
  config.qos = media::QosRequirement{0.22, 0.22, 0.22};
  config.media_len = Duration::seconds(4);
  config.request_stagger = Duration::millis(40);
  config.max_request_attempts = 1;
  session::Presentation presentation(config);
  const auto stats = presentation.run(Duration::seconds(120));
  if (stats.stuck_agents != 0 || stats.playbacks_finished != stats.granted ||
      !presentation.counters_consistent()) {
    std::fprintf(stderr, "SESSION deterministic federation violated\n");
    std::abort();
  }
  dmps::bench::record_fingerprint("federation/deterministic",
                                  presentation.fingerprint(),
                                  /*deterministic=*/true);
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write %s\n", trace_out.c_str());
    } else {
      presentation.tracer().write_chrome_trace(out);
      std::printf("wrote %s (chrome trace, %llu events retained, %llu "
                  "dropped)\n",
                  trace_out.c_str(),
                  static_cast<unsigned long long>(presentation.tracer().ring().size()),
                  static_cast<unsigned long long>(presentation.tracer().dropped()));
    }
  }
}

void BM_CodecRequestRoundTrip(benchmark::State& state) {
  fproto::RequestMsg request;
  request.request_id = (9ull << 32) | 1234;
  request.member = floorctl::MemberId{9};
  request.group = floorctl::GroupId{1};
  request.host = floorctl::HostId{1};
  request.qos = media::QosRequirement{0.22, 0.22, 0.22};
  const net::Message msg{net::NodeId{0}, net::NodeId{1},
                         wire_type(fproto::MsgKind::kRequest), fproto::encode(request)};
  for (auto _ : state) {
    auto decoded = fproto::decode_request(msg);
    benchmark::DoNotOptimize(decoded);
    auto encoded = fproto::encode(*decoded);
    benchmark::DoNotOptimize(encoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodecRequestRoundTrip);

void BM_SessionEndToEnd(benchmark::State& state) {
  // A complete 4-station, 2%-loss session per iteration: the end-to-end
  // cost of simulating join/sync/request/play/suspend/resume/release.
  for (auto _ : state) {
    session::Presentation presentation(make_config(4, 0.02, 5));
    const auto stats = presentation.run(Duration::seconds(60));
    benchmark::DoNotOptimize(stats.granted);
  }
}
BENCHMARK(BM_SessionEndToEnd)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_out = dmps::bench::take_trace_out(argc, argv);
  return dmps::bench::bench_main(argc, argv, "bench_session_multiclient", [&] {
    sweep_scenario();
    overhead_scenario();
    federation_scenario();
    deterministic_federation_scenario(trace_out);
  });
}
