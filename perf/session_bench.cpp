// dmps_perf session: the paper's presentation side, in process.
//
// A session::Presentation federates --stations stations over --hosts host
// shards (queueing policy, loss 0): clock sync, DOCPN playout and the
// floor protocol over SimTransport — no UDP anywhere, so a transport change
// predicts no change here. Each repetition builds a fresh Presentation
// (timed: setup) and runs it to --horizon-s of simulated time one simulated
// second at a time, until --seconds of wall time have passed. Loss-free runs
// are pure functions of the seed, so every repetition must reproduce the
// same fingerprint, and the k-th simulated second is the same work in every
// repetition. A slow spell of the host only ever adds time to that work, so
// its cost is its fastest wall time over the repetitions, which take turns
// on the allowed CPUs: one sample per simulated second. A repetition's CPU
// time is read the same way.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "perf.hpp"
#include "proc.hpp"
#include "session/presentation.hpp"
#include "wire_common.hpp"

namespace dmps::perf {

int run_session(int argc, char** argv) {
  using util::Duration;
  const auto seed = static_cast<std::uint64_t>(tools::flag_long(argc, argv, "--seed", 1));
  const double seconds = tools::flag_double(argc, argv, "--seconds", 10.0);
  const long horizon_s = tools::flag_long(argc, argv, "--horizon-s", 150);
  // At least two repetitions, so their fingerprints can be compared.
  constexpr long kMinReps = 2;

  session::SessionConfig config;
  config.seed = seed;
  config.stations = static_cast<int>(tools::flag_long(argc, argv, "--stations", 240));
  config.hosts = static_cast<int>(tools::flag_long(argc, argv, "--hosts", 16));
  config.loss = 0.0;
  config.policy = floorctl::PolicyKind::kQueueing;
  config.qos = media::QosRequirement{0.22, 0.22, 0.22};
  config.media_len = Duration::seconds(4);
  config.request_stagger = Duration::millis(40);
  config.max_request_attempts = 1;  // the queue serves; no retry budget

  std::vector<double> setup_s;
  std::vector<std::int64_t> step_min_ns(static_cast<std::size_t>(horizon_s),
                                        std::numeric_limits<std::int64_t>::max());
  std::vector<std::int64_t> step_sum_ns(static_cast<std::size_t>(horizon_s), 0);
  std::int64_t run_wall_ns = 0;
  std::int64_t rep_cpu_min_ns = std::numeric_limits<std::int64_t>::max();
  std::uint64_t delivered = 0, floor_messages = 0, arbitrations = 0;
  long long requests = 0, granted = 0, finished = 0, stuck = 0, waiting = 0;
  bool consistent = true, agree = true;
  std::uint64_t fingerprint = 0;
  // The program's own decide-time histogram (sampled 1 in 64), summed over
  // every repetition: its exact mean is the floor layer's time per decision.
  std::int64_t decide_count = 0, decide_sum_ns = 0;
  std::string metrics;  // one repetition's registry snapshot (all are equal)
  long reps = 0;
  long setup_rss_kb = 0;
  // Each repetition runs on the next CPU, so the fastest repetitions come
  // from whichever CPU the host slowed down least (perf/README.md).
  const std::vector<int> cpus = allowed_cpus();
  const std::int64_t start = mono_ns();
  while (reps < kMinReps || mono_ns() - start < static_cast<std::int64_t>(seconds * 1e9)) {
    if (!cpus.empty()) pin_to_cpu(cpus[static_cast<std::size_t>(reps) % cpus.size()]);
    const std::int64_t t0 = mono_ns();
    session::Presentation presentation(config);
    const std::int64_t t1 = mono_ns();
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    if (reps == 0) setup_rss_kb = rss_kb(getpid());
    const std::int64_t cpu0 = thread_cpu_ns();
    for (std::size_t k = 0; k < step_min_ns.size(); ++k) {
      const std::int64_t ts = mono_ns();
      presentation.run(Duration::seconds(1));
      const std::int64_t step = mono_ns() - ts;
      step_min_ns[k] = std::min(step_min_ns[k], step);
      step_sum_ns[k] += step;
    }
    run_wall_ns += mono_ns() - t1;
    rep_cpu_min_ns = std::min(rep_cpu_min_ns, thread_cpu_ns() - cpu0);

    const session::SessionStats stats = presentation.stats();
    delivered += stats.messages_delivered;
    floor_messages += stats.floor_messages;
    arbitrations += stats.server_arbitrations;
    requests += stats.requests_issued;
    granted += stats.granted;
    finished += stats.playbacks_finished;
    stuck += stats.stuck_agents;
    waiting += stats.queued_waiting;
    consistent = consistent && presentation.counters_consistent();
    const obs::Histogram& decide = presentation.metrics().histogram("floor.decide_latency_ns");
    decide_count += decide.count();
    decide_sum_ns += decide.sum();
    if (reps == 0) {
      fingerprint = presentation.fingerprint();
      std::ostringstream snapshot;
      presentation.metrics().write_json(snapshot);
      metrics = snapshot.str();
    }
    agree = agree && presentation.fingerprint() == fingerprint;
    ++reps;
  }

  std::vector<double> step_min(step_min_ns.begin(), step_min_ns.end());
  std::int64_t best_rep_ns = 0;
  for (const std::int64_t step : step_min_ns) best_rep_ns += step;
  std::vector<double> step_mean;
  for (const std::int64_t sum : step_sum_ns) {
    step_mean.push_back(static_cast<double>(sum) / static_cast<double>(reps));
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  char hex[24];
  std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, fingerprint);

  Json out;
  out.str("mode", "session")
      .integer("reps", reps)
      .integer("steps", static_cast<long long>(step_min.size()))
      .raw("setup_s", json_list(setup_s))
      .summary("step_min_us", summarize(step_min), 1e-3)
      .summary("step_mean_us", summarize(step_mean), 1e-3)
      .num("best_rep_s", static_cast<double>(best_rep_ns) / 1e9)
      .num("rep_cpu_min_s", static_cast<double>(rep_cpu_min_ns) / 1e9)
      .num("run_wall_s", static_cast<double>(run_wall_ns) / 1e9)
      .integer("messages_delivered", static_cast<long long>(delivered))
      .integer("floor_messages", static_cast<long long>(floor_messages))
      .integer("arbitrations", static_cast<long long>(arbitrations))
      .integer("requests", requests)
      .integer("granted", granted)
      .integer("playbacks_finished", finished)
      .integer("stuck", stuck)
      .integer("queued_waiting", waiting)
      .boolean("counters_consistent", consistent)
      .str("fingerprint", hex)
      .boolean("fingerprints_agree", agree)
      .integer("setup_rss_kb", setup_rss_kb)
      .integer("max_rss_kb", usage.ru_maxrss)
      .integer("decide_count", decide_count)
      .integer("decide_sum_ns", decide_sum_ns)
      .raw("metrics", metrics);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace dmps::perf
