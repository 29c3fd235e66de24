// dmps_loadgen: drive N FloorAgents through request/release cycles against
// a dmps_floord over real UDP, and report BENCH-style JSON.
//
// Every agent is a full fproto client — its own UDP socket, its own
// retransmission state machine with exponential backoff — all multiplexed
// on one epoll loop in this process. Each agent joins its group, then
// loops: request the floor, hold it briefly, release, request again. Once
// the measurement window closes the loadgen drains: no new requests, held
// floors released, and every agent must come to rest (terminated()) within
// the grace period — an agent that doesn't is *stuck*, the run's failure
// signal, and the exit code is nonzero.
//
//   dmps_loadgen --host 127.0.0.1 --port 4711 --agents 32 --duration 2
//                [--hosts 4 --groups 4 --name wire_loadgen]
//                [--spawn PATH/dmps_floord]
//
// Every agent talks to the daemon's one port. --spawn makes the loadgen
// own the daemon too: fork/exec the given dmps_floord with a matching
// topology, wait for its "listening on udp/P" line and aim the agents at
// P (so --port 0 lets the kernel pick it), run the load, SIGTERM it, and
// require a clean exit — and since the daemon dumps its metrics to
// --metrics-out on shutdown, the daemon's rx/tx batch-size histograms
// (where the batching actually pays, many clients on one socket) land in
// this bench's JSON next to the client-side ones.
//
// Output: scenario tables (and BENCH_<name>.json via bench_common.hpp)
// with grant-latency percentiles measured request→grant at the client,
// ops/s, retransmit and datagram counts, the stuck-agent total, and
// rx/tx batch-size histograms for both sides of the wire.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fproto/agent.hpp"
#include "fproto/codec.hpp"
#include "obs/registry.hpp"
#include "transport/udp.hpp"
#include "wire_common.hpp"

namespace {

using namespace dmps;
using util::Duration;
using util::TimePoint;

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 4711;
  int agents = 32;
  double duration_s = 2.0;
  double grace_s = 2.0;
  long hold_ms = 10;
  tools::WireTopology topology;
  std::string name = "wire_loadgen";
  std::string spawn;  // path to a dmps_floord to own; empty = external daemon
};

/// Where a spawned daemon dumps its metrics on shutdown (read back into the
/// BENCH json as the daemon-side batch histograms).
constexpr const char* kSpawnMetricsPath = "dmps_floord_metrics.json";

/// How long a spawned daemon may take to say it is listening.
constexpr std::chrono::milliseconds kSpawnReadyTimeout{5000};

/// A dmps_floord this loadgen owns, with the read end of its stderr.
struct Spawned {
  pid_t pid = -1;
  int stderr_fd = -1;
};

/// fork/exec a dmps_floord whose topology matches ours, its stderr on a
/// pipe; pid -1 when the pipe or the fork fails.
Spawned spawn_floord(const Options& opt) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return {};
  const pid_t pid = fork();
  if (pid == 0) {
    dup2(fds[1], STDERR_FILENO);  // the copy does not inherit O_CLOEXEC
    const std::string port = std::to_string(opt.port);
    const std::string hosts = std::to_string(opt.topology.hosts);
    const std::string groups = std::to_string(opt.topology.groups);
    const std::string members = std::to_string(opt.agents);
    execl(opt.spawn.c_str(), opt.spawn.c_str(), "--port", port.c_str(),
          "--hosts", hosts.c_str(), "--groups", groups.c_str(), "--members",
          members.c_str(), "--metrics-out", kSpawnMetricsPath,
          static_cast<char*>(nullptr));
    std::perror("dmps_loadgen: exec dmps_floord");
    _exit(127);
  }
  close(fds[1]);
  if (pid < 0) {
    close(fds[0]);
    return {};
  }
  return {pid, fds[0]};
}

/// Read the spawned daemon's stderr up to its ready line, relay it, and
/// return the port the line names. On EOF, or kSpawnReadyTimeout without
/// the line: kill the daemon, print what it said, and exit 1.
std::uint16_t await_ready(const Spawned& daemon) {
  static constexpr char kReady[] = "listening on udp/";
  const auto deadline = std::chrono::steady_clock::now() + kSpawnReadyTimeout;
  std::string said;
  for (;;) {
    const auto at = said.find(kReady);
    if (at != std::string::npos && said.find('\n', at) != std::string::npos) {
      std::fputs(said.c_str(), stderr);
      return static_cast<std::uint16_t>(std::strtoul(
          said.c_str() + at + sizeof(kReady) - 1, nullptr, 10));
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd readable{daemon.stderr_fd, POLLIN, 0};
    char chunk[512];
    ssize_t n = -1;
    if (left.count() > 0 &&
        poll(&readable, 1, static_cast<int>(left.count())) > 0) {
      n = read(daemon.stderr_fd, chunk, sizeof(chunk));
    }
    if (n <= 0) {
      kill(daemon.pid, SIGKILL);
      waitpid(daemon.pid, nullptr, 0);
      std::fprintf(stderr,
                   "%sdmps_loadgen: dmps_floord did not report listening\n",
                   said.c_str());
      std::exit(1);
    }
    said.append(chunk, static_cast<std::size_t>(n));
  }
}

/// Copy the daemon's remaining stderr to ours until it closes the pipe.
/// The daemon writes there only at startup and shutdown, so the pipe
/// cannot fill while the load runs.
void relay_until_eof(int fd) {
  char chunk[4096];
  ssize_t n;
  while ((n = read(fd, chunk, sizeof(chunk))) > 0) {
    std::fwrite(chunk, 1, static_cast<std::size_t>(n), stderr);
  }
  close(fd);
}

struct Client {
  std::unique_ptr<transport::UdpEndpoint> endpoint;
  std::unique_ptr<fproto::FloorAgent> agent;
  net::NodeId server;
  TimePoint requested_at;
  std::uint64_t ops = 0;
  std::uint64_t denies = 0;
  bool failed = false;
};

struct LoadRun {
  Options opt;
  transport::UdpLoop loop;
  obs::MetricsRegistry metrics;
  // dmps-lint: obs-register-begin — pack built with the LoadRun, before
  // any traffic flows.
  obs::WireInstruments wire{metrics};
  // dmps-lint: obs-register-end
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::int64_t> grant_latency_us;
  bool draining = false;

  void start_request(Client& c) {
    if (draining) return;
    c.requested_at = loop.now();
    c.agent->request_floor(media::QosRequirement{0.25, 0.25, 0.25});
  }
};

constexpr const char* kUsage =
    "usage: dmps_loadgen [--host 127.0.0.1] [--port 4711] [--agents 32]\n"
    "                    [--duration 2] [--grace 2] [--hold-ms 10]\n"
    "                    [--hosts 4] [--groups 4]\n"
    "                    [--name wire_loadgen] [--spawn PATH/dmps_floord]\n";

}  // namespace

int main(int argc, char** argv) {
  tools::check_flags(argc, argv, "dmps_loadgen",
                     {"--host", "--port", "--agents", "--duration", "--grace",
                      "--hold-ms", "--hosts", "--groups", "--name", "--spawn"},
                     kUsage);
  LoadRun run;
  Options& opt = run.opt;
  opt.host = tools::flag_string(argc, argv, "--host", opt.host.c_str());
  opt.spawn = tools::flag_string(argc, argv, "--spawn", "");
  // Port 0 is refused for an external daemon: agents would send to it and
  // all end stuck. A spawned daemon reports the port it bound.
  opt.port = tools::flag_port(argc, argv, "dmps_loadgen",
                              opt.spawn.empty() ? 1 : 0, opt.port, kUsage);
  opt.agents = tools::flag_count(argc, argv, "dmps_loadgen", "--agents",
                                 opt.agents, kUsage);
  opt.duration_s = tools::flag_real_in_range(
      argc, argv, "dmps_loadgen", "--duration", 0.0, tools::Lowest::kExcluded,
      tools::kMaxRunSeconds, opt.duration_s, kUsage);
  opt.grace_s = tools::flag_real_in_range(
      argc, argv, "dmps_loadgen", "--grace", 0.0, tools::Lowest::kIncluded,
      tools::kMaxRunSeconds, opt.grace_s, kUsage);
  opt.hold_ms = tools::flag_in_range(
      argc, argv, "dmps_loadgen", "--hold-ms", 0,
      static_cast<long>(tools::kMaxRunSeconds) * 1000, opt.hold_ms, kUsage);
  opt.topology.hosts = tools::flag_count(argc, argv, "dmps_loadgen", "--hosts",
                                         opt.topology.hosts, kUsage);
  opt.topology.groups = tools::flag_count(argc, argv, "dmps_loadgen",
                                          "--groups", opt.topology.groups,
                                          kUsage);
  opt.name = tools::flag_string(argc, argv, "--name", opt.name.c_str());

  Spawned daemon;
  if (!opt.spawn.empty()) {
    daemon = spawn_floord(opt);
    if (daemon.pid < 0) {
      std::perror("dmps_loadgen: spawn dmps_floord");
      return 1;
    }
    opt.port = await_ready(daemon);
  }

  const transport::WireSchema schema = fproto::wire_schema();
  run.clients.reserve(static_cast<std::size_t>(opt.agents));
  run.grant_latency_us.reserve(4096);

  for (int i = 0; i < opt.agents; ++i) {
    auto client = std::make_unique<Client>();
    Client& c = *client;
    run.clients.push_back(std::move(client));
    c.endpoint = std::make_unique<transport::UdpEndpoint>(run.loop, schema,
                                                          0, &run.wire);
    c.server = c.endpoint->add_peer(opt.host, opt.port);

    fproto::AgentConfig config;
    config.retry = Duration::millis(40);
    config.max_tries = 200;
    config.retry_factor = 2.0;
    config.retry_cap = Duration::millis(500);
    config.obs = &run.wire;

    fproto::AgentEvents events;
    events.on_joined = [&run, &c] { run.start_request(c); };
    events.on_granted = [&run, &c](std::uint64_t, bool) {
      const std::int64_t us =
          (run.loop.now() - c.requested_at).raw_nanos() / 1000;
      run.grant_latency_us.push_back(us);
      run.wire.grant_latency_us.record(us);
      // Hold the floor briefly (creates real contention), then give it
      // back; during the drain, give it back immediately.
      const Duration hold =
          run.draining ? Duration::zero() : Duration::millis(run.opt.hold_ms);
      c.endpoint->schedule_in(hold, [&c] { c.agent->release_floor(); });
    };
    events.on_denied = [&run, &c](std::uint64_t, floorctl::Outcome) {
      ++c.denies;  // three-regime refusals are final: back off, try again
      if (!run.draining) {
        c.endpoint->schedule_in(Duration::millis(25),
                                [&run, &c] { run.start_request(c); });
      }
    };
    events.on_released = [&run, &c](std::uint64_t) {
      ++c.ops;
      run.start_request(c);
    };
    events.on_failed = [&c](fproto::AgentState) { c.failed = true; };

    c.agent = std::make_unique<fproto::FloorAgent>(
        *c.endpoint, c.server,
        floorctl::MemberId{
            static_cast<std::uint32_t>(opt.topology.member_of(i))},
        floorctl::GroupId{static_cast<std::uint32_t>(opt.topology.group_of(i))},
        floorctl::HostId{static_cast<std::uint32_t>(opt.topology.host_of(i))},
        config, events);
    c.agent->join();
  }
  run.metrics.freeze();

  // Measurement window.
  const TimePoint window_end =
      run.loop.now() + Duration::from_seconds(opt.duration_s);
  run.loop.run_while([&run, window_end] { return run.loop.now() < window_end; });
  const double measured_s = opt.duration_s;

  // Drain: stop the cycle, give back held floors, let in-flight operations
  // (and queued promotions) converge within the grace period.
  run.draining = true;
  for (const auto& client : run.clients) {
    const fproto::AgentState state = client->agent->state();
    if (state == fproto::AgentState::kGranted ||
        state == fproto::AgentState::kSuspended) {
      client->agent->release_floor();
    }
  }
  const TimePoint grace_end =
      run.loop.now() + Duration::from_seconds(opt.grace_s);
  const auto all_done = [&run] {
    for (const auto& client : run.clients) {
      if (!client->agent->terminated()) return false;
    }
    return true;
  };
  run.loop.run_while(
      [&] { return run.loop.now() < grace_end && !all_done(); });

  // Report.
  std::uint64_t ops = 0, retransmits = 0, denies = 0;
  int stuck = 0, failed = 0;
  for (const auto& client : run.clients) {
    ops += client->ops;
    denies += client->denies;
    retransmits += client->agent->retransmits();
    if (!client->agent->terminated()) ++stuck;
    if (client->failed) ++failed;
  }
  std::sort(run.grant_latency_us.begin(), run.grant_latency_us.end());
  const auto pct = [&run](double p) -> std::int64_t {
    if (run.grant_latency_us.empty()) return 0;
    const auto rank = static_cast<std::size_t>(
        p * static_cast<double>(run.grant_latency_us.size() - 1));
    return run.grant_latency_us[rank];
  };
  const auto value = [&run](const char* name) {
    return static_cast<long long>(run.metrics.value(name));
  };

  bench::table_header(
      "wire loadgen: fproto over real UDP loopback",
      "agents | window_s | ops | ops_per_s | grant_p50_us | grant_p90_us | "
      "grant_p99_us | denies | retransmits | tx_datagrams | rx_datagrams | "
      "drops | stuck | failed");
  bench::row(
      "%6d | %8.2f | %6llu | %9.0f | %12lld | %12lld | %12lld | %6llu | "
      "%11llu | %12lld | %12lld | %5lld | %5d | %6d",
      opt.agents, measured_s, static_cast<unsigned long long>(ops),
      static_cast<double>(ops) / measured_s, static_cast<long long>(pct(0.50)),
      static_cast<long long>(pct(0.90)), static_cast<long long>(pct(0.99)),
      static_cast<unsigned long long>(denies),
      static_cast<unsigned long long>(retransmits),
      value("wire.udp.tx_datagrams"), value("wire.udp.rx_datagrams"),
      value("wire.udp.drop_malformed") + value("wire.udp.drop_version") +
          value("wire.udp.drop_unknown_kind") +
          value("wire.udp.drop_unhandled"),
      stuck, failed);

  // Batch-size histograms, client side: one socket per agent, so the rx
  // mean hovers near 1 here — the daemon-side table below is where the
  // amortization shows.
  bench::table_header(
      "wire loadgen: client batch I/O (datagrams per syscall)",
      "dir | count | sum | mean | p50 | p90 | p99");
  const auto batch_row = [](const char* dir, long long count, long long sum,
                            double mean, long long p50, long long p90,
                            long long p99) {
    bench::row("%3s | %9lld | %9lld | %6.2f | %4lld | %4lld | %4lld", dir,
               count, sum, mean, p50, p90, p99);
  };
  const auto& rx = run.wire.udp_rx_batch;
  const auto& tx = run.wire.udp_tx_batch;
  batch_row("rx", static_cast<long long>(rx.count()),
            static_cast<long long>(rx.sum()),
            rx.count() > 0 ? static_cast<double>(rx.sum()) /
                                 static_cast<double>(rx.count())
                           : 0.0,
            rx.quantile(0.50), rx.quantile(0.90), rx.quantile(0.99));
  batch_row("tx", static_cast<long long>(tx.count()),
            static_cast<long long>(tx.sum()),
            tx.count() > 0 ? static_cast<double>(tx.sum()) /
                                 static_cast<double>(tx.count())
                           : 0.0,
            tx.quantile(0.50), tx.quantile(0.90), tx.quantile(0.99));

  // Spawned-daemon epilogue: a clean SIGTERM shutdown is part of the pass
  // criteria, and its --metrics-out dump carries the daemon-side batch
  // histograms (many agents on one socket) into this BENCH json.
  bool daemon_ok = true;
  if (daemon.pid > 0) {
    kill(daemon.pid, SIGTERM);
    relay_until_eof(daemon.stderr_fd);
    int status = 0;
    if (waitpid(daemon.pid, &status, 0) != daemon.pid ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "dmps_loadgen: dmps_floord did not exit cleanly\n");
      daemon_ok = false;
    }
    std::ifstream metrics_file(kSpawnMetricsPath);
    std::stringstream buffer;
    buffer << metrics_file.rdbuf();
    const std::string daemon_json = buffer.str();
    const tools::HistogramStats daemon_rx =
        tools::parse_histogram(daemon_json, "wire.udp.rx_batch");
    const tools::HistogramStats daemon_tx =
        tools::parse_histogram(daemon_json, "wire.udp.tx_batch");
    if (!daemon_rx.found || !daemon_tx.found) {
      std::fprintf(stderr, "dmps_loadgen: no batch histograms in %s\n",
                   kSpawnMetricsPath);
      daemon_ok = false;
    } else {
      bench::table_header(
          "wire loadgen: daemon batch I/O (datagrams per syscall)",
          "dir | count | sum | mean | p50 | p90 | p99");
      batch_row("rx", daemon_rx.count, daemon_rx.sum, daemon_rx.mean(),
                daemon_rx.p50, daemon_rx.p90, daemon_rx.p99);
      batch_row("tx", daemon_tx.count, daemon_tx.sum, daemon_tx.mean(),
                daemon_tx.p50, daemon_tx.p90, daemon_tx.p99);
    }
  }
  bench::write_json(opt.name, {});

  if (stuck > 0 || failed > 0 || !daemon_ok) {
    std::fprintf(stderr, "dmps_loadgen: %d stuck, %d failed agents%s\n", stuck,
                 failed, daemon_ok ? "" : ", daemon failure");
    return 1;
  }
  return 0;
}
