// dmps_floord: the floor-control daemon — fproto::FloorServer on real UDP.
//
// One process, one thread, one epoll loop, one UDP port: a UdpEndpoint
// with one fproto::FloorServer in front of a ShardedFloorService
// (per-host resource managers, shared conference) through the
// floorctl::FloorControl seam. Members/groups/hosts are the topology
// convention in wire_common.hpp; clients (dmps_loadgen) learn nothing from
// the daemon but its address.
//
//   dmps_floord --port 4711 --hosts 4 --groups 4 --members 64
//               [--capacity 4.0 --policy queueing --metrics-out PATH]
//
// Signals (all handled on the loop via signalfd, never in handler
// context):
//   SIGUSR1        dump a metrics JSON snapshot (stdout, and --metrics-out
//                  when given)
//   SIGINT/SIGTERM graceful shutdown — stop the loop, release every
//                  outstanding grant (sweeping freed hosts), dump final
//                  metrics, check that nothing is left held, suspended or
//                  parked and that member records stay within one per
//                  registered member, exit 0 (1 when not).

#include <signal.h>
#include <sys/signalfd.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "floor/group.hpp"
#include "floor/sharded_service.hpp"
#include "fproto/codec.hpp"
#include "fproto/server.hpp"
#include "obs/registry.hpp"
#include "transport/udp.hpp"
#include "wire_common.hpp"

namespace {

using namespace dmps;

struct Options {
  std::uint16_t port = 4711;
  tools::WireTopology topology;
  int members = 64;
  double capacity = 4.0;
  floorctl::PolicyKind policy = floorctl::PolicyKind::kThreeRegime;
  std::string metrics_out;  // empty = stdout only
};

constexpr const char* kUsage =
    "usage: dmps_floord [--port 4711] [--hosts 4] [--groups 4]\n"
    "                   [--members 64] [--capacity 4.0]\n"
    "                   [--policy three_regime|queueing] [--metrics-out PATH]\n";

Options parse(int argc, char** argv) {
  tools::check_flags(argc, argv, "dmps_floord",
                     {"--port", "--hosts", "--groups", "--members",
                      "--capacity", "--policy", "--metrics-out"},
                     kUsage);
  Options opt;
  // 0 stays valid: the kernel picks the port (printed at startup).
  opt.port = tools::flag_port(argc, argv, "dmps_floord", 0, opt.port, kUsage);
  opt.topology.hosts = tools::flag_count(argc, argv, "dmps_floord", "--hosts",
                                         opt.topology.hosts, kUsage);
  opt.topology.groups = tools::flag_count(argc, argv, "dmps_floord",
                                          "--groups", opt.topology.groups,
                                          kUsage);
  opt.members = tools::flag_count(argc, argv, "dmps_floord", "--members",
                                  opt.members, kUsage);
  opt.capacity = tools::flag_real_in_range(
      argc, argv, "dmps_floord", "--capacity", 0.0, tools::Lowest::kExcluded,
      std::numeric_limits<double>::max(), opt.capacity, kUsage);
  opt.metrics_out = tools::flag_string(argc, argv, "--metrics-out", "");
  const std::string policy =
      tools::flag_string(argc, argv, "--policy", "three_regime");
  if (policy == "queueing") {
    opt.policy = floorctl::PolicyKind::kQueueing;
  } else if (policy != "three_regime") {
    std::fprintf(stderr, "dmps_floord: unknown --policy '%s' "
                         "(three_regime|queueing)\n", policy.c_str());
    std::exit(2);
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  obs::MetricsRegistry metrics;
  // dmps-lint: obs-register-begin — daemon startup, before the loop runs.
  obs::WireInstruments wire(metrics);
  obs::FloorInstruments floor(metrics);
  // dmps-lint: obs-register-end

  transport::UdpLoop loop;
  transport::LoopClock clock(loop);

  transport::UdpEndpoint endpoint(loop, fproto::wire_schema(), opt.port,
                                  &wire);

  // The conference, pre-registered; members join their groups over the
  // wire.
  floorctl::GroupRegistry registry;
  const floorctl::MemberId chair =
      registry.add_member("moderator", 1'000'000, floorctl::HostId{1});
  std::vector<floorctl::MemberId> members;
  members.reserve(static_cast<std::size_t>(opt.members));
  for (int i = 0; i < opt.members; ++i) {
    members.push_back(registry.add_member(
        "m" + std::to_string(i), 1 + (i % 3),
        floorctl::HostId{static_cast<std::uint32_t>(opt.topology.host_of(i))}));
  }
  std::vector<floorctl::GroupId> groups;
  groups.reserve(static_cast<std::size_t>(opt.topology.groups));
  for (int g = 0; g < opt.topology.groups; ++g) {
    groups.push_back(registry.create_group("g" + std::to_string(g),
                                           floorctl::FcmMode::kFreeAccess,
                                           chair, opt.policy));
  }

  // The per-host-sharded floor core: requests route by FloorRequest::host.
  floorctl::ShardedFloorService service(registry, clock,
                                        resource::Thresholds{0.25, 0.05});
  service.set_observability(&floor, nullptr);
  for (int h = 0; h < opt.topology.hosts; ++h) {
    service.add_host(floorctl::HostId{static_cast<std::uint32_t>(1 + h)},
                     resource::Resource{opt.capacity, opt.capacity, opt.capacity});
  }

  fproto::ServerConfig server_config;
  server_config.notify_retry = util::Duration::millis(100);
  server_config.obs = &wire;
  fproto::FloorServer server(endpoint, registry, service, server_config);

  // Live state, pulled only when a snapshot is written: nothing per datagram.
  // dmps-lint: obs-register-begin — before freeze(); everything the
  // callbacks read outlives the last dump.
  metrics.gauge_callback("floor.active_grants", [&service] {
    return static_cast<std::int64_t>(service.active_grants());
  });
  metrics.gauge_callback("floor.suspended_grants", [&service] {
    return static_cast<std::int64_t>(service.suspended_grants());
  });
  metrics.gauge_callback("floor.queued_requests", [&service] {
    return static_cast<std::int64_t>(service.queued_requests());
  });
  metrics.gauge_callback("wire.server.decided_records", [&server] {
    return static_cast<std::int64_t>(server.decided_records());
  });
  metrics.gauge_callback("wire.udp.peers", [&endpoint] {
    return static_cast<std::int64_t>(endpoint.peer_count());
  });
  // dmps-lint: obs-register-end

  metrics.freeze();  // setup done; hot-path registration is a bug from here

  const auto dump_metrics = [&] {
    metrics.write_json(std::cout);
    std::cout << '\n' << std::flush;  // the dump must reach its reader now
    if (!opt.metrics_out.empty()) {
      std::ofstream out(opt.metrics_out, std::ios::trunc);
      metrics.write_json(out);
      out << '\n';
    }
  };

  // Signals arrive as loop events: block them process-wide, read them from
  // a signalfd on the same epoll that serves datagrams.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  sigaddset(&mask, SIGUSR1);
  if (sigprocmask(SIG_BLOCK, &mask, nullptr) != 0) {
    std::perror("dmps_floord: sigprocmask");
    return 1;
  }
  const int signal_fd = signalfd(-1, &mask, SFD_NONBLOCK | SFD_CLOEXEC);
  if (signal_fd < 0) {
    std::perror("dmps_floord: signalfd");
    return 1;
  }
  loop.add_fd(signal_fd, [&] {
    signalfd_siginfo info;
    while (read(signal_fd, &info, sizeof(info)) == sizeof(info)) {
      if (info.ssi_signo == SIGUSR1) {
        dump_metrics();
      } else {
        loop.stop();
      }
    }
  });

  std::fprintf(stderr,
               "dmps_floord: listening on udp/%u (hosts=%d groups=%d "
               "members=%d capacity=%.2f policy=%s)\n",
               endpoint.local_port(), opt.topology.hosts, opt.topology.groups,
               opt.members, opt.capacity,
               std::string(to_string(opt.policy)).c_str());

  loop.run_while([] { return true; });

  // Graceful shutdown: give back everything still held or parked — the
  // release path sweeps every host it frees capacity on, promoting/
  // resuming whatever remains — then sweep each host once more so no
  // capacity is left stranded, and report the final counters.
  std::fprintf(stderr, "dmps_floord: shutting down, releasing grants\n");
  for (const floorctl::MemberId member : members) {
    for (const floorctl::GroupId group : groups) {
      service.release(member, group);
    }
  }
  for (int h = 0; h < opt.topology.hosts; ++h) {
    service.sweep(floorctl::HostId{static_cast<std::uint32_t>(1 + h)});
  }
  dump_metrics();
  close(signal_fd);

  // The drain invariant, checked rather than assumed: once every member
  // released everywhere and every host was swept, no grant, suspension or
  // parked request may survive. The final dump above still reaches its
  // reader either way.
  const std::pair<const char*, std::size_t> end_state[] = {
      {"active_grants", service.active_grants()},
      {"suspended_grants", service.suspended_grants()},
      {"queued_requests", service.queued_requests()},
  };
  int status = 0;
  for (const auto& [name, count] : end_state) {
    if (count == 0) continue;
    std::fprintf(stderr, "dmps_floord: unclean end state: %s=%zu\n", name,
                 count);
    status = 1;
  }
  // The server keeps one record per member it heard from (DESIGN §6.5a),
  // so the registered members (the chair included) bound them.
  const std::size_t records = server.decided_records();
  const std::size_t registered = members.size() + 1;
  if (records > registered) {
    std::fprintf(stderr,
                 "dmps_floord: unclean end state: decided_records=%zu > members=%zu\n",
                 records, registered);
    status = 1;
  }
  return status;
}
