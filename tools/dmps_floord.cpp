// dmps_floord: the floor-control daemon — fproto::FloorServer on real UDP.
//
// One process, one thread, one epoll loop — and N shards. Each shard is a
// UdpEndpoint bound to its own consecutive port (--port, --port+1, …) with
// its own fproto::FloorServer; all servers front one ShardedFloorService
// (per-host resource managers, shared conference) through the
// floorctl::FloorControl seam, so which port a request lands on never
// affects arbitration. Members/groups/hosts and the host→shard port map
// are the topology convention in wire_common.hpp; clients (dmps_loadgen)
// learn nothing from the daemon but its base address.
//
//   dmps_floord --port 4711 --shards 2 --hosts 4 --groups 4 --members 64
//               [--capacity 4.0 --policy queueing --metrics-out PATH]
//
// Signals (all handled on the loop via signalfd, never in handler
// context):
//   SIGUSR1        dump a metrics JSON snapshot (stdout, and --metrics-out
//                  when given)
//   SIGINT/SIGTERM graceful shutdown — stop the loop, release every
//                  outstanding grant (sweeping freed hosts), dump final
//                  metrics, check that nothing is left held, suspended or
//                  parked and that decided-request records stay within
//                  one per registered member, exit 0 (1 when not).

#include <signal.h>
#include <sys/signalfd.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
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
    "usage: dmps_floord [--port 4711] [--shards 1] [--hosts 4] [--groups 4]\n"
    "                   [--members 64] [--capacity 4.0]\n"
    "                   [--policy three_regime|queueing] [--metrics-out PATH]\n";

Options parse(int argc, char** argv) {
  tools::check_flags(argc, argv, "dmps_floord",
                     {"--port", "--shards", "--hosts", "--groups", "--members",
                      "--capacity", "--policy", "--metrics-out"},
                     kUsage);
  Options opt;
  // 0 stays valid: the kernel picks shard 0's port (printed at startup).
  opt.port = tools::flag_port(argc, argv, "dmps_floord", 0, opt.port, kUsage);
  opt.topology.hosts = static_cast<int>(
      tools::flag_long(argc, argv, "--hosts", opt.topology.hosts));
  opt.topology.groups = static_cast<int>(
      tools::flag_long(argc, argv, "--groups", opt.topology.groups));
  opt.topology.shards = static_cast<int>(
      tools::flag_long(argc, argv, "--shards", opt.topology.shards));
  opt.members =
      static_cast<int>(tools::flag_long(argc, argv, "--members", opt.members));
  opt.capacity = tools::flag_double(argc, argv, "--capacity", opt.capacity);
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
  if (opt.topology.shards < 1 || opt.topology.shards > opt.topology.hosts) {
    std::fprintf(stderr, "dmps_floord: --shards must be in [1, --hosts]\n");
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

  // One endpoint per shard on consecutive ports. Shard 0 binds --port
  // (0 = ephemeral); the rest follow its actual port, so `--port 0
  // --shards N` still yields a contiguous block.
  std::vector<std::unique_ptr<transport::UdpEndpoint>> endpoints;
  endpoints.reserve(static_cast<std::size_t>(opt.topology.shards));
  endpoints.push_back(std::make_unique<transport::UdpEndpoint>(
      loop, fproto::wire_schema(), opt.port, &wire));
  const std::uint16_t base_port = endpoints[0]->local_port();
  for (int s = 1; s < opt.topology.shards; ++s) {
    endpoints.push_back(std::make_unique<transport::UdpEndpoint>(
        loop, fproto::wire_schema(),
        static_cast<std::uint16_t>(base_port + s), &wire));
  }

  // The conference, pre-registered under one snapshot publish.
  floorctl::GroupRegistry registry;
  floorctl::MemberId chair;
  std::vector<floorctl::MemberId> members;
  std::vector<floorctl::GroupId> groups;
  {
    floorctl::GroupRegistry::Batch batch(registry);
    chair = registry.add_member("moderator", 1'000'000,
                                floorctl::HostId{1});
    members.reserve(static_cast<std::size_t>(opt.members));
    for (int i = 0; i < opt.members; ++i) {
      members.push_back(registry.add_member(
          "m" + std::to_string(i), 1 + (i % 3),
          floorctl::HostId{static_cast<std::uint32_t>(opt.topology.host_of(i))}));
    }
    groups.reserve(static_cast<std::size_t>(opt.topology.groups));
    for (int g = 0; g < opt.topology.groups; ++g) {
      groups.push_back(registry.create_group("g" + std::to_string(g),
                                             floorctl::FcmMode::kFreeAccess,
                                             chair, opt.policy));
    }
  }

  // One per-host-sharded floor core behind every endpoint: requests route
  // by FloorRequest::host no matter which port carried them, so arbitration
  // is identical at any shard count.
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
  // One FloorServer per shard endpoint. An agent always talks to the port
  // its host maps to (WireTopology::port_of), so its per-member protocol
  // state (request-id dedup, learned station) lives in exactly one server.
  std::vector<std::unique_ptr<fproto::FloorServer>> servers;
  servers.reserve(endpoints.size());
  for (auto& endpoint : endpoints) {
    servers.push_back(std::make_unique<fproto::FloorServer>(
        *endpoint, registry, service, server_config));
  }

  const auto decided_records = [&servers] {
    std::size_t records = 0;
    for (const auto& server : servers) records += server->decided_records();
    return records;
  };
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
  metrics.gauge_callback("wire.server.decided_records", [&decided_records] {
    return static_cast<std::int64_t>(decided_records());
  });
  metrics.gauge_callback("wire.udp.peers", [&endpoints] {
    std::size_t peers = 0;
    for (const auto& endpoint : endpoints) peers += endpoint->peer_count();
    return static_cast<std::int64_t>(peers);
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
               "dmps_floord: listening on udp/%u-%u (shards=%d hosts=%d "
               "groups=%d members=%d capacity=%.2f policy=%s)\n",
               base_port,
               static_cast<unsigned>(base_port + opt.topology.shards - 1),
               opt.topology.shards, opt.topology.hosts, opt.topology.groups,
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
  // A member's next request ages out its older records (DESIGN §6.5a), and
  // a member talks to one shard, so each registered member (the chair
  // included) keeps at most one.
  const std::size_t records = decided_records();
  const std::size_t registered = members.size() + 1;
  if (records > registered) {
    std::fprintf(stderr,
                 "dmps_floord: unclean end state: decided_records=%zu > members=%zu\n",
                 records, registered);
    status = 1;
  }
  return status;
}
