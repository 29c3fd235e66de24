#pragma once
// Conventions shared by dmps_floord and dmps_loadgen.
//
// The two binaries never exchange configuration — they only agree on this
// header. The topology convention maps a load generator's agent index onto
// the id spaces the daemon pre-registers:
//
//   member 0            the moderator (chairs every group, never requests)
//   member 1 + i        agent i            (priorities cycle 1..3)
//   group  i % groups   agent i's group    (groups minted in order, ids 0..)
//   host   1 + i % hosts  agent i's home station
//
// Sharding extends the map to ports (docs/OPERATIONS.md): a daemon started
// with --shards S binds S consecutive UDP ports (--port, --port+1, …), one
// endpoint per shard, and host h lives on shard (h - 1) % S — so an agent
// derives its daemon port from its own host id and nothing else. S = 1 is
// the unsharded daemon; hosts should be a multiple of shards or the load
// skews.
//
// floord must be started with --members >= the loadgen's --agents and the
// same --hosts/--groups/--shards, or the daemon refuses the unknown ids
// (exactly as it would any stranger's datagram) / agents knock on a port
// nobody bound.

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>

namespace dmps::tools {

/// Refuse a command line that holds anything but the `known` flags, each
/// taking one value (`--name value` or `--name=value`). `--help` prints
/// `usage` on stdout and exits 0. An unknown flag, a stray argument or a
/// flag whose value is missing prints the offender and `usage` on stderr
/// and exits 2. Call it first in main, so a typo never starts a run.
inline void check_flags(int argc, char** argv, const char* program,
                        std::initializer_list<const char*> known,
                        const char* usage) {
  const auto refuse = [&](const char* what, const char* arg) {
    std::fprintf(stderr, "%s: %s '%s'\n%s", program, what, arg, usage);
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0) {
      std::fputs(usage, stdout);
      std::exit(0);
    }
    const char* eq = std::strchr(arg, '=');
    const std::size_t len =
        eq != nullptr ? static_cast<std::size_t>(eq - arg) : std::strlen(arg);
    bool is_known = false;
    for (const char* name : known) {
      is_known |= std::strlen(name) == len && std::strncmp(arg, name, len) == 0;
    }
    if (std::strncmp(arg, "--", 2) != 0 || !is_known) {
      refuse("unknown flag", arg);
    }
    if (eq != nullptr) {
      if (eq[1] == '\0') refuse("missing value for", arg);
    } else if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
      refuse("missing value for", arg);
    } else {
      ++i;  // the value
    }
  }
}

/// `--name value` or `--name=value`; nullptr when absent.
inline const char* flag_value(int argc, char** argv, const char* name) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) != 0) continue;
    if (argv[i][len] == '=') return argv[i] + len + 1;
    if (argv[i][len] == '\0' && i + 1 < argc) return argv[i + 1];
  }
  return nullptr;
}

inline long flag_long(int argc, char** argv, const char* name, long fallback) {
  const char* v = flag_value(argc, argv, name);
  return v != nullptr ? std::strtol(v, nullptr, 10) : fallback;
}

/// `--port` as a UDP port in [lowest, 65535]; `fallback` when absent. A
/// value outside that range, or one that is not a whole number, prints the
/// offender and `usage` on stderr and exits 2 — a plain cast would wrap it
/// silently onto some other port.
inline std::uint16_t flag_port(int argc, char** argv, const char* program,
                               long lowest, std::uint16_t fallback,
                               const char* usage) {
  const char* v = flag_value(argc, argv, "--port");
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const long port = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno != 0 || port < lowest ||
      port > 65535) {
    std::fprintf(stderr, "%s: --port must be in [%ld, 65535], got '%s'\n%s",
                 program, lowest, v, usage);
    std::exit(2);
  }
  return static_cast<std::uint16_t>(port);
}

inline double flag_double(int argc, char** argv, const char* name,
                          double fallback) {
  const char* v = flag_value(argc, argv, name);
  return v != nullptr ? std::strtod(v, nullptr) : fallback;
}

inline std::string flag_string(int argc, char** argv, const char* name,
                               const char* fallback) {
  const char* v = flag_value(argc, argv, name);
  return std::string(v != nullptr ? v : fallback);
}

/// The shared id-space convention (see file header).
struct WireTopology {
  int hosts = 4;
  int groups = 4;
  int shards = 1;

  int member_of(int agent) const { return 1 + agent; }
  int group_of(int agent) const { return agent % groups; }
  int host_of(int agent) const { return 1 + agent % hosts; }

  /// Which of the daemon's endpoints serves `host` (0-based shard index).
  int shard_of_host(int host) const { return (host - 1) % shards; }
  /// The UDP port agent `agent` must talk to, given the daemon's base port.
  int port_of(int agent, int base_port) const {
    return base_port + shard_of_host(host_of(agent));
  }
};

/// One histogram as MetricsRegistry::write_json prints it. mean() is the
/// derived figure the batch-size acceptance gate reads (datagrams per
/// syscall).
struct HistogramStats {
  long long count = 0;
  long long sum = 0;
  long long p50 = 0;
  long long p90 = 0;
  long long p99 = 0;
  bool found = false;

  double mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
};

/// Extract one named histogram from a MetricsRegistry JSON snapshot (the
/// exact format write_json emits — this reads back our own dump, e.g. the
/// daemon's --metrics-out file, not arbitrary JSON).
inline HistogramStats parse_histogram(const std::string& json,
                                      const std::string& name) {
  HistogramStats stats;
  const std::string key = "\"" + name + "\":{";
  const auto at = json.find(key);
  if (at == std::string::npos) return stats;
  stats.found =
      std::sscanf(json.c_str() + at + key.size() - 1,
                  "{\"count\":%lld,\"sum\":%lld,\"p50\":%lld,\"p90\":%lld,"
                  "\"p99\":%lld",
                  &stats.count, &stats.sum, &stats.p50, &stats.p90,
                  &stats.p99) == 5;
  return stats;
}

}  // namespace dmps::tools
