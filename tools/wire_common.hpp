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
// Every agent talks to the daemon's one UDP port, whatever its host.
// floord must be started with --members >= the loadgen's --agents and the
// same --hosts/--groups, or the daemon refuses the unknown ids (exactly as
// it would any stranger's datagram).

#include <cerrno>
#include <climits>
#include <cmath>
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

/// `name` as a whole number in [lowest, highest]; `fallback` when absent.
/// A value outside that range, or one that is not a whole number, prints
/// the offender and `usage` on stderr and exits 2 — a plain cast would wrap
/// it silently onto some other value.
inline long flag_in_range(int argc, char** argv, const char* program,
                          const char* name, long lowest, long highest,
                          long fallback, const char* usage) {
  const char* v = flag_value(argc, argv, name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno != 0 || value < lowest ||
      value > highest) {
    std::fprintf(stderr, "%s: %s must be in [%ld, %ld], got '%s'\n%s",
                 program, name, lowest, highest, v, usage);
    std::exit(2);
  }
  return value;
}

/// Whether a real-valued flag may equal the low end of its range.
enum class Lowest { kExcluded, kIncluded };

/// The longest run a time flag may ask for, in seconds: one day keeps every
/// window far inside the nanosecond clock's range.
inline constexpr double kMaxRunSeconds = 86400.0;

/// `name` as a finite real number from `lowest` (excluded or included) up
/// to `highest`; `fallback` when absent. A token that does not parse whole,
/// NaN, an infinity, or a value out of range prints the offender and
/// `usage` on stderr and exits 2 — unchecked, strtod reads "x" as 0 and
/// lets "-1" through as a capacity that refuses every request.
inline double flag_real_in_range(int argc, char** argv, const char* program,
                                 const char* name, double lowest,
                                 Lowest low, double highest, double fallback,
                                 const char* usage) {
  const char* v = flag_value(argc, argv, name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(v, &end);
  const bool above_low =
      low == Lowest::kIncluded ? value >= lowest : value > lowest;
  if (end == v || *end != '\0' || errno != 0 || !std::isfinite(value) ||
      !above_low || value > highest) {
    std::fprintf(stderr, "%s: %s must be a finite number in %c%g, %g], got "
                 "'%s'\n%s",
                 program, name, low == Lowest::kIncluded ? '[' : '(', lowest,
                 highest, v, usage);
    std::exit(2);
  }
  return value;
}

/// `--port` as a UDP port in [lowest, 65535]; `fallback` when absent.
inline std::uint16_t flag_port(int argc, char** argv, const char* program,
                               long lowest, std::uint16_t fallback,
                               const char* usage) {
  return static_cast<std::uint16_t>(flag_in_range(
      argc, argv, program, "--port", lowest, 65535, fallback, usage));
}

/// A topology count (`--hosts`, `--groups`, `--members`, `--agents`): at
/// least 1. Zero hosts or groups would divide by zero in WireTopology, and
/// a negative count would size a vector.
inline int flag_count(int argc, char** argv, const char* program,
                      const char* name, int fallback, const char* usage) {
  return static_cast<int>(
      flag_in_range(argc, argv, program, name, 1, INT_MAX, fallback, usage));
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

  int member_of(int agent) const { return 1 + agent; }
  int group_of(int agent) const { return agent % groups; }
  int host_of(int agent) const { return 1 + agent % hosts; }
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
