#pragma once
// Shared helpers for the DMPS bench binaries.
//
// Every bench prints (a) a scenario table — the series the corresponding
// paper figure / algorithm would show — and then (b) google-benchmark micro
// rows for the hot paths involved. Scenario rows are pipe-separated so
// EXPERIMENTS.md can quote them directly.
//
// Everything printed through table_header()/row() is also recorded, and
// bench_main() writes BENCH_<name>.json into the working directory: the
// scenario tables as string-cell arrays plus one record per micro result.
// CI archives these files, so perf numbers accrue per PR instead of
// vanishing into the log.

#include <benchmark/benchmark.h>

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include <string>
#include <vector>

#include "util/sanitizers.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace benchmark {
// google-benchmark's --benchmark_list_tests, as Initialize() parsed it from
// the command line or the environment. The library defines it (a plain
// bool since 1.5); benchmark.h does not declare it.
extern bool FLAGS_benchmark_list_tests;
}  // namespace benchmark

// Stamped by the build (CMake: git rev-parse --short HEAD); "unknown" for
// builds outside a git checkout.
#ifndef DMPS_GIT_SHA
#define DMPS_GIT_SHA "unknown"
#endif

namespace dmps::bench {

/// Peak resident set size of this process so far, in kilobytes (0 where
/// getrusage is unavailable). Memory-diet scenarios record it next to their
/// timing rows, and write_json stamps it into every BENCH_*.json.
inline std::uint64_t peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss) / 1024;  // bytes there
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // kB on Linux
#endif
#else
  return 0;
#endif
}

struct ScenarioTable {
  std::string title;
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
};

/// One scenario's event-stream fingerprint (dmps::obs, DESIGN.md §7).
/// `deterministic` scenarios (seeded, loss-free) gate in ci/bench_diff.py:
/// a changed fingerprint there is a behavior change, not noise. Lossy or
/// thread-timing-dependent scenarios record theirs report-only.
struct Fingerprint {
  std::string scenario;
  std::uint64_t value = 0;
  bool deterministic = false;
};

namespace detail {

inline std::vector<ScenarioTable>& tables() {
  static std::vector<ScenarioTable> t;
  return t;
}

inline std::vector<Fingerprint>& fingerprints() {
  static std::vector<Fingerprint> f;
  return f;
}

/// Split a pipe-separated line into trimmed cells.
inline std::vector<std::string> split_cells(const std::string& line) {
  std::vector<std::string> cells;
  std::string::size_type start = 0;
  while (true) {
    const auto bar = line.find('|', start);
    std::string cell = line.substr(start, bar == std::string::npos
                                              ? std::string::npos
                                              : bar - start);
    const auto first = cell.find_first_not_of(" \t");
    const auto last = cell.find_last_not_of(" \t");
    cells.push_back(first == std::string::npos
                        ? std::string()
                        : cell.substr(first, last - first + 1));
    if (bar == std::string::npos) break;
    start = bar + 1;
  }
  return cells;
}

inline void json_escape(std::ostream& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
}

inline void write_string_array(std::ostream& out,
                               const std::vector<std::string>& cells) {
  out << '[';
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) out << ',';
    out << '"';
    json_escape(out, cells[i]);
    out << '"';
  }
  out << ']';
}

}  // namespace detail

/// Print the header line of a scenario table (and open it in the recorder).
inline void table_header(const std::string& title, const std::string& columns) {
  std::printf("\n=== %s ===\n%s\n", title.c_str(), columns.c_str());
  detail::tables().push_back(
      ScenarioTable{title, detail::split_cells(columns), {}});
}

/// Print one scenario row (printf-style) and record it in the open table.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 1, 2)))
#endif
inline void row(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  std::printf("%s\n", buf);
  if (!detail::tables().empty()) {
    detail::tables().back().rows.push_back(detail::split_cells(buf));
  }
}

/// Record one scenario's fingerprint for BENCH_<name>.json (printed too, so
/// a console run shows the values the gate will compare).
inline void record_fingerprint(const std::string& scenario, std::uint64_t value,
                               bool deterministic) {
  detail::fingerprints().push_back(Fingerprint{scenario, value, deterministic});
  std::printf("fingerprint %-32s %016llx%s\n", scenario.c_str(),
              static_cast<unsigned long long>(value),
              deterministic ? "" : "  (lossy: report-only)");
}

/// Strip a `--trace-out PATH` / `--trace-out=PATH` argument (ours, not
/// google-benchmark's) and return the path, empty when absent. Call before
/// bench_main so benchmark::Initialize never sees the flag.
inline std::string take_trace_out(int& argc, char** argv) {
  std::string path;
  int keep = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      path = argv[++i];
      continue;
    }
    if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      path = argv[i] + 12;
      continue;
    }
    argv[keep++] = argv[i];
  }
  argc = keep;
  return path;
}

/// One micro-benchmark result, captured off the console reporter.
struct MicroResult {
  std::string name;
  std::int64_t iterations = 0;
  double real_time = 0.0;
  double cpu_time = 0.0;
  std::string time_unit;
};

namespace detail {

/// Console output as usual, plus a record of every run for the JSON file.
class RecordingReporter : public ::benchmark::ConsoleReporter {
 public:
  std::vector<MicroResult> results;

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      results.push_back(MicroResult{run.benchmark_name(), run.iterations,
                                    run.GetAdjustedRealTime(),
                                    run.GetAdjustedCPUTime(),
                                    ::benchmark::GetTimeUnitString(run.time_unit)});
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

}  // namespace detail

/// Write BENCH_<name>.json: recorded scenario tables + micro results.
inline void write_json(const std::string& name,
                       const std::vector<MicroResult>& micro) {
  const std::string path = "BENCH_" + name + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"";
  detail::json_escape(out, name);
  // Machine context for the regression gate: RSS is report-only (never a
  // gate — see ci/bench_diff.py), hw_threads explains scaling-table shape.
  out << "\",\n  \"ru_maxrss_kb\": " << peak_rss_kb()
      << ",\n  \"hw_threads\": " << std::thread::hardware_concurrency();
  // Build provenance: what produced these numbers. bench_diff.py prints it
  // next to every comparison so a cross-compiler or cross-flag diff is
  // never mistaken for a regression.
  out << ",\n  \"provenance\": {\"git_sha\": \"";
  detail::json_escape(out, DMPS_GIT_SHA);
  out << "\", \"compiler\": \"";
#if defined(__clang_version__)
  detail::json_escape(out, std::string("clang ") + __clang_version__);
#elif defined(__VERSION__)
  detail::json_escape(out, __VERSION__);
#else
  out << "unknown";
#endif
  out << "\", \"sanitizer\": \"";
#if defined(DMPS_SANITIZER_THREAD)
  out << "thread";
#elif defined(DMPS_SANITIZER_ADDRESS)
  out << "address";
#else
  out << "none";
#endif
  out << "\", \"ndebug\": ";
#if defined(NDEBUG)
  out << "true";
#else
  out << "false";
#endif
  out << "}";
  // Scenario fingerprints as 16-hex-digit strings (JSON numbers lose
  // precision past 2^53; a hash must round-trip bit-exactly).
  out << ",\n  \"fingerprints\": [";
  const auto& prints = detail::fingerprints();
  for (std::size_t f = 0; f < prints.size(); ++f) {
    if (f != 0) out << ',';
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(prints[f].value));
    out << "\n    {\"scenario\": \"";
    detail::json_escape(out, prints[f].scenario);
    out << "\", \"value\": \"" << hex << "\", \"deterministic\": "
        << (prints[f].deterministic ? "true" : "false") << "}";
  }
  out << "\n  ],\n  \"tables\": [";
  const auto& tables = detail::tables();
  for (std::size_t t = 0; t < tables.size(); ++t) {
    if (t != 0) out << ',';
    out << "\n    {\n      \"title\": \"";
    detail::json_escape(out, tables[t].title);
    out << "\",\n      \"columns\": ";
    detail::write_string_array(out, tables[t].columns);
    out << ",\n      \"rows\": [";
    for (std::size_t r = 0; r < tables[t].rows.size(); ++r) {
      if (r != 0) out << ',';
      out << "\n        ";
      detail::write_string_array(out, tables[t].rows[r]);
    }
    out << "\n      ]\n    }";
  }
  out << "\n  ],\n  \"micro\": [";
  for (std::size_t i = 0; i < micro.size(); ++i) {
    if (i != 0) out << ',';
    out << "\n    {\"name\": \"";
    detail::json_escape(out, micro[i].name);
    out << "\", \"iterations\": " << micro[i].iterations
        << ", \"real_time\": " << micro[i].real_time
        << ", \"cpu_time\": " << micro[i].cpu_time << ", \"time_unit\": \""
        << micro[i].time_unit << "\"}";
  }
  out << "\n  ]\n}\n";
  std::printf("\nwrote %s\n", path.c_str());
}

/// A bench binary's main. google-benchmark's flags are parsed before any
/// scenario runs, so a mistyped flag exits 1 at once and
/// --benchmark_list_tests only lists the micro benches (the scenario
/// tables, the million-member sweep among them, never start). Otherwise
/// `scenarios` prints the tables, the registered micro benches run, and
/// BENCH_<name>.json records everything this binary measured.
template <typename Scenarios>
int bench_main(int argc, char** argv, const std::string& name,
               Scenarios&& scenarios) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (::benchmark::FLAGS_benchmark_list_tests) {
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();
    return 0;
  }
  scenarios();
  detail::RecordingReporter reporter;
  ::benchmark::RunSpecifiedBenchmarks(&reporter);
  ::benchmark::Shutdown();
  write_json(name, reporter.results);
  return 0;
}

}  // namespace dmps::bench
