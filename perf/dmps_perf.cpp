// dmps_perf: the benchmark's load generator, traced twin and session
// runner in one binary (see perf.hpp and perf/README.md).
//
//   dmps_perf drive   --daemon PATH [--twin] --agents N ... --seed S
//   dmps_perf serve   --port 0 --hosts H --groups G --members N ...
//   dmps_perf session --stations N --hosts H --seconds S --seed S

#include <sys/prctl.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>

#include "perf.hpp"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: dmps_perf drive|serve|session [flags]\n");
    return 2;
  }
  // Never outlive the caller (perf/run.py): a killed benchmark leaves no
  // load generator, and through it no daemon, behind.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  try {
    if (std::strcmp(argv[1], "drive") == 0) return dmps::perf::run_drive(argc, argv);
    if (std::strcmp(argv[1], "serve") == 0) return dmps::perf::run_serve(argc, argv);
    if (std::strcmp(argv[1], "session") == 0) {
      return dmps::perf::run_session(argc, argv);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dmps_perf %s: %s\n", argv[1], e.what());
    return 1;
  }
  std::fprintf(stderr, "dmps_perf: unknown mode '%s'\n", argv[1]);
  return 2;
}
