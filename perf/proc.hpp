#pragma once
// Clocks, /proc readers and the spawned-daemon handle shared by the load
// generator and the traced twin (Linux only, like the UDP backend).

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace dmps::perf {

std::int64_t mono_ns();         // CLOCK_MONOTONIC: due times, latencies
std::int64_t thread_cpu_ns();   // CLOCK_THREAD_CPUTIME_ID
void sleep_until_ns(std::int64_t deadline);  // absolute, CLOCK_MONOTONIC

/// CPU time of every thread of `pid`, summed over
/// /proc/<pid>/task/*/schedstat, in ns; -1 when unreadable. Summing the
/// tasks counts a multi-threaded daemon whole.
std::int64_t schedstat_ns(pid_t pid);

/// UDP datagrams the kernel dropped for a full receive buffer
/// (/proc/net/snmp RcvbufErrors; network-namespace wide); -1 if unreadable.
std::int64_t udp_rcvbuf_errors();

/// Resident set size of `pid` now (/proc/<pid>/status VmRSS), in KiB; -1
/// when unreadable.
long rss_kb(pid_t pid);

/// The CPUs this process may run on, ascending.
std::vector<int> allowed_cpus();

/// Bind the calling thread to `cpu`; false if the kernel refused.
bool pin_to_cpu(int cpu);

/// Bind every thread of process `pid` to `cpu`; false if the kernel refused
/// any of them.
bool pin_process(pid_t pid, int cpu);

/// A floor daemon (dmps_floord, or the traced twin) run as a child process
/// with stdout and stderr piped back. The constructor returns once the
/// daemon's "listening on udp/P-Q" stderr line names its bound port, so a
/// daemon started with --port 0 is usable as soon as the object exists.
/// The child dies with this process (PR_SET_PDEATHSIG), and runs on `cpu`
/// alone when `cpu` is not -1.
class Daemon {
 public:
  struct Exit {
    bool clean = false;     // exited on its own with status 0
    long max_rss_kb = 0;    // wait4 ru_maxrss
    std::string detail;     // why not clean
  };

  /// fork/exec `argv`; throws std::runtime_error if the daemon does not
  /// report its port within `ready_timeout_ms`.
  Daemon(const std::vector<std::string>& argv, int cpu, int ready_timeout_ms);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

  void signal(int sig) const;

  /// The next full line the daemon writes to stdout (a metrics dump);
  /// throws std::runtime_error on timeout or EOF.
  std::string read_stdout_line(int timeout_ms);

  /// SIGTERM, read both pipes to EOF, reap with wait4. A daemon still
  /// running after `timeout_ms` is killed and reported unclean.
  Exit stop(int timeout_ms);

 private:
  void await_port(int timeout_ms);
  /// Kill and reap a still-running child, close the pipes.
  void release();
  /// Read whatever is available on `fd` into `buf` (waiting up to
  /// `timeout_ms`); false on EOF or timeout.
  bool pump(int fd, std::string& buf, int timeout_ms);

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int err_fd_ = -1;
  std::string out_buf_;
  std::string err_buf_;
  std::uint16_t port_ = 0;
};

}  // namespace dmps::perf
