#include "proc.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace dmps::perf {

namespace {

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

std::int64_t mono_ns() { return clock_ns(CLOCK_MONOTONIC); }
std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

void sleep_until_ns(std::int64_t deadline) {
  timespec ts{};
  ts.tv_sec = deadline / 1'000'000'000;
  ts.tv_nsec = deadline % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

std::int64_t schedstat_ns(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* tasks = opendir(dir.c_str());
  if (tasks == nullptr) return -1;
  std::int64_t total = 0;
  while (const dirent* entry = readdir(tasks)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + entry->d_name + "/schedstat");
    long long on_cpu = 0;
    if (in >> on_cpu) total += on_cpu;
  }
  closedir(tasks);
  return total;
}

std::int64_t udp_rcvbuf_errors() {
  std::ifstream in("/proc/net/snmp");
  std::string header, values;
  while (std::getline(in, header)) {
    if (header.rfind("Udp:", 0) != 0 || !std::getline(in, values)) continue;
    std::istringstream names(header), counts(values);
    std::string name, count;
    while (names >> name && counts >> count) {
      if (name == "RcvbufErrors") return std::stoll(count);
    }
  }
  return -1;
}

long rss_kb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::strtol(line.c_str() + 6, nullptr, 10);
  }
  return -1;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

bool pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

bool pin_process(pid_t pid, int cpu) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* tasks = opendir(dir.c_str());
  if (tasks == nullptr) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  bool ok = true;
  while (const dirent* entry = readdir(tasks)) {
    if (entry->d_name[0] == '.') continue;
    const auto tid = static_cast<pid_t>(std::strtol(entry->d_name, nullptr, 10));
    // A thread that exited since the listing needs no binding.
    if (sched_setaffinity(tid, sizeof(set), &set) != 0 && errno != ESRCH) ok = false;
  }
  closedir(tasks);
  return ok;
}

Daemon::Daemon(const std::vector<std::string>& argv, int cpu, int ready_timeout_ms) {
  int out_pipe[2];
  int err_pipe[2];
  if (pipe2(out_pipe, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  if (pipe2(err_pipe, O_CLOEXEC) != 0) {
    close(out_pipe[0]);
    close(out_pipe[1]);
    throw std::runtime_error("pipe failed");
  }
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);

  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ == 0) {
    // The daemon must not outlive the benchmark, even if it is killed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    if (cpu >= 0 && !pin_to_cpu(cpu)) _exit(127);  // exec keeps the binding
    dup2(out_pipe[1], STDOUT_FILENO);
    dup2(err_pipe[1], STDERR_FILENO);
    execv(args[0], args.data());
    std::perror("dmps_perf: exec daemon");
    _exit(127);
  }
  close(out_pipe[1]);
  close(err_pipe[1]);
  out_fd_ = out_pipe[0];
  err_fd_ = err_pipe[0];
  try {
    if (pid_ < 0) throw std::runtime_error("fork failed");
    await_port(ready_timeout_ms);
  } catch (...) {
    release();  // the destructor does not run for a throwing constructor
    throw;
  }
}

void Daemon::await_port(int timeout_ms) {
  // The port handshake: the daemon binds first and prints its block after.
  static const char kReady[] = "listening on udp/";
  const std::int64_t deadline =
      mono_ns() + static_cast<std::int64_t>(timeout_ms) * 1'000'000;
  for (;;) {
    const auto at = err_buf_.find(kReady);
    if (at != std::string::npos && err_buf_.find('\n', at) != std::string::npos) {
      port_ = static_cast<std::uint16_t>(
          std::strtoul(err_buf_.c_str() + at + sizeof(kReady) - 1, nullptr, 10));
      break;
    }
    const auto left = static_cast<int>((deadline - mono_ns()) / 1'000'000);
    if (left <= 0 || !pump(err_fd_, err_buf_, left)) {
      throw std::runtime_error("daemon did not report its port: " + err_buf_);
    }
  }
  if (port_ == 0) throw std::runtime_error("daemon reported port 0");
}

Daemon::~Daemon() { release(); }

void Daemon::release() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
  if (out_fd_ >= 0) close(out_fd_);
  if (err_fd_ >= 0) close(err_fd_);
  out_fd_ = err_fd_ = -1;
}

void Daemon::signal(int sig) const { kill(pid_, sig); }

bool Daemon::pump(int fd, std::string& buf, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  int ready;
  while ((ready = ::poll(&p, 1, timeout_ms)) < 0 && errno == EINTR) {
  }
  if (ready <= 0) return false;
  char chunk[4096];
  ssize_t n;
  while ((n = read(fd, chunk, sizeof(chunk))) < 0 && errno == EINTR) {
  }
  if (n <= 0) return false;
  buf.append(chunk, static_cast<std::size_t>(n));
  return true;
}

std::string Daemon::read_stdout_line(int timeout_ms) {
  const std::int64_t deadline =
      mono_ns() + static_cast<std::int64_t>(timeout_ms) * 1'000'000;
  for (;;) {
    const auto nl = out_buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = out_buf_.substr(0, nl);
      out_buf_.erase(0, nl + 1);
      return line;
    }
    const auto left = static_cast<int>((deadline - mono_ns()) / 1'000'000);
    if (left <= 0 || !pump(out_fd_, out_buf_, left)) {
      throw std::runtime_error("no metrics line from the daemon");
    }
  }
}

Daemon::Exit Daemon::stop(int timeout_ms) {
  Exit exit;
  kill(pid_, SIGTERM);
  // Keep both pipes drained until EOF: a daemon blocked writing its final
  // metrics dump would never exit.
  const std::int64_t deadline =
      mono_ns() + static_cast<std::int64_t>(timeout_ms) * 1'000'000;
  bool out_open = true;
  bool err_open = true;
  while ((out_open || err_open) && mono_ns() < deadline) {
    pollfd fds[2] = {{out_open ? out_fd_ : -1, POLLIN, 0},
                     {err_open ? err_fd_ : -1, POLLIN, 0}};
    if (::poll(fds, 2, 100) <= 0) continue;
    char chunk[4096];
    for (int i = 0; i < 2; ++i) {
      if (fds[i].revents == 0) continue;
      const ssize_t n = read(fds[i].fd, chunk, sizeof(chunk));
      if (n > 0) {
        (i == 0 ? out_buf_ : err_buf_).append(chunk, static_cast<std::size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        (i == 0 ? out_open : err_open) = false;
      }
    }
  }
  if (out_open || err_open) {
    kill(pid_, SIGKILL);
    exit.detail = "daemon did not exit within the timeout";
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid_, &status, 0, &usage) != pid_) {
    exit.detail = "wait4 failed";
  } else if (exit.detail.empty()) {
    exit.clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!exit.clean) {
      exit.detail = WIFSIGNALED(status)
                        ? "daemon killed by signal " + std::to_string(WTERMSIG(status))
                        : "daemon exit status " + std::to_string(WEXITSTATUS(status));
    }
  }
  exit.max_rss_kb = usage.ru_maxrss;
  pid_ = -1;
  return exit;
}

}  // namespace dmps::perf
