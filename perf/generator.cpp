// dmps_perf drive: closed- and open-loop load against a spawned floor
// daemon, measured from outside.
//
// Shape (perf/README.md has the why):
//   - Two load threads. Each owns one UdpLoop and two sockets, and every
//     agent is a real fproto::FloorAgent multiplexed onto its thread's
//     sockets through an AgentPort (agent_port.hpp). Four sockets in all,
//     so the generator's syscalls stay a small share of the daemon's.
//   - Setup: fork the daemon with --port 0, read the bound port from its
//     stderr, join every agent. setup_s is fork -> last JoinAck, repeated
//     --setups times on fresh daemons; one of them is the measured daemon.
//   - Phase sat: closed loop, think time 0, one floor op in flight per
//     agent for the first kSatAgents agents, the load threads
//     busy-polling. Throughput = ops completed per second.
//   - Phase open: Poisson arrivals at --rate (split over as few load threads
//     as the rate needs, each with its own seeded stream; --churn of them
//     leave + rejoin), fired by a timerfd with 1 ns timer slack —
//     the loop's 1 ms timer wheel would quantize arrivals. An arrival takes
//     an idle agent or waits in a backlog; latency runs from the *due* time
//     to the first reply (Grant, Deny or Queued), so a stall is charged to
//     every arrival it delays.
//   - Each phase has a warm-up and ends with a drain. Its measure window is
//     cut into 0.5 s slices, each reporting its ops completed, decision
//     latencies and daemon CPU (/proc/<pid>/task/*/schedstat read at every
//     slice edge); the whole window's totals are reported too.
//   - With three CPUs or more, the daemon runs alone on one CPU, kept out of
//     the idle state by an IdleKeeper, and each load thread on its own CPU;
//     the assignment moves one CPU along at every slice edge (CpuRotation).
//   - After the drain: SIGUSR1 for the daemon's metrics snapshot, SIGTERM,
//     wait4 for its exit status and peak RSS. The throwaway setups that
//     time setup_s run half before the measured daemon, half after it.

#include <sched.h>
#include <sys/prctl.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "agent_port.hpp"
#include "fproto/agent.hpp"
#include "perf.hpp"
#include "proc.hpp"
#include "util/rng.hpp"
#include "wire_common.hpp"

namespace dmps::perf {

namespace {

using util::Duration;

constexpr int kWorkers = 2;
constexpr int kSocketsPerWorker = 2;
constexpr std::int64_t kSecond = 1'000'000'000;
/// An op with no decision within this long counts as failed.
constexpr std::int64_t kDecisionLimit = kSecond;
constexpr std::int64_t kDrainLimit = 3 * kSecond;
constexpr std::int64_t kJoinLimit = 20 * kSecond;
constexpr int kDaemonReadyMs = 10'000;
/// Joins in flight per load thread during setup.
constexpr std::size_t kJoinWindow = 32;
/// Open-loop arrivals one load thread issues on time. A phase uses as few
/// threads as its rate needs: each spins while it waits for its next
/// arrival, and an unneeded spinning thread only disturbs the daemon's vCPU.
constexpr double kArrivalsPerThread = 40'000;
/// How long before an arrival is due the arrival timer wakes its thread.
/// Waking a halted vCPU took up to 3 ms on a loaded host; at the workloads'
/// rates (2,000/s and up) a 5 ms lead means the thread never sleeps.
constexpr std::int64_t kSpinLead = 5'000'000;
/// Between two non-blocking polls a spinning thread pauses this long, so a
/// vCPU that shares a physical core with the daemon's leaves it the core.
constexpr std::int64_t kSpinGap = 1'000;
/// Agents with an op in flight in phase sat. More overflow the daemon's
/// receive buffer (208 KiB by default): 256 datagrams queued at once were
/// dropped, and every drop costs a 40 ms retransmit.
constexpr int kSatAgents = 128;
/// Pause between two throwaway setups, so their setup_s samples the host at
/// different moments rather than one spell.
constexpr std::int64_t kSetupGapNs = 50'000'000;
/// A measure window is cut into slices this long; each slice reports its
/// own throughput, daemon CPU and decision latencies (perf/README.md says
/// how run.py reads them).
constexpr std::int64_t kSliceNs = 500'000'000;

void pause_cpu() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();  // yields the core's pipeline to its sibling
#endif
}

void relax(std::int64_t ns) {
  const std::int64_t until = mono_ns() + ns;
  while (mono_ns() < until) pause_cpu();
}

/// Where the benchmark's threads run. With at least 1 + kWorkers CPUs the
/// daemon has one CPU to itself and each load thread one of the next. The
/// host slows each vCPU down for spells of its own (perf/README.md), so the
/// assignment moves one CPU along at every slice edge of a measure window:
/// a phase's slices sample every CPU. With fewer CPUs nothing is pinned (-1).
class CpuRotation {
 public:
  CpuRotation() : cpus_(allowed_cpus()) {
    if (cpus_.size() < 1 + kWorkers) cpus_.clear();
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// CPUs the assignment rotates over; 0 when nothing is pinned.
  std::size_t size() const { return cpus_.size(); }
  std::size_t slot() const { return slot_.load(std::memory_order_acquire); }
  void advance() { slot_.fetch_add(1, std::memory_order_acq_rel); }
  int daemon(std::size_t slot) const { return at(slot); }
  int load(int worker, std::size_t slot) const {
    return at(slot + 1 + static_cast<std::size_t>(worker));
  }

 private:
  int at(std::size_t i) const { return cpus_.empty() ? -1 : cpus_[i % cpus_.size()]; }

  std::vector<int> cpus_;
  std::atomic<std::size_t> slot_{0};
};

/// Keeps the daemon's CPU out of the idle state while it lives: a
/// SCHED_IDLE thread bound there spins whenever nothing else wants the CPU,
/// and yields it at once to the daemon's wake-ups; it follows the daemon
/// from CPU to CPU. An idle vCPU halts, and the hypervisor took up to
/// milliseconds to resume a halted one on a loaded host; the daemon then
/// paid that, plus the idle entry and exit, on every request it slept
/// before. Without CPUs to pin, it keeps nothing.
class IdleKeeper {
 public:
  explicit IdleKeeper(const CpuRotation& cpus) {
    if (cpus.daemon(0) < 0) return;
    thread_ = std::thread([this, &cpus] {
      sched_param param{};
      if (sched_setscheduler(0, SCHED_IDLE, &param) != 0) return;
      std::size_t slot = cpus.slot();
      if (!pin_to_cpu(cpus.daemon(slot))) return;
      while (!stop_.load(std::memory_order_relaxed)) {
        pause_cpu();
        if (cpus.slot() != slot) {
          slot = cpus.slot();
          if (!pin_to_cpu(cpus.daemon(slot))) return;
        }
      }
    });
  }
  ~IdleKeeper() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }
  IdleKeeper(const IdleKeeper&) = delete;
  IdleKeeper& operator=(const IdleKeeper&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

struct DriveConfig {
  std::string daemon;     // dmps_floord, or dmps_perf for the traced twin
  bool twin = false;      // daemon is `dmps_perf serve`
  std::string trace_out;  // twin only: Chrome trace path
  tools::WireTopology topology;
  int agents = 256;
  std::string policy = "three_regime";
  double capacity = 64.0;
  double qos_lo = 0.25;  // per-request share drawn from [qos_lo, qos_hi]
  double qos_hi = 0.25;
  double hold_mean_ms = 0.0;  // exponential hold; 0 = release on grant
  double churn = 0.0;         // probability an op is leave + rejoin
  double rate = 1000.0;       // open-loop arrivals per second, all threads
  int open_threads = 1;       // load threads issuing arrivals (from rate)
  double sat_s = 1.0;
  double open_s = 1.0;
  double warmup_s = 1.0;
  int setups = 1;
  std::uint64_t seed = 1;
};

DriveConfig parse(int argc, char** argv) {
  DriveConfig c;
  c.daemon = tools::flag_string(argc, argv, "--daemon", "");
  c.twin = tools::flag_long(argc, argv, "--twin", 0) != 0;
  c.trace_out = tools::flag_string(argc, argv, "--trace-out", "");
  c.topology.hosts = static_cast<int>(tools::flag_long(argc, argv, "--hosts", 4));
  c.topology.groups = static_cast<int>(tools::flag_long(argc, argv, "--groups", 4));
  c.agents = static_cast<int>(tools::flag_long(argc, argv, "--agents", c.agents));
  c.policy = tools::flag_string(argc, argv, "--policy", c.policy.c_str());
  c.capacity = tools::flag_double(argc, argv, "--capacity", c.capacity);
  c.qos_lo = tools::flag_double(argc, argv, "--qos-lo", c.qos_lo);
  c.qos_hi = tools::flag_double(argc, argv, "--qos-hi", c.qos_lo);
  c.hold_mean_ms = tools::flag_double(argc, argv, "--hold-mean-ms", c.hold_mean_ms);
  c.churn = tools::flag_double(argc, argv, "--churn", c.churn);
  c.rate = tools::flag_double(argc, argv, "--rate", c.rate);
  c.sat_s = tools::flag_double(argc, argv, "--sat-s", c.sat_s);
  c.open_s = tools::flag_double(argc, argv, "--open-s", c.open_s);
  c.warmup_s = tools::flag_double(argc, argv, "--warmup-s", c.warmup_s);
  c.setups = static_cast<int>(tools::flag_long(argc, argv, "--setups", c.setups));
  c.seed = static_cast<std::uint64_t>(tools::flag_long(argc, argv, "--seed", 1));
  c.open_threads = static_cast<int>(
      std::clamp(std::ceil(c.rate / kArrivalsPerThread), 1.0, double{kWorkers}));
  if (c.daemon.empty() || c.agents < kWorkers || c.topology.hosts < 1 ||
      c.topology.groups < 1 || c.rate <= 0 || c.sat_s <= 0 || c.open_s <= 0 ||
      c.warmup_s < 0 || c.setups < 1 || c.qos_hi < c.qos_lo || c.churn < 0 ||
      c.churn > 1) {
    throw std::invalid_argument(
        "need --daemon PATH, --agents >= 2, positive --rate/--sat-s/--open-s, "
        "--setups >= 1, qos-lo <= qos-hi, 0 <= --churn <= 1");
  }
  return c;
}

/// One phase's timeline on CLOCK_MONOTONIC: warm-up [start, measure),
/// measured [measure, end), cut into whole slices of kSliceNs.
struct Window {
  std::int64_t start = 0;
  std::int64_t measure = 0;
  std::int64_t end = 0;
  bool contains(std::int64_t t) const { return t >= measure && t < end; }
  std::size_t slices() const { return static_cast<std::size_t>((end - measure) / kSliceNs); }
  /// The slice holding `t`, which must lie in the window.
  std::size_t slice_of(std::int64_t t) const {
    return static_cast<std::size_t>((t - measure) / kSliceNs);
  }
};

/// `measure_s` is rounded down to whole slices, one at least.
Window make_window(std::int64_t start, double warmup_s, double measure_s) {
  Window w;
  w.start = start;
  w.measure = start + static_cast<std::int64_t>(warmup_s * 1e9);
  const auto slices = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(measure_s * 1e9) / kSliceNs);
  w.end = w.measure + slices * kSliceNs;
  return w;
}

/// Round-based rendezvous between the main thread (leader) and the load
/// threads. abort() is sticky so a worker mid-phase never blocks on a
/// round the leader has given up on.
class Coordinator {
 public:
  struct Plan {
    bool stop = false;
    Window window;
  };

  explicit Coordinator(int parties) : parties_(parties) {}

  /// Worker: report this round done and wait for the next plan.
  Plan arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    const std::uint64_t generation = generation_;
    if (++arrived_ == parties_) cv_.notify_all();
    cv_.wait(lock, [&] { return generation_ != generation || plan_.stop; });
    return plan_;
  }
  /// Leader: wait until every worker has arrived.
  void wait_all() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return arrived_ == parties_; });
  }
  /// Leader: start the next round with `plan`.
  void release(const Plan& plan) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      plan_ = plan;
      arrived_ = 0;
      ++generation_;
    }
    cv_.notify_all();
  }
  void abort() { release(Plan{true, Window{}}); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  const int parties_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
  Plan plan_;
};

struct PhaseStats {
  std::uint64_t attempted = 0;  // ops started (sat) / due (open) in the window
  std::uint64_t late = 0;       // attempted ops decided after kDecisionLimit
  std::int64_t t0 = 0;          // first and last turn of the window (0: none yet)
  std::int64_t t1 = 0;
  std::int64_t idle_ns = 0;     // turns in [t0, t1) that delivered no reply
  std::uint64_t completed = 0;  // ops completed in the window
  std::vector<std::uint64_t> slice_completed;  // the same, per slice
  std::vector<std::int64_t> latency_ns;  // open: due -> first reply, per decision
  std::vector<std::uint32_t> latency_slice;  // open: the slice its due time fell in
  std::vector<std::int64_t> lag_ns;  // open: timerfd dispatch - due
  std::size_t backlog_max = 0;

  /// Share of the window the load thread spent on replies and arrivals.
  double busy() const {
    return t0 > 0 && t1 > t0
               ? 1.0 - static_cast<double>(idle_ns) / static_cast<double>(t1 - t0)
               : 0.0;
  }
};

struct Client {
  int index = 0;            // agent index: member, group and host follow
  std::size_t socket = 0;   // which of its thread's sockets it uses
  std::unique_ptr<AgentPort> port;
  std::unique_ptr<fproto::FloorAgent> agent;
  bool busy = false;      // an op is in progress
  bool decided = false;   // the op's first reply has arrived
  bool counted = false;   // the op falls in a measure window
  std::int64_t due = 0;   // due (open) or start (sat) time of the op
};

class Worker {
 public:
  Worker(const DriveConfig& cfg, int id, const CpuRotation& cpus, std::uint16_t port,
         Coordinator& coord)
      : cfg_(cfg),
        id_(id),
        cpus_(cpus),
        port_(port),
        coord_(coord),
        arrivals_(cfg.seed * 1'000'003 + static_cast<std::uint64_t>(id)),
        choices_(cfg.seed * 7'919 + 17 + static_cast<std::uint64_t>(id)) {}

  void run() {
    // Timer slack 1 ns: the arrival timerfd must fire when due, not within
    // the default 50 us coalescing window.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    slot_ = cpus_.slot();
    follow_rotation();
    step([this] { setup(); });
    Coordinator::Plan plan = coord_.arrive();
    if (!plan.stop) {
      step([&] { closed_phase(plan.window); });
      plan = coord_.arrive();
    }
    if (!plan.stop) {
      step([&] { open_phase(plan.window); });
      step([this] { inspect_agents(); });
      coord_.arrive();
    }
    teardown();
  }

  bool joined() const { return error_.empty() && joined_ == clients_.size(); }
  const std::string& error() const { return error_; }
  const PhaseStats& sat() const { return stats_[0]; }
  const PhaseStats& open() const { return stats_[1]; }
  int stuck() const { return stuck_; }
  std::uint64_t broken() const { return broken_; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t unrouted() const { return unrouted_; }

 private:
  enum class Mode { kSetup, kClosed, kOpen, kDrain };

  template <class F>
  void step(F&& f) {
    if (!error_.empty()) return;
    try {
      f();
    } catch (const std::exception& e) {
      error_ = e.what();
    }
  }

  void setup() {
    loop_ = std::make_unique<transport::UdpLoop>();
    const transport::WireSchema schema = fproto::wire_schema();
    for (int s = 0; s < kSocketsPerWorker; ++s) {
      sockets_.push_back(
          std::make_unique<transport::UdpEndpoint>(*loop_, schema, 0, &wire_));
      servers_.push_back(sockets_.back()->add_peer("127.0.0.1", port_));
      routers_.push_back(std::make_unique<SocketRouter>(*sockets_.back()));
    }
    fproto::AgentConfig config;
    config.retry = Duration::millis(40);
    config.max_tries = 200;
    config.retry_factor = 2.0;
    config.retry_cap = Duration::millis(500);
    config.obs = &wire_;
    // A contiguous block of agents per thread, so each thread's agents
    // cover every host and group (agent i lives on host 1 + i % hosts).
    const int first = cfg_.agents * id_ / kWorkers;
    const int last = cfg_.agents * (id_ + 1) / kWorkers;
    for (int i = first; i < last; ++i) {
      auto client = std::make_unique<Client>();
      Client& c = *client;
      c.index = i;
      c.socket = static_cast<std::size_t>((i - first) % kSocketsPerWorker);
      c.port = std::make_unique<AgentPort>(*sockets_[c.socket]);
      const auto member = static_cast<std::uint32_t>(cfg_.topology.member_of(i));
      routers_[c.socket]->attach(member, c.port.get());
      c.agent = std::make_unique<fproto::FloorAgent>(
          *c.port, servers_[c.socket], floorctl::MemberId{member},
          floorctl::GroupId{static_cast<std::uint32_t>(cfg_.topology.group_of(i))},
          floorctl::HostId{static_cast<std::uint32_t>(cfg_.topology.host_of(i))},
          config, events(c));
      clients_.push_back(std::move(client));
    }
    // Joins go out through a window so a 2,048-agent setup never overruns
    // the daemon's socket buffer (a lost Join costs a 40 ms retransmit).
    while (joins_sent_ < std::min(kJoinWindow, clients_.size())) {
      clients_[joins_sent_++]->agent->join();
    }
    // Busy-poll, as in phase sat: setup_s times the daemon's joins, not the
    // wake-ups of a halted load thread.
    pump_until([this] { return joined_ == clients_.size() || failed_agents_ > 0; },
               mono_ns() + kJoinLimit, /*spin=*/true);
    if (joined_ != clients_.size()) throw std::runtime_error("agents failed to join");
  }

  fproto::AgentEvents events(Client& c) {
    fproto::AgentEvents ev;
    ev.on_joined = [this, &c] {
      if (mode_ == Mode::kSetup) {
        ++joined_;
        if (joins_sent_ < clients_.size()) clients_[joins_sent_++]->agent->join();
      } else {
        complete(c);  // the rejoin ends a churn op
      }
    };
    ev.on_left = [&c] { c.agent->join(); };
    ev.on_granted = [this, &c](std::uint64_t, bool) {
      decide(c);
      if (!hold_) {
        c.agent->release_floor();
        return;
      }
      const double hold_ms = -std::log(1.0 - choices_.uniform()) * cfg_.hold_mean_ms;
      c.port->schedule_in(Duration::from_millis(hold_ms),
                          [&c] { c.agent->release_floor(); });
    };
    ev.on_queued = [this, &c](std::uint64_t) { decide(c); };
    ev.on_denied = [this, &c](std::uint64_t, floorctl::Outcome) {
      decide(c);
      complete(c);
    };
    ev.on_released = [this, &c](std::uint64_t) { complete(c); };
    ev.on_failed = [this](fproto::AgentState) { ++failed_agents_; };
    return ev;
  }

  void teardown() {
    for (auto& c : clients_) {
      routers_[c->socket]->detach(
          static_cast<std::uint32_t>(cfg_.topology.member_of(c->index)));
    }
    clients_.clear();  // agents before the ports and sockets they use
    for (const auto& r : routers_) unrouted_ += r->unrouted();
    routers_.clear();
    sockets_.clear();
    if (timer_fd_ >= 0) {
      loop_->remove_fd(timer_fd_);
      close(timer_fd_);
      timer_fd_ = -1;
    }
    loop_.reset();
  }

  template <class Done>
  void pump_until(Done done, std::int64_t deadline, bool spin = false) {
    while (!done() && mono_ns() < deadline) turn(spin);
  }

  /// One loop turn: a poll that blocks up to 1 ms, or (`spin`) a
  /// non-blocking poll and a kSpinGap pause. A turn inside the measure
  /// window that delivered no reply counts as idle time.
  void turn(bool spin) {
    if (cpus_.slot() != slot_) {
      slot_ = cpus_.slot();
      follow_rotation();
    }
    const std::uint64_t before = routed();
    const std::int64_t start = mono_ns();
    if (spin) {
      loop_->poll(Duration::zero());
      relax(kSpinGap);
    } else {
      loop_->poll(Duration::millis(1));
    }
    if (cur_ == nullptr) return;
    mark(start);
    if (cur_->t0 > 0 && cur_->t1 == 0 && routed() == before) {
      cur_->idle_ns += mono_ns() - start;
    }
  }

  /// Move to this thread's CPU of the current rotation slot.
  void follow_rotation() {
    const int cpu = cpus_.load(id_, slot_);
    if (cpu >= 0 && !pin_to_cpu(cpu) && error_.empty()) {
      error_ = "cannot bind load thread to CPU " + std::to_string(cpu);
    }
  }

  /// Record the window edges as the turns cross them.
  void mark(std::int64_t now) {
    if (cur_->t0 == 0 && now >= window_.measure) cur_->t0 = now;
    if (cur_->t1 == 0 && now >= window_.end) cur_->t1 = now;
  }

  std::uint64_t routed() const {
    std::uint64_t n = 0;
    for (const auto& r : routers_) n += r->routed();
    return n;
  }

  bool all_idle() const {
    if (!backlog_.empty()) return false;
    for (const auto& c : clients_) {
      if (c->busy) return false;
    }
    return true;
  }

  void closed_phase(const Window& w) {
    window_ = w;
    cur_ = &stats_[0];
    cur_->slice_completed.assign(w.slices(), 0);
    mode_ = Mode::kClosed;
    hold_ = false;  // saturation: think time 0, floors go straight back
    pump_until([&] { return mono_ns() >= w.start; }, w.start);
    const std::int64_t now = mono_ns();
    const int sat_agents = std::min(kSatAgents, cfg_.agents);
    const auto share = static_cast<std::size_t>(sat_agents * (id_ + 1) / kWorkers -
                                                sat_agents * id_ / kWorkers);
    for (std::size_t i = 0; i < share && i < clients_.size(); ++i) {
      start_op(*clients_[i], now);
    }
    // Busy-poll: a reply waiting out a sleeping thread's wake-up would leave
    // the daemon idle, and sat_ops_s would time the generator.
    pump_until([] { return false; }, w.end, /*spin=*/true);
    mode_ = Mode::kDrain;
    pump_until([this] { return all_idle(); }, w.end + kDrainLimit);
    mark(mono_ns());
  }

  void open_phase(const Window& w) {
    window_ = w;
    cur_ = &stats_[1];
    cur_->slice_completed.assign(w.slices(), 0);
    mode_ = Mode::kOpen;
    hold_ = cfg_.hold_mean_ms > 0;
    if (id_ >= cfg_.open_threads) {
      // Not needed at this rate: stay asleep rather than spin beside the
      // daemon's vCPU.
      pump_until([&] { return mono_ns() >= w.end; }, w.end);
      mode_ = Mode::kDrain;
      return;
    }
    const double rate = cfg_.rate / cfg_.open_threads;
    const auto expected = static_cast<std::size_t>(rate * cfg_.open_s);
    cur_->latency_ns.reserve(expected * 5 / 4 + 1024);
    cur_->latency_slice.reserve(expected * 5 / 4 + 1024);
    cur_->lag_ns.reserve(expected * 5 / 4 + 1024);
    idle_.clear();
    for (const auto& c : clients_) {
      if (!c->busy) idle_.push_back(c.get());
    }
    gap_ns_ = 1e9 / rate;
    timer_fd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    if (timer_fd_ < 0 || !loop_->add_fd(timer_fd_, [this] {
          std::uint64_t expirations = 0;  // clears readiness; the loop below dispatches
          (void)!read(timer_fd_, &expirations, sizeof(expirations));
        })) {
      throw std::runtime_error("arrival timerfd setup failed");
    }
    std::int64_t next_due = w.start + next_gap();
    std::int64_t armed = -1;
    for (;;) {
      const std::int64_t now = mono_ns();
      while (next_due < w.end && next_due <= now) {
        dispatch(next_due, now);
        next_due += next_gap();
      }
      if (next_due >= w.end && now >= w.end) break;
      // Block until kSpinLead before the next arrival, then spin through
      // non-blocking turns: an idle vCPU's wake-up is paid before the due
      // time, not charged to the arrival.
      const std::int64_t wake = std::min(next_due, w.end) - kSpinLead;
      if (now < wake && armed != wake) {
        arm(wake);
        armed = wake;
      }
      turn(now >= wake);
    }
    mode_ = Mode::kDrain;
    pump_until([this] { return all_idle(); }, w.end + kDrainLimit);
    mark(mono_ns());
  }

  std::int64_t next_gap() {
    return static_cast<std::int64_t>(-std::log(1.0 - arrivals_.uniform()) * gap_ns_);
  }

  void arm(std::int64_t due) {
    itimerspec spec{};
    spec.it_value.tv_sec = due / kSecond;
    spec.it_value.tv_nsec = due % kSecond;
    timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
  }

  void dispatch(std::int64_t due, std::int64_t now) {
    if (window_.contains(due)) cur_->lag_ns.push_back(now - due);
    if (idle_.empty()) {
      backlog_.push_back(due);
      cur_->backlog_max = std::max(cur_->backlog_max, backlog_.size());
      return;
    }
    const std::size_t pick = choices_.index(idle_.size());
    Client* c = idle_[pick];
    idle_[pick] = idle_.back();
    idle_.pop_back();
    start_op(*c, due);
  }

  void start_op(Client& c, std::int64_t due) {
    c.busy = true;
    c.decided = false;
    c.due = due;
    c.counted = window_.contains(due);
    if (c.counted) ++cur_->attempted;
    // Phase sat times floor cycles only; leave + rejoin ops are open-loop.
    if (mode_ != Mode::kClosed && cfg_.churn > 0 && choices_.chance(cfg_.churn)) {
      if (!c.agent->leave()) fail_op(c);
      return;
    }
    const double q = cfg_.qos_hi > cfg_.qos_lo ? choices_.uniform(cfg_.qos_lo, cfg_.qos_hi)
                                               : cfg_.qos_lo;
    if (c.agent->request_floor(media::QosRequirement{q, q, q}) == 0) fail_op(c);
  }

  /// The agent refused to start an op (wrong state): it is out of the run,
  /// and stays busy, so the drain counts it stuck.
  void fail_op(Client& c) {
    ++broken_;
    c.decided = true;
  }

  void decide(Client& c) {
    if (c.decided) return;
    c.decided = true;
    const std::int64_t latency = mono_ns() - c.due;
    if (!c.counted) return;
    if (latency > kDecisionLimit) ++cur_->late;
    if (cur_ == &stats_[1]) {
      cur_->latency_ns.push_back(latency);
      cur_->latency_slice.push_back(static_cast<std::uint32_t>(window_.slice_of(c.due)));
    }
  }

  void complete(Client& c) {
    if (!c.decided) {  // churn ops: the rejoin is the decision
      c.decided = true;
      if (c.counted && mono_ns() - c.due > kDecisionLimit) ++cur_->late;
    }
    c.busy = false;
    const std::int64_t now = mono_ns();
    if (window_.contains(now)) {
      ++cur_->completed;
      ++cur_->slice_completed[window_.slice_of(now)];
    }
    if (!backlog_.empty()) {
      const std::int64_t due = backlog_.front();
      backlog_.pop_front();
      start_op(c, due);
    } else if (mode_ == Mode::kClosed && now < window_.end) {
      start_op(c, now);
    } else if (mode_ != Mode::kClosed) {
      idle_.push_back(&c);
    }
  }

  void inspect_agents() {
    for (const auto& c : clients_) {
      retransmits_ += c->agent->retransmits();
      if (c->busy || !c->agent->terminated()) ++stuck_;
    }
    stuck_ += static_cast<int>(failed_agents_);
  }

  const DriveConfig& cfg_;
  const int id_;
  const CpuRotation& cpus_;
  std::size_t slot_ = 0;  // the rotation slot this thread is bound for
  const std::uint16_t port_;
  Coordinator& coord_;
  util::Rng arrivals_;  // the arrival schedule: a pure function of the seed
  util::Rng choices_;   // agent picks, qos draws, holds, churn coin flips

  // The thread's own instruments, so the two load threads never share a
  // counter cache line.
  obs::MetricsRegistry metrics_;
  obs::WireInstruments wire_{metrics_};

  std::unique_ptr<transport::UdpLoop> loop_;
  std::vector<std::unique_ptr<transport::UdpEndpoint>> sockets_;
  std::vector<net::NodeId> servers_;
  std::vector<std::unique_ptr<SocketRouter>> routers_;
  std::vector<std::unique_ptr<Client>> clients_;

  Mode mode_ = Mode::kSetup;
  Window window_;
  PhaseStats stats_[2];
  PhaseStats* cur_ = nullptr;
  std::vector<Client*> idle_;
  std::deque<std::int64_t> backlog_;
  int timer_fd_ = -1;
  double gap_ns_ = 0;
  bool hold_ = false;  // hold granted floors (open phase) or release at once

  std::size_t joins_sent_ = 0;
  std::size_t joined_ = 0;
  std::uint64_t failed_agents_ = 0;
  int stuck_ = 0;
  std::uint64_t broken_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t unrouted_ = 0;
  std::string error_;
};

/// The load threads of one setup. Joins them on every exit path.
class Crew {
 public:
  Crew(const DriveConfig& cfg, const CpuRotation& cpus, std::uint16_t port)
      : coord_(kWorkers) {
    for (int w = 0; w < kWorkers; ++w) {
      workers_.push_back(std::make_unique<Worker>(cfg, w, cpus, port, coord_));
    }
    for (auto& worker : workers_) {
      threads_.emplace_back([w = worker.get()] { w->run(); });
    }
  }
  ~Crew() { finish(); }
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  Coordinator& coord() { return coord_; }
  const std::vector<std::unique_ptr<Worker>>& workers() const { return workers_; }

  /// First worker error, empty when all are healthy. Leader-side, after
  /// wait_all().
  std::string error() const {
    for (const auto& w : workers_) {
      if (!w->error().empty()) return w->error();
    }
    return {};
  }

  void finish() {
    coord_.abort();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  Coordinator coord_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
};

std::vector<std::string> daemon_argv(const DriveConfig& cfg) {
  std::vector<std::string> argv = {cfg.daemon};
  if (cfg.twin) argv.push_back("serve");
  const std::vector<std::string> flags = {
      "--port", "0",
      "--hosts", std::to_string(cfg.topology.hosts),
      "--groups", std::to_string(cfg.topology.groups),
      "--members", std::to_string(cfg.agents),
      "--capacity", std::to_string(cfg.capacity),
      "--policy", cfg.policy};
  argv.insert(argv.end(), flags.begin(), flags.end());
  if (cfg.twin && !cfg.trace_out.empty()) {
    argv.push_back("--trace-out");
    argv.push_back(cfg.trace_out);
  }
  return argv;
}

/// Daemon CPU across one measure window, read at every slice edge.
struct DaemonCpu {
  std::int64_t cpu_ns = -1;  // -1 when /proc was unreadable
  double busy = 0;
  std::vector<std::int64_t> slice_cpu_ns;  // per slice; empty when unreadable
};

/// Reads the daemon's CPU at every slice edge of `w` and, at every inner
/// edge, moves the rotation on: the daemon here, the load threads and the
/// IdleKeeper on their next turn.
DaemonCpu sample_window(pid_t pid, const Window& w, CpuRotation& cpus) {
  DaemonCpu d;
  std::vector<std::int64_t> edges;
  for (std::size_t k = 0; k <= w.slices(); ++k) {
    sleep_until_ns(w.measure + static_cast<std::int64_t>(k) * kSliceNs);
    edges.push_back(schedstat_ns(pid));
    if (k == 0 || k == w.slices()) continue;
    cpus.advance();
    const int cpu = cpus.daemon(cpus.slot());
    if (cpu >= 0 && !pin_process(pid, cpu)) {
      throw std::runtime_error("cannot bind the daemon to CPU " + std::to_string(cpu));
    }
  }
  for (std::size_t k = 0; k < w.slices(); ++k) {
    if (edges[k] < 0 || edges[k + 1] < edges[k]) return d;
    d.slice_cpu_ns.push_back(edges[k + 1] - edges[k]);
  }
  d.cpu_ns = edges.back() - edges.front();
  d.busy = static_cast<double>(d.cpu_ns) / static_cast<double>(w.end - w.measure);
  return d;
}

std::string phase_json(const std::vector<const PhaseStats*>& threads, const Window& w,
                       const DaemonCpu& daemon, bool open) {
  const double window_s = static_cast<double>(w.end - w.measure) / 1e9;
  std::uint64_t attempted = 0, late = 0, completed = 0;
  std::size_t backlog_max = 0;
  double gen_busy = 0;
  std::vector<std::int64_t> latency, lag;
  std::vector<std::uint64_t> slice_ops(w.slices(), 0);
  std::vector<std::vector<std::int64_t>> slice_latency(w.slices());
  for (const PhaseStats* p : threads) {
    attempted += p->attempted;
    late += p->late;
    completed += p->completed;
    latency.insert(latency.end(), p->latency_ns.begin(), p->latency_ns.end());
    for (std::size_t i = 0; i < p->latency_ns.size(); ++i) {
      slice_latency[p->latency_slice[i]].push_back(p->latency_ns[i]);
    }
    for (std::size_t k = 0; k < p->slice_completed.size(); ++k) {
      slice_ops[k] += p->slice_completed[k];
    }
    backlog_max = std::max(backlog_max, p->backlog_max);
    gen_busy = std::max(gen_busy, p->busy());
    lag.insert(lag.end(), p->lag_ns.begin(), p->lag_ns.end());
  }
  Json::Array decisions, p50_us, p90_us;
  for (auto& samples : slice_latency) {
    const Summary s = summarize(samples);
    decisions.add(static_cast<double>(s.count));
    p50_us.add(s.p50 * 1e-3);
    p90_us.add(s.p90 * 1e-3);
  }
  Json slices;
  slices.num("slice_s", static_cast<double>(kSliceNs) / 1e9)
      .raw("ops", json_list(slice_ops))
      .raw("daemon_cpu_ns", json_list(daemon.slice_cpu_ns));
  if (open) {
    slices.raw("decisions", decisions.text())
        .raw("latency_p50_us", p50_us.text())
        .raw("latency_p90_us", p90_us.text());
  }
  Json j;
  j.num("window_s", window_s)
      .integer("attempted", static_cast<long long>(attempted))
      .integer("completed", static_cast<long long>(completed))
      .integer("late", static_cast<long long>(late))
      .num("ops_s", static_cast<double>(completed) / window_s)
      .num("gen_busy", gen_busy)
      .integer("daemon_cpu_ns", daemon.cpu_ns)
      .num("daemon_busy", daemon.busy)
      .raw("slices", slices.text());
  if (open) {
    j.summary("latency_us", summarize(latency), 1e-3)
        .summary("lag_us", summarize(lag), 1e-3)
        .integer("backlog_max", static_cast<long long>(backlog_max));
  }
  return j.text();
}

}  // namespace

int run_drive(int argc, char** argv) {
  const DriveConfig cfg = parse(argc, argv);
  const std::vector<std::string> argv_daemon = daemon_argv(cfg);
  CpuRotation cpus;
  const IdleKeeper keeper(cpus);
  std::vector<double> setup_s;

  // Throwaway setups: only their time counts. Half run before the measured
  // daemon and half after it, spaced out, so the median setup_s spans the
  // run rather than one moment of the host.
  const auto throwaway_setups = [&](int n) {
    for (int s = 0; s < n; ++s) {
      sleep_until_ns(mono_ns() + kSetupGapNs);
      const std::int64_t t0 = mono_ns();
      Daemon daemon(argv_daemon, cpus.daemon(cpus.slot()), kDaemonReadyMs);
      Crew crew(cfg, cpus, daemon.port());
      crew.coord().wait_all();
      setup_s.push_back(static_cast<double>(mono_ns() - t0) / 1e9);
      crew.finish();
      if (!crew.error().empty()) throw std::runtime_error(crew.error());
      const Daemon::Exit exit = daemon.stop(10'000);
      if (!exit.clean) throw std::runtime_error("setup daemon: " + exit.detail);
    }
  };
  const int setups_before = (cfg.setups - 1) / 2;
  throwaway_setups(setups_before);

  sleep_until_ns(mono_ns() + kSetupGapNs);
  const std::int64_t t0 = mono_ns();
  Daemon daemon(argv_daemon, cpus.daemon(cpus.slot()), kDaemonReadyMs);
  Crew crew(cfg, cpus, daemon.port());
  Coordinator& coord = crew.coord();
  coord.wait_all();
  setup_s.push_back(static_cast<double>(mono_ns() - t0) / 1e9);
  if (!crew.error().empty()) throw std::runtime_error(crew.error());
  const long setup_rss_kb = rss_kb(daemon.pid());

  if (cfg.twin) daemon.signal(SIGUSR2);  // the twin's spans start here
  const std::int64_t rcvbuf0 = udp_rcvbuf_errors();
  const Window sat = make_window(mono_ns() + 20'000'000, cfg.warmup_s, cfg.sat_s);
  coord.release({false, sat});
  const DaemonCpu sat_cpu = sample_window(daemon.pid(), sat, cpus);
  coord.wait_all();
  if (!crew.error().empty()) throw std::runtime_error(crew.error());
  // Between the phases every agent is at rest: this snapshot splits the
  // daemon's counters (and the twin's spans) by phase.
  daemon.signal(SIGUSR1);
  const std::string metrics_sat = daemon.read_stdout_line(5'000);
  const std::string trace_sat = cfg.twin ? daemon.read_stdout_line(5'000) : "null";
  if (cfg.twin) daemon.signal(SIGUSR2);

  const Window open = make_window(mono_ns() + 20'000'000, cfg.warmup_s, cfg.open_s);
  coord.release({false, open});
  const DaemonCpu open_cpu = sample_window(daemon.pid(), open, cpus);
  coord.wait_all();
  if (!crew.error().empty()) throw std::runtime_error(crew.error());
  const std::int64_t rcvbuf1 = udp_rcvbuf_errors();

  // The post-drain snapshot: every agent is at rest.
  daemon.signal(SIGUSR1);
  const std::string metrics = daemon.read_stdout_line(5'000);
  const std::string trace = cfg.twin ? daemon.read_stdout_line(5'000) : "null";
  crew.finish();
  const Daemon::Exit exit = daemon.stop(10'000);
  throwaway_setups(cfg.setups - 1 - setups_before);

  std::vector<const PhaseStats*> sat_threads, open_threads;
  int stuck = 0;
  std::uint64_t broken = 0, retransmits = 0, unrouted = 0;
  for (const auto& w : crew.workers()) {
    sat_threads.push_back(&w->sat());
    open_threads.push_back(&w->open());
    stuck += w->stuck();
    broken += w->broken();
    retransmits += w->retransmits();
    unrouted += w->unrouted();
  }

  Json daemon_json;
  daemon_json.boolean("clean", exit.clean)
      .str("detail", exit.detail)
      .integer("setup_rss_kb", setup_rss_kb)
      .integer("max_rss_kb", exit.max_rss_kb);
  Json out;
  out.str("mode", "drive")
      .integer("load_threads", kWorkers)
      .integer("sockets", kWorkers * kSocketsPerWorker)
      .integer("rotation_cpus", static_cast<long long>(cpus.size()))
      .raw("setup_s", json_list(setup_s))
      .raw("sat", phase_json(sat_threads, sat, sat_cpu, false))
      .raw("open", phase_json(open_threads, open, open_cpu, true))
      .num("offered_rate", cfg.rate)
      .integer("stuck_agents", stuck)
      .integer("broken_ops", static_cast<long long>(broken))
      .integer("client_retransmits", static_cast<long long>(retransmits))
      .integer("unrouted_replies", static_cast<long long>(unrouted))
      .integer("rcvbuf_errors",
               rcvbuf0 >= 0 && rcvbuf1 >= 0 ? rcvbuf1 - rcvbuf0 : -1)
      .raw("daemon", daemon_json.text())
      .raw("metrics_sat", metrics_sat)
      .raw("trace_sat", trace_sat)
      .raw("metrics", metrics)
      .raw("trace", trace);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace dmps::perf
