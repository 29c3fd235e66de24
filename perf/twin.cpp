// dmps_perf serve: the traced twin of dmps_floord.
//
// The daemon's own setup, step for step (tools/dmps_floord.cpp at its
// single-port default): one UdpEndpoint, the conference registered under
// one registry batch, a ShardedFloorService with thresholds {0.25, 0.05},
// one FloorServer with notify retry 100 ms, signals on a signalfd. The
// twin adds timing only at the two public seams, from outside the product:
//
//   TimedEndpoint     wraps the UdpEndpoint: every handler dispatch
//                     (fproto.join/leave/request/release/suspend_ack/
//                     resume_ack), every timer callback (fproto.timer) and
//                     every send (transport.send) is a span;
//   TimedFloorControl wraps the service: floor.request, floor.release;
//   the loop          the twin calls UdpLoop::poll() itself and reads the
//                     thread CPU clock around each turn (transport.poll).
//
// A layer's self time is its span minus its children: transport =
// poll CPU minus the dispatches it ran (syscalls, frame decode, flush) plus
// sends; fproto = handler and timer spans minus their floor and send
// children; floor = the service calls. Spans live in preallocated memory;
// SIGUSR2 starts a fresh measurement, SIGUSR1 prints the metrics snapshot
// and then the span statistics as two JSON lines, and at exit the spans go
// to --trace-out as a Chrome trace (chrome://tracing, Perfetto).

#include <signal.h>
#include <sys/signalfd.h>
#include <unistd.h>

#include <array>
#include <cmath>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "floor/group.hpp"
#include "floor/sharded_service.hpp"
#include "fproto/codec.hpp"
#include "fproto/server.hpp"
#include "obs/registry.hpp"
#include "perf.hpp"
#include "proc.hpp"
#include "transport/udp.hpp"
#include "util/rng.hpp"
#include "wire_common.hpp"

namespace dmps::perf {

namespace {

enum SpanKind : std::uint8_t {
  kPoll,
  kJoin,
  kLeave,
  kRequest,
  kRelease,
  kSuspendAck,
  kResumeAck,
  kTimer,
  kFloorRequest,
  kFloorRelease,
  kSend,
  kSpanKinds,
};

constexpr std::array<const char*, kSpanKinds> kSpanNames = {
    "transport.poll",     "fproto.join",       "fproto.leave",
    "fproto.request",     "fproto.release",    "fproto.suspend_ack",
    "fproto.resume_ack",  "fproto.timer",      "floor.request",
    "floor.release",      "transport.send"};

constexpr std::size_t kTraceCapacity = 50'000;      // spans kept for the trace
constexpr std::size_t kSampleCapacity = 1u << 18;   // per-kind reservoir
constexpr std::uint32_t kNoSlot = 0xffffffffu;

/// Span recorder: a stack of open spans, per-kind self-time statistics
/// over every span (reservoir-sampled percentiles, exact sums), and the
/// first kTraceCapacity spans since the last reset for the Chrome trace.
class Spans {
 public:
  Spans() : rng_(0x5eed) {
    trace_.reserve(kTraceCapacity);
    stack_.reserve(16);
    for (KindStats& k : stats_) k.samples.reserve(kSampleCapacity);
    reset();
  }

  void begin(SpanKind kind, std::uint64_t id) {
    Open open;
    open.kind = kind;
    open.id = id;
    open.parent = stack_.empty() ? turn_slot_ : stack_.back().slot;
    open.slot = take_slot();
    open.start = mono_ns();
    stack_.push_back(open);
  }

  void end() {
    const std::int64_t now = mono_ns();
    const Open open = stack_.back();
    stack_.pop_back();
    const std::int64_t total = now - open.start;
    record(open.kind, total - open.child_ns, total);
    fill(open.slot, Span{open.start, now, open.id, open.parent, open.kind});
    if (stack_.empty()) {
      turn_child_ns_ += total;
      ++turn_dispatches_;
    } else {
      stack_.back().child_ns += total;
    }
  }

  void turn_begin() {
    turn_child_ns_ = 0;
    turn_dispatches_ = 0;
    turn_slot_ = take_slot();
    turn_wall0_ = mono_ns();
    turn_cpu0_ = thread_cpu_ns();
  }

  void turn_end() {
    const std::int64_t cpu = thread_cpu_ns() - turn_cpu0_;
    const std::int64_t wall1 = mono_ns();
    busy_ns_ += cpu;
    ++turns_;
    // Children are wall-clock spans inside a CPU-clock turn; preemption can
    // make them exceed it, so self time is clamped at zero.
    record(kPoll, std::max<std::int64_t>(0, cpu - turn_child_ns_), cpu);
    if (turn_dispatches_ > 0) {
      ++busy_turns_;
      dispatches_ += turn_dispatches_;
      fill(turn_slot_, Span{turn_wall0_, wall1, 0, kNoSlot, kPoll});
    } else if (turn_slot_ != kNoSlot && turn_slot_ + 1 == trace_.size()) {
      trace_.pop_back();  // an idle turn is not worth a trace slot
    }
    turn_slot_ = kNoSlot;
  }

  /// Start a fresh measurement (the generator's first phase begins).
  void reset() {
    for (KindStats& k : stats_) {
      k.count = 0;
      k.seen = 0;
      k.self_ns = 0;
      k.total_ns = 0;
      k.samples.clear();
    }
    trace_.clear();
    trace_dropped_ = 0;
    busy_ns_ = 0;
    turns_ = 0;
    busy_turns_ = 0;
    dispatches_ = 0;
    epoch_ns_ = mono_ns();
  }

  std::string stats_json() const {
    Json kinds;
    for (int k = 0; k < kSpanKinds; ++k) {
      const KindStats& s = stats_[static_cast<std::size_t>(k)];
      std::vector<std::int32_t> sample = s.samples;
      const Summary self = summarize(sample);
      // A percentile without ten samples beyond it is written as null.
      const auto supported_or_nan = [&](double p, double value) {
        return supported(sample.size(), p) ? value : std::nan("");
      };
      Json j;
      j.integer("count", static_cast<long long>(s.count))
          .integer("self_ns_sum", s.self_ns)
          .integer("total_ns_sum", s.total_ns)
          .num("self_ns_p50", supported_or_nan(50, self.p50))
          .num("self_ns_p99", supported_or_nan(99, self.p99));
      kinds.raw(kSpanNames[static_cast<std::size_t>(k)], j.text());
    }
    Json out;
    out.integer("busy_ns", busy_ns_)
        .integer("turns", static_cast<long long>(turns_))
        .integer("busy_turns", static_cast<long long>(busy_turns_))
        .integer("dispatches", static_cast<long long>(dispatches_))
        .integer("trace_spans", static_cast<long long>(trace_.size()))
        .integer("trace_dropped", static_cast<long long>(trace_dropped_))
        .raw("kinds", kinds.text());
    return out.text();
  }

  void write_chrome_trace(std::ostream& out) const {
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    char buf[256];
    for (std::size_t i = 0; i < trace_.size(); ++i) {
      const Span& s = trace_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                    "\"parent\":%lld,\"id\":%llu}}",
                    i ? ",\n" : "", kSpanNames[s.kind],
                    static_cast<double>(s.start - epoch_ns_) / 1e3,
                    static_cast<double>(s.end - s.start) / 1e3, i,
                    s.parent == kNoSlot ? -1LL : static_cast<long long>(s.parent),
                    static_cast<unsigned long long>(s.id));
      out << buf;
    }
    out << "\n]}\n";
  }

 private:
  struct Open {
    SpanKind kind = kPoll;
    std::int64_t start = 0;
    std::int64_t child_ns = 0;
    std::uint64_t id = 0;
    std::uint32_t parent = kNoSlot;
    std::uint32_t slot = kNoSlot;
  };
  struct Span {
    std::int64_t start;
    std::int64_t end;
    std::uint64_t id;
    std::uint32_t parent;
    SpanKind kind;
  };
  struct KindStats {
    std::uint64_t count = 0;
    std::uint64_t seen = 0;
    std::int64_t self_ns = 0;
    std::int64_t total_ns = 0;
    std::vector<std::int32_t> samples;
  };

  std::uint32_t take_slot() {
    if (trace_.size() == kTraceCapacity) {
      ++trace_dropped_;
      return kNoSlot;
    }
    trace_.push_back(Span{0, 0, 0, kNoSlot, kPoll});
    return static_cast<std::uint32_t>(trace_.size() - 1);
  }

  void fill(std::uint32_t slot, const Span& span) {
    if (slot != kNoSlot) trace_[slot] = span;
  }

  void record(SpanKind kind, std::int64_t self, std::int64_t total) {
    KindStats& k = stats_[kind];
    ++k.count;
    k.self_ns += self;
    k.total_ns += total;
    const auto v = static_cast<std::int32_t>(std::min<std::int64_t>(self, INT32_MAX));
    // Reservoir sampling keeps the percentiles unbiased past the capacity.
    if (k.samples.size() < kSampleCapacity) {
      k.samples.push_back(v);
    } else {
      const std::size_t j = rng_.index(++k.seen + kSampleCapacity);
      if (j < kSampleCapacity) k.samples[j] = v;
    }
  }

  std::vector<Open> stack_;
  std::vector<Span> trace_;
  std::uint64_t trace_dropped_ = 0;
  std::array<KindStats, kSpanKinds> stats_;
  util::Rng rng_;
  std::int64_t epoch_ns_ = 0;

  std::uint32_t turn_slot_ = kNoSlot;
  std::int64_t turn_cpu0_ = 0;
  std::int64_t turn_wall0_ = 0;
  std::int64_t turn_child_ns_ = 0;
  std::uint64_t turn_dispatches_ = 0;
  std::int64_t busy_ns_ = 0;
  std::uint64_t turns_ = 0;
  std::uint64_t busy_turns_ = 0;
  std::uint64_t dispatches_ = 0;
};

SpanKind handler_span(net::MsgType type) {
  const auto kind = fproto::kind_of(type);
  if (kind) {
    switch (*kind) {
      case fproto::MsgKind::kJoin: return kJoin;
      case fproto::MsgKind::kLeave: return kLeave;
      case fproto::MsgKind::kRequest: return kRequest;
      case fproto::MsgKind::kRelease: return kRelease;
      case fproto::MsgKind::kSuspendAck: return kSuspendAck;
      case fproto::MsgKind::kResumeAck: return kResumeAck;
      default: break;
    }
  }
  throw std::logic_error("the twin times server-side fproto kinds only");
}

/// The transport seam, timed.
class TimedEndpoint final : public transport::Endpoint {
 public:
  TimedEndpoint(transport::UdpEndpoint& inner, Spans& spans)
      : inner_(inner), spans_(spans) {}

  [[nodiscard]] bool on(net::MsgType type, Handler handler) override {
    const SpanKind kind = handler_span(type);
    return inner_.on(type, [this, kind, handler = std::move(handler)](
                               const net::Message& msg) {
      // Request and release lead with the request id; join and leave with
      // the member; the acks with the notify id.
      spans_.begin(kind, msg.ints.empty() ? 0 : static_cast<std::uint64_t>(msg.ints[0]));
      handler(msg);
      spans_.end();
    });
  }
  void off(net::MsgType type) override { inner_.off(type); }
  void send(net::NodeId to, net::MsgType type, net::Payload ints) override {
    spans_.begin(kSend, ints.empty() ? 0 : static_cast<std::uint64_t>(ints[0]));
    inner_.send(to, type, std::move(ints));
    spans_.end();
  }
  transport::TimerId schedule_in(util::Duration delay,
                                 std::function<void()> cb) override {
    return inner_.schedule_in(delay, [this, cb = std::move(cb)] {
      spans_.begin(kTimer, 0);
      cb();
      spans_.end();
    });
  }
  bool cancel(transport::TimerId id) override { return inner_.cancel(id); }
  util::TimePoint now() const override { return inner_.now(); }

 private:
  transport::UdpEndpoint& inner_;
  Spans& spans_;
};

/// The arbitration seam, timed.
class TimedFloorControl final : public floorctl::FloorControl {
 public:
  TimedFloorControl(floorctl::FloorControl& inner, Spans& spans)
      : inner_(inner), spans_(spans) {}

  floorctl::Decision request(const floorctl::FloorRequest& request) override {
    spans_.begin(kFloorRequest, request.member.value());
    floorctl::Decision decision = inner_.request(request);
    spans_.end();
    return decision;
  }
  floorctl::ReleaseResult release(floorctl::MemberId member,
                                  floorctl::GroupId group) override {
    spans_.begin(kFloorRelease, member.value());
    floorctl::ReleaseResult result = inner_.release(member, group);
    spans_.end();
    return result;
  }

 private:
  floorctl::FloorControl& inner_;
  Spans& spans_;
};

}  // namespace

int run_serve(int argc, char** argv) {
  const auto port =
      static_cast<std::uint16_t>(tools::flag_long(argc, argv, "--port", 0));
  tools::WireTopology topology;
  topology.hosts = static_cast<int>(tools::flag_long(argc, argv, "--hosts", 4));
  topology.groups = static_cast<int>(tools::flag_long(argc, argv, "--groups", 4));
  const int members = static_cast<int>(tools::flag_long(argc, argv, "--members", 64));
  const double capacity = tools::flag_double(argc, argv, "--capacity", 4.0);
  const std::string policy_name =
      tools::flag_string(argc, argv, "--policy", "three_regime");
  const std::string trace_out = tools::flag_string(argc, argv, "--trace-out", "");
  floorctl::PolicyKind policy = floorctl::PolicyKind::kThreeRegime;
  if (policy_name == "queueing") {
    policy = floorctl::PolicyKind::kQueueing;
  } else if (policy_name != "three_regime") {
    throw std::invalid_argument("unknown --policy " + policy_name);
  }

  obs::MetricsRegistry metrics;
  obs::WireInstruments wire(metrics);
  obs::FloorInstruments floor(metrics);

  transport::UdpLoop loop;
  transport::LoopClock clock(loop);
  transport::UdpEndpoint socket(loop, fproto::wire_schema(), port, &wire);

  floorctl::GroupRegistry registry;
  std::vector<floorctl::MemberId> member_ids;
  std::vector<floorctl::GroupId> group_ids;
  {
    floorctl::GroupRegistry::Batch batch(registry);
    const floorctl::MemberId chair =
        registry.add_member("moderator", 1'000'000, floorctl::HostId{1});
    for (int i = 0; i < members; ++i) {
      member_ids.push_back(registry.add_member(
          "m" + std::to_string(i), 1 + (i % 3),
          floorctl::HostId{static_cast<std::uint32_t>(topology.host_of(i))}));
    }
    for (int g = 0; g < topology.groups; ++g) {
      group_ids.push_back(registry.create_group(
          "g" + std::to_string(g), floorctl::FcmMode::kFreeAccess, chair, policy));
    }
  }
  floorctl::ShardedFloorService service(registry, clock,
                                        resource::Thresholds{0.25, 0.05});
  service.set_observability(&floor, nullptr);
  for (int h = 0; h < topology.hosts; ++h) {
    service.add_host(floorctl::HostId{static_cast<std::uint32_t>(1 + h)},
                     resource::Resource{capacity, capacity, capacity});
  }

  Spans spans;
  TimedEndpoint endpoint(socket, spans);
  TimedFloorControl control(service, spans);
  fproto::ServerConfig server_config;
  server_config.notify_retry = util::Duration::millis(100);
  server_config.obs = &wire;
  fproto::FloorServer server(endpoint, registry, control, server_config);
  metrics.freeze();

  sigset_t mask;
  sigemptyset(&mask);
  for (const int sig : {SIGINT, SIGTERM, SIGUSR1, SIGUSR2}) sigaddset(&mask, sig);
  if (sigprocmask(SIG_BLOCK, &mask, nullptr) != 0) throw std::runtime_error("sigprocmask");
  const int signal_fd = signalfd(-1, &mask, SFD_NONBLOCK | SFD_CLOEXEC);
  if (signal_fd < 0) throw std::runtime_error("signalfd");
  bool running = true;
  loop.add_fd(signal_fd, [&] {
    signalfd_siginfo info;
    while (read(signal_fd, &info, sizeof(info)) == sizeof(info)) {
      if (info.ssi_signo == SIGUSR1) {
        metrics.write_json(std::cout);
        std::cout << '\n' << spans.stats_json() << '\n' << std::flush;
      } else if (info.ssi_signo == SIGUSR2) {
        spans.reset();
      } else {
        running = false;
      }
    }
  });

  std::fprintf(stderr,
               "dmps_perf serve: listening on udp/%u-%u (hosts=%d groups=%d "
               "members=%d capacity=%.2f policy=%s)\n",
               socket.local_port(), socket.local_port(), topology.hosts,
               topology.groups, members, capacity, policy_name.c_str());

  while (running) {
    spans.turn_begin();
    loop.poll();
    spans.turn_end();
  }

  // The daemon's shutdown: release everything, sweep every host, dump.
  for (const floorctl::MemberId member : member_ids) {
    for (const floorctl::GroupId group : group_ids) service.release(member, group);
  }
  for (int h = 0; h < topology.hosts; ++h) {
    service.sweep(floorctl::HostId{static_cast<std::uint32_t>(1 + h)});
  }
  metrics.write_json(std::cout);
  std::cout << '\n' << std::flush;
  loop.remove_fd(signal_fd);
  close(signal_fd);
  if (!trace_out.empty()) {
    std::ofstream out(trace_out, std::ios::trunc);
    spans.write_chrome_trace(out);
    if (!out) throw std::runtime_error("cannot write " + trace_out);
  }
  return 0;
}

}  // namespace dmps::perf
