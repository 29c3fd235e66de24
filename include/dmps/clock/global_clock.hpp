#pragma once
// The paper's §3 global clock.
//
// A GlobalClockServer answers time probes with the authority clock's
// reading. A GlobalClockClient sends a burst of N probes per sync round
// (Cristian-style), keeps the minimum-RTT sample of the round — the one
// least distorted by jitter — and maintains `offset` such that
// global ≈ local + offset between rounds. Both speak through their
// station's net::Demux and the client takes its round timer from it. They
// hold the Demux itself, not a net::Endpoint: probes and replies are most
// of a session's messages, and Demux is final, so every call is direct.
//
// AdmissionController is the paper's firing rule verbatim: "if the clock in
// client side is faster than global clock, the current transition will not
// fire until global clock arrives ... if slower ... fire without delay".

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>

#include "clock/drift_clock.hpp"
#include "net/sim_network.hpp"
#include "sim/simulator.hpp"
#include "util/duration.hpp"

namespace dmps::clk {

/// Answers "clk.req" probes on its Demux with the authority's reading.
class GlobalClockServer {
 public:
  GlobalClockServer(net::Demux& demux, Clock& authority);
  ~GlobalClockServer();
  GlobalClockServer(const GlobalClockServer&) = delete;
  GlobalClockServer& operator=(const GlobalClockServer&) = delete;

  std::uint64_t probes_answered() const { return answered_; }

 private:
  net::Demux& demux_;
  Clock& authority_;
  std::uint64_t answered_ = 0;
};

struct SyncConfig {
  util::Duration period = util::Duration::seconds(1);  // time between rounds
  int samples = 8;                                     // probes per round
};

class GlobalClockClient {
 public:
  GlobalClockClient(net::Demux& demux, Clock& local, net::NodeId server,
                    SyncConfig config);
  ~GlobalClockClient();
  GlobalClockClient(const GlobalClockClient&) = delete;
  GlobalClockClient& operator=(const GlobalClockClient&) = delete;

  /// Begin periodic sync rounds (the first fires immediately).
  void start();

  /// Cancel periodic rounds (also done on destruction). start() re-arms.
  void stop();

  /// Fire one sync round now: send `config.samples` probes. The offset
  /// updates as replies arrive; callers typically run the simulator for at
  /// least one RTT afterwards.
  void sync_once();

  /// Estimated (global - local). Zero until the first reply arrives.
  util::Duration offset() const { return offset_; }

  /// Best estimate of the global clock: local reading plus offset.
  util::TimePoint global_now() const { return local_.now() + offset_; }

  bool synchronized() const { return replies_ > 0; }
  std::uint64_t rounds() const { return round_; }
  std::uint64_t replies() const { return replies_; }

 private:
  void handle_reply(const net::Message& msg);

  net::Demux& demux_;
  Clock& local_;
  net::NodeId server_;
  SyncConfig config_;
  bool running_ = false;
  net::TimerId pending_tick_ = 0;

  std::uint64_t round_ = 0;  // also the probe cookie's high word
  util::Duration offset_ = util::Duration::zero();
  util::Duration round_best_rtt_ = util::Duration::zero();
  bool round_has_sample_ = false;
  std::uint64_t replies_ = 0;
};

/// The §3 admission rule, applied when a client's own schedule says a
/// transition with global deadline D is due:
///  - estimated global time already >= D (the local clock ran slow):
///    fire immediately, without delay;
///  - estimated global time < D (the local clock ran fast): hold the
///    transition until the global clock arrives at D.
class AdmissionController {
 public:
  AdmissionController(sim::Simulator& sim, GlobalClockClient& client)
      : sim_(sim), client_(client) {}
  /// Cancels every pending hold: callbacks scheduled into the simulator
  /// must not outlive the controller they capture.
  ~AdmissionController();
  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Fire `fire` as close to global instant `deadline` as the synchronized
  /// clock allows. Synchronous when the deadline has already passed.
  void admit(util::TimePoint deadline, std::function<void()> fire);

  /// Current global estimate (forwarded from the client).
  util::TimePoint global_now() const { return client_.global_now(); }

  /// Transitions that fired synchronously on admit (global deadline had
  /// already passed) vs those held for the global clock. One count per
  /// admitted transition; internal re-checks while holding don't recount.
  std::uint64_t immediate_fires() const { return immediate_; }
  std::uint64_t held_fires() const { return held_; }

 private:
  void wait_or_fire(util::TimePoint deadline, std::function<void()> fire);

  sim::Simulator& sim_;
  GlobalClockClient& client_;
  std::uint64_t immediate_ = 0;
  std::uint64_t held_ = 0;
  std::unordered_set<sim::EventId> pending_;
};

}  // namespace dmps::clk
