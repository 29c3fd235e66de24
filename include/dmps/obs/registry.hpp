#pragma once
// MetricsRegistry: named ownership of obs instruments, plus the one JSON
// snapshot everything reports through.
//
// A registry owns its instruments in deques (stable addresses — the
// atomics are neither copyable nor movable) and hands out references that
// stay valid for the registry's lifetime. Registration is idempotent by
// name: asking for an existing name returns the existing instrument, so
// several components can share one logical counter by agreeing on its
// name. Callback gauges register a std::function read at snapshot time —
// the pull-style instrument for levels that already live in component
// state (GrantStore occupancy, network totals), costing the hot path
// nothing.
//
// The pre-registration rule (DESIGN.md §7): register every instrument
// before the hot path runs, then freeze(). A frozen registry refuses new
// registrations with std::logic_error — catching the "first increment
// allocates inside the alloc-probed hot loop" bug at the source. Lookups
// and increments are always allowed.
//
// Instrument packs (FloorInstruments, WireInstruments) bundle the
// instruments one layer writes, resolved once at construction so the hot
// path holds plain references. Components default to the process-global
// pack; a Presentation builds per-session packs over its own registry.

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/sync.hpp"
#include "obs/metrics.hpp"

namespace dmps::obs {

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name. Throws std::logic_error when frozen and the
  /// name is new.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);
  /// Pull-style gauge: `fn` is invoked at snapshot (write_json / value)
  /// time. Re-registering a name replaces its callback.
  void gauge_callback(const std::string& name, std::function<std::int64_t()> fn);

  /// No further registrations; increments and reads stay allowed.
  void freeze();
  bool frozen() const;

  /// Current value of a counter, gauge or callback gauge by name; 0 for
  /// unknown names (snapshot readers must not throw mid-report).
  std::int64_t value(std::string_view name) const;

  /// Snapshot every instrument as one JSON object, names sorted:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,p50,
  /// p90,p99}}}.
  void write_json(std::ostream& out) const;

  /// The process-default registry components fall back to when no
  /// per-session registry is wired in.
  static MetricsRegistry& global();

 private:
  struct NamedCounter {
    std::string name;
    Counter instrument;
  };
  struct NamedGauge {
    std::string name;
    Gauge instrument;
  };
  struct NamedHistogram {
    std::string name;
    Histogram instrument;
  };
  struct CallbackGauge {
    std::string name;
    std::function<std::int64_t()> fn;
  };

  // Registration/lookup lock. The instruments themselves are atomics the
  // hot path hits without this mutex; mu_ only guards the name tables.
  // The deques hand out stable references, so a reference obtained under
  // mu_ stays valid lock-free afterwards.
  mutable util::Mutex mu_;
  bool frozen_ DMPS_GUARDED_BY(mu_) = false;
  std::deque<NamedCounter> counters_ DMPS_GUARDED_BY(mu_);
  std::deque<NamedGauge> gauges_ DMPS_GUARDED_BY(mu_);
  std::deque<NamedHistogram> histograms_ DMPS_GUARDED_BY(mu_);
  std::vector<CallbackGauge> callbacks_ DMPS_GUARDED_BY(mu_);
};

/// The floor-control layer's instruments (FloorService and the
/// ShardedFloorService around it write these). One pack per registry;
/// names are stable API — the session stats migration and the bench JSON
/// read them back by name.
struct FloorInstruments {
  Counter& requests;           // floor.requests
  Counter& granted;            // floor.granted
  Counter& granted_degraded;   // floor.granted_degraded
  Counter& denied;             // floor.denied
  Counter& aborted;            // floor.aborted
  Counter& queued;             // floor.queued
  Counter& suspends;           // floor.suspends
  Counter& resumes;            // floor.resumes
  Counter& promotions;         // floor.promotions
  Counter& releases;           // floor.releases
  Counter& sweeps;             // floor.sweeps (capacity-change hook calls)
  Counter& sweep_passes;       // floor.sweep_passes (fixpoint iterations)
  Counter& routes_recorded;    // floor.routes_recorded
  Counter& route_fanout;       // floor.route_fanout (shards per release)
  Histogram& decide_latency_ns;  // floor.decide_latency_ns (1-in-64 sampled)

  explicit FloorInstruments(MetricsRegistry& registry);
  static FloorInstruments& global();
};

/// The fproto wire layer's instruments (FloorAgent + FloorServer), plus
/// the session-level grant latency.
struct WireInstruments {
  Counter& agent_sends;              // wire.agent.sends
  Counter& agent_retransmits;        // wire.agent.retransmits
  Counter& agent_dup_drops;          // wire.agent.dup_drops
  Counter& agent_acks;               // wire.agent.acks
  Counter& server_sends;             // wire.server.sends
  Counter& server_arbitrations;      // wire.server.arbitrations
  Counter& server_replay_hits;       // wire.server.replay_hits
  Counter& server_grants;            // wire.server.grants
  Counter& server_denies;            // wire.server.denies
  Counter& server_queued;            // wire.server.queued
  Counter& server_promotions;        // wire.server.promotions
  Counter& server_suspends;          // wire.server.suspends
  Counter& server_resumes;           // wire.server.resumes
  Counter& server_notify_retransmits;  // wire.server.notify_retransmits
  Histogram& grant_latency_us;       // wire.grant_latency_us (request->grant)

  // UDP backend (transport/udp.hpp): datagram- and frame-level accounting.
  // A datagram carries one or more frames; one that does not tile into
  // frames is counted once in its drop class and dropped whole, never
  // crashes the loop.
  Counter& udp_tx_datagrams;         // wire.udp.tx_datagrams (sendmmsg accepted)
  Counter& udp_rx_datagrams;         // wire.udp.rx_datagrams
  Counter& udp_tx_frames;            // wire.udp.tx_frames (incl. send-filtered)
  Counter& udp_rx_frames;            // wire.udp.rx_frames (in datagrams that passed)
  Counter& udp_drop_malformed;       // wire.udp.drop_malformed (short/bad magic/lanes/too long)
  Counter& udp_drop_version;         // wire.udp.drop_version
  Counter& udp_drop_unknown_kind;    // wire.udp.drop_unknown_kind (per frame)
  Counter& udp_drop_unhandled;       // wire.udp.drop_unhandled (per frame, no handler for type)
  Counter& udp_send_failures;        // wire.udp.send_failures (refused sends, skipped datagrams)
  // Batch I/O shape: datagrams moved per recvmmsg/sendmmsg syscall. A mean
  // near 1 means the endpoint pays one syscall per datagram (idle or
  // trickle traffic); under load the daemon's rx mean should sit well
  // above 1 — that amortization is the whole point of the batch path.
  Histogram& udp_rx_batch;           // wire.udp.rx_batch
  Histogram& udp_tx_batch;           // wire.udp.tx_batch

  explicit WireInstruments(MetricsRegistry& registry);
  static WireInstruments& global();
};

}  // namespace dmps::obs
