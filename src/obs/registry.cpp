#include "obs/registry.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

namespace dmps::obs {

namespace {

void json_escape(std::ostream& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name) {
  util::MutexLock lock(mu_);
  for (NamedCounter& c : counters_) {
    if (c.name == name) return c.instrument;
  }
  if (frozen_) {
    throw std::logic_error("MetricsRegistry frozen: cannot register counter '" +
                           name + "'");
  }
  counters_.emplace_back();
  counters_.back().name = name;
  return counters_.back().instrument;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  util::MutexLock lock(mu_);
  for (NamedGauge& g : gauges_) {
    if (g.name == name) return g.instrument;
  }
  if (frozen_) {
    throw std::logic_error("MetricsRegistry frozen: cannot register gauge '" +
                           name + "'");
  }
  gauges_.emplace_back();
  gauges_.back().name = name;
  return gauges_.back().instrument;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  util::MutexLock lock(mu_);
  for (NamedHistogram& h : histograms_) {
    if (h.name == name) return h.instrument;
  }
  if (frozen_) {
    throw std::logic_error(
        "MetricsRegistry frozen: cannot register histogram '" + name + "'");
  }
  histograms_.emplace_back();
  histograms_.back().name = name;
  return histograms_.back().instrument;
}

void MetricsRegistry::gauge_callback(const std::string& name,
                                     std::function<std::int64_t()> fn) {
  util::MutexLock lock(mu_);
  for (CallbackGauge& cb : callbacks_) {
    if (cb.name == name) {
      cb.fn = std::move(fn);
      return;
    }
  }
  if (frozen_) {
    throw std::logic_error(
        "MetricsRegistry frozen: cannot register callback gauge '" + name +
        "'");
  }
  callbacks_.push_back(CallbackGauge{name, std::move(fn)});
}

void MetricsRegistry::freeze() {
  util::MutexLock lock(mu_);
  frozen_ = true;
}

bool MetricsRegistry::frozen() const {
  util::MutexLock lock(mu_);
  return frozen_;
}

std::int64_t MetricsRegistry::value(std::string_view name) const {
  util::MutexLock lock(mu_);
  for (const NamedCounter& c : counters_) {
    if (c.name == name) return c.instrument.value();
  }
  for (const NamedGauge& g : gauges_) {
    if (g.name == name) return g.instrument.value();
  }
  for (const CallbackGauge& cb : callbacks_) {
    if (cb.name == name) return cb.fn ? cb.fn() : 0;
  }
  return 0;
}

void MetricsRegistry::write_json(std::ostream& out) const {
  util::MutexLock lock(mu_);
  // Sorted names make the snapshot diffable run over run.
  std::vector<std::pair<std::string_view, std::int64_t>> scalars;
  scalars.reserve(counters_.size());
  for (const NamedCounter& c : counters_) {
    scalars.emplace_back(c.name, c.instrument.value());
  }
  std::sort(scalars.begin(), scalars.end());
  out << "{\"counters\":{";
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    if (i != 0) out << ',';
    out << '"';
    json_escape(out, scalars[i].first);
    out << "\":" << scalars[i].second;
  }
  scalars.clear();
  for (const NamedGauge& g : gauges_) {
    scalars.emplace_back(g.name, g.instrument.value());
  }
  for (const CallbackGauge& cb : callbacks_) {
    scalars.emplace_back(cb.name, cb.fn ? cb.fn() : 0);
  }
  std::sort(scalars.begin(), scalars.end());
  out << "},\"gauges\":{";
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    if (i != 0) out << ',';
    out << '"';
    json_escape(out, scalars[i].first);
    out << "\":" << scalars[i].second;
  }
  out << "},\"histograms\":{";
  std::vector<std::pair<std::string_view, const Histogram*>> hists;
  hists.reserve(histograms_.size());
  for (const NamedHistogram& h : histograms_) {
    hists.emplace_back(h.name, &h.instrument);
  }
  std::sort(hists.begin(), hists.end());
  for (std::size_t i = 0; i < hists.size(); ++i) {
    if (i != 0) out << ',';
    const Histogram& h = *hists[i].second;
    out << '"';
    json_escape(out, hists[i].first);
    out << "\":{\"count\":" << h.count() << ",\"sum\":" << h.sum()
        << ",\"p50\":" << h.quantile(0.50) << ",\"p90\":" << h.quantile(0.90)
        << ",\"p99\":" << h.quantile(0.99) << '}';
  }
  out << "}}";
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

// dmps-lint: obs-register-begin — instrument packs resolve every name at
// construction; nothing outside these regions may find-or-create.
FloorInstruments::FloorInstruments(MetricsRegistry& registry)
    : requests(registry.counter("floor.requests")),
      granted(registry.counter("floor.granted")),
      granted_degraded(registry.counter("floor.granted_degraded")),
      denied(registry.counter("floor.denied")),
      aborted(registry.counter("floor.aborted")),
      queued(registry.counter("floor.queued")),
      suspends(registry.counter("floor.suspends")),
      resumes(registry.counter("floor.resumes")),
      promotions(registry.counter("floor.promotions")),
      releases(registry.counter("floor.releases")),
      sweeps(registry.counter("floor.sweeps")),
      sweep_passes(registry.counter("floor.sweep_passes")),
      routes_recorded(registry.counter("floor.routes_recorded")),
      route_fanout(registry.counter("floor.route_fanout")),
      decide_latency_ns(registry.histogram("floor.decide_latency_ns")) {}

FloorInstruments& FloorInstruments::global() {
  static FloorInstruments instruments(MetricsRegistry::global());
  return instruments;
}

WireInstruments::WireInstruments(MetricsRegistry& registry)
    : agent_sends(registry.counter("wire.agent.sends")),
      agent_retransmits(registry.counter("wire.agent.retransmits")),
      agent_dup_drops(registry.counter("wire.agent.dup_drops")),
      agent_acks(registry.counter("wire.agent.acks")),
      server_sends(registry.counter("wire.server.sends")),
      server_arbitrations(registry.counter("wire.server.arbitrations")),
      server_replay_hits(registry.counter("wire.server.replay_hits")),
      server_grants(registry.counter("wire.server.grants")),
      server_denies(registry.counter("wire.server.denies")),
      server_queued(registry.counter("wire.server.queued")),
      server_promotions(registry.counter("wire.server.promotions")),
      server_suspends(registry.counter("wire.server.suspends")),
      server_resumes(registry.counter("wire.server.resumes")),
      server_notify_retransmits(
          registry.counter("wire.server.notify_retransmits")),
      grant_latency_us(registry.histogram("wire.grant_latency_us")),
      udp_tx_datagrams(registry.counter("wire.udp.tx_datagrams")),
      udp_rx_datagrams(registry.counter("wire.udp.rx_datagrams")),
      udp_tx_frames(registry.counter("wire.udp.tx_frames")),
      udp_rx_frames(registry.counter("wire.udp.rx_frames")),
      udp_drop_malformed(registry.counter("wire.udp.drop_malformed")),
      udp_drop_version(registry.counter("wire.udp.drop_version")),
      udp_drop_unknown_kind(registry.counter("wire.udp.drop_unknown_kind")),
      udp_drop_unhandled(registry.counter("wire.udp.drop_unhandled")),
      udp_send_failures(registry.counter("wire.udp.send_failures")),
      udp_rx_batch(registry.histogram("wire.udp.rx_batch")),
      udp_tx_batch(registry.histogram("wire.udp.tx_batch")) {}
// dmps-lint: obs-register-end

WireInstruments& WireInstruments::global() {
  static WireInstruments instruments(MetricsRegistry::global());
  return instruments;
}

}  // namespace dmps::obs
