// dmps::obs — instruments, registry, tracing, fingerprints (DESIGN.md §7).
//
// The contracts under test, in dependency order: striped counters and
// histograms merge EXACTLY across concurrent writers; the registry is
// find-or-create, freezes hard, and snapshots to JSON; the trace ring
// overwrites oldest-first and counts what it lost; and the scenario
// fingerprint is order-insensitive per station, sensitive to decisions,
// and bit-identical across runs of a seeded loss-free session.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "session/presentation.hpp"

namespace {

using namespace dmps;
using util::Duration;

TEST(ObsMetrics, CounterMergesExactlyAcrossFourThreads) {
  obs::Counter counter;
  constexpr int kThreads = 4;
  constexpr int kAdds = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAdds; ++i) counter.add();
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Striping spreads contention; fetch_add loses nothing. The merged value
  // must be exact, not approximate.
  EXPECT_EQ(counter.value(), std::int64_t{kThreads} * kAdds);
}

TEST(ObsMetrics, CounterStaysExactPastTheExclusiveLanes) {
  // More writers than exclusive stripes: the first 16 threads to take a
  // lane own one each, and at least 8 of these writers share the fetch_add
  // cell. They start together, so the shared cell is contended.
  obs::Counter counter;
  obs::Gauge gauge;
  constexpr int kThreads =
      static_cast<int>(obs::detail::StripedSum::kExclusiveLanes) + 8;
  constexpr int kAdds = 20'000;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kAdds; ++i) {
        counter.add();
        gauge.add(3);
        gauge.sub(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), std::int64_t{kThreads} * kAdds);
  EXPECT_EQ(gauge.value(), std::int64_t{2} * kThreads * kAdds);
}

TEST(ObsMetrics, GaugeDeltasCancelAcrossThreads) {
  obs::Gauge gauge;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < 50'000; ++i) {
        gauge.add(3);
        gauge.sub(2);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(gauge.value(), 4 * 50'000);
}

TEST(ObsMetrics, HistogramCountAndSumExactAcrossFourThreads) {
  obs::Histogram histogram;
  constexpr int kThreads = 4;
  constexpr int kRecords = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kRecords; ++i) histogram.record(t + 1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(histogram.count(), std::int64_t{kThreads} * kRecords);
  // Sum of t+1 for t in 0..3 is 10, times kRecords each.
  EXPECT_EQ(histogram.sum(), std::int64_t{10} * kRecords);
}

TEST(ObsMetrics, HistogramBucketsAreLogLinear) {
  obs::Histogram histogram;
  histogram.record(0);     // bucket 0 (v <= 0)
  histogram.record(1);     // bucket 1: exact below 8
  histogram.record(7);     // bucket 7
  histogram.record(9);     // bucket 8: [8, 10), the first quarter of [8, 16)
  histogram.record(1024);  // bucket 36: [1024, 1280)
  histogram.record(std::int64_t{1} << 40);
  EXPECT_EQ(histogram.bucket(0), 1);
  EXPECT_EQ(histogram.bucket(1), 1);
  EXPECT_EQ(histogram.bucket(7), 1);
  EXPECT_EQ(histogram.bucket(8), 1);
  EXPECT_EQ(histogram.bucket(36), 1);
  EXPECT_EQ(histogram.bucket(obs::Histogram::kBuckets - 1), 1);  // >= 2^31
  EXPECT_EQ(obs::Histogram::bucket_lower_bound(36), 1024);
  EXPECT_EQ(obs::Histogram::bucket_lower_bound(37), 1280);
  EXPECT_EQ(obs::Histogram::bucket_lower_bound(obs::Histogram::kBuckets - 1),
            std::int64_t{1} << 31);
  // Every bucket starts where the previous one ends.
  for (std::size_t b = 1; b < obs::Histogram::kBuckets; ++b) {
    const std::int64_t lo = obs::Histogram::bucket_lower_bound(b);
    EXPECT_EQ(obs::Histogram::bucket_index(lo), b);
    EXPECT_EQ(obs::Histogram::bucket_index(lo - 1), b - 1);
  }
  // The open top bucket reports its lower edge.
  EXPECT_EQ(histogram.quantile(1.0), std::int64_t{1} << 31);
}

TEST(ObsMetrics, HistogramQuantilesAreNearTheSamples) {
  // Batches that all hold one datagram read p50 = 1, not 2.
  obs::Histogram ones;
  for (int i = 0; i < 9; ++i) ones.record(1);
  EXPECT_EQ(ones.quantile(0.50), 1);
  EXPECT_EQ(ones.quantile(0.99), 1);

  obs::Histogram histogram;
  for (std::int64_t v = 1; v <= 10'000; ++v) histogram.record(v);
  for (const double q : {0.50, 0.90, 0.99}) {
    const auto nearest_rank = static_cast<double>(q * 10'000);
    const auto got = static_cast<double>(histogram.quantile(q));
    EXPECT_NEAR(got, nearest_rank, 0.25 * nearest_rank) << "q = " << q;
  }
}

TEST(ObsRegistry, FindOrCreateSharesInstrumentsByName) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("x.count");
  obs::Counter& b = registry.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.add(2);
  b.add(3);
  EXPECT_EQ(registry.value("x.count"), 5);
  EXPECT_EQ(registry.value("never.registered"), 0);
}

TEST(ObsRegistry, FreezeRefusesNewRegistrationsButAllowsLookups) {
  obs::MetricsRegistry registry;
  obs::Counter& known = registry.counter("known");
  registry.freeze();
  EXPECT_TRUE(registry.frozen());
  // The tripwire: a lazy first-use registration inside a hot loop throws
  // instead of silently allocating.
  EXPECT_THROW(registry.counter("new.after.freeze"), std::logic_error);
  EXPECT_THROW(registry.histogram("new.after.freeze"), std::logic_error);
  // Existing names keep working both ways.
  EXPECT_EQ(&registry.counter("known"), &known);
  known.add();
  EXPECT_EQ(registry.value("known"), 1);
}

TEST(ObsRegistry, JsonSnapshotCarriesCountersGaugesAndCallbacks) {
  obs::MetricsRegistry registry;
  registry.counter("c.one").add(7);
  registry.gauge("g.level").add(3);
  registry.histogram("h.lat").record(5);
  registry.gauge_callback("cb.depth", [] { return std::int64_t{42}; });
  std::ostringstream out;
  registry.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"c.one\""), std::string::npos);
  EXPECT_NE(json.find("\"g.level\""), std::string::npos);
  EXPECT_NE(json.find("\"h.lat\""), std::string::npos);
  EXPECT_NE(json.find("\"cb.depth\""), std::string::npos);
  EXPECT_NE(json.find("42"), std::string::npos);
}

TEST(ObsTrace, RingOverflowKeepsNewestAndCountsDrops) {
  obs::TraceRing ring(4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    obs::TraceEvent ev;
    ev.actor = i;
    ring.push(ev);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  // Oldest-first iteration over exactly the newest window: 6, 7, 8, 9.
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring.at(i).actor, 6u + i) << i;
  }
}

TEST(ObsTrace, FingerprintIsOrderInsensitiveAcrossActors) {
  // The same per-actor event multisets interleaved two ways: the parallel
  // floor path's thread schedule must not be able to change a fingerprint.
  obs::Tracer forward;
  obs::Tracer shuffled;
  for (std::uint32_t actor = 0; actor < 8; ++actor) {
    forward.emit(obs::Ev::kDecide, actor, 1, 0, 100 + actor);
    forward.emit(obs::Ev::kRelease, actor, 1);
  }
  for (std::uint32_t actor = 8; actor-- > 0;) {
    shuffled.emit(obs::Ev::kRelease, actor, 1);
    shuffled.emit(obs::Ev::kDecide, actor, 1, 0, 100 + actor);
  }
  EXPECT_EQ(forward.fingerprint(), shuffled.fingerprint());
  EXPECT_NE(forward.fingerprint(), 0u);
}

TEST(ObsTrace, FingerprintSeesDecisionsNotMailboxCadence) {
  obs::Tracer a;
  obs::Tracer b;
  a.emit(obs::Ev::kDecide, 1, 1, 0);
  b.emit(obs::Ev::kDecide, 1, 1, 0);
  // Mailbox events are trace-only: their cadence depends on thread timing
  // even when the decisions are deterministic.
  b.emit(obs::Ev::kMailboxDrain, 0, 0, 0, 17);
  b.emit(obs::Ev::kMailboxDrain, 3, 0, 0, 1);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  // A changed decision arg (a different Outcome) changes the fingerprint.
  b.emit(obs::Ev::kDecide, 1, 1, 1);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(ObsTrace, HubMergeEqualsSingleTracerFold) {
  // Splitting the same event stream across a hub's tracers (as the shard
  // workers do) must produce the same fingerprint as one tracer seeing it
  // all: per-key sums merge before the canonical combine.
  obs::Tracer solo;
  obs::TraceHub hub(3, 64);
  for (std::uint32_t i = 0; i < 30; ++i) {
    solo.emit(obs::Ev::kDecide, i % 5, 1 + (i % 2), 0, i);
    hub.tracer(i % 3).emit(obs::Ev::kDecide, i % 5, 1 + (i % 2), 0, i);
  }
  EXPECT_EQ(hub.fingerprint(), solo.fingerprint());
}

TEST(ObsTrace, ChromeTraceExportIsWellFormed) {
  obs::Tracer tracer;
  tracer.set_time_source([] { return std::int64_t{1234}; });
  tracer.emit(obs::Ev::kGrant, 7, 2);
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":", 0), 0u);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":7"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1234"), std::string::npos);
}

session::SessionConfig fingerprint_config(floorctl::PolicyKind policy) {
  // Loss-free and seeded: the event stream is a pure function of seed and
  // policy. QoS 0.5 against capacity 1.0 forces contention, so the policy
  // actually decides something — kThreeRegime suspends/denies where
  // kQueueing parks, giving the two policies different decision streams.
  session::SessionConfig config;
  config.seed = 404;
  config.stations = 6;
  config.loss = 0.0;
  config.policy = policy;
  config.qos = media::QosRequirement{0.5, 0.5, 0.5};
  config.media_len = Duration::seconds(4);
  config.request_stagger = Duration::millis(300);
  config.max_request_attempts = 1;
  return config;
}

TEST(ObsFingerprint, SeededLossFreeSessionIsBitIdenticalAcrossRuns) {
  const auto config = fingerprint_config(floorctl::PolicyKind::kThreeRegime);
  session::Presentation a(config);
  session::Presentation b(config);
  (void)a.run(Duration::seconds(90));
  (void)b.run(Duration::seconds(90));
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), 0u);
}

TEST(ObsFingerprint, PolicyChangeChangesTheFingerprint) {
  session::Presentation three(
      fingerprint_config(floorctl::PolicyKind::kThreeRegime));
  session::Presentation queueing(
      fingerprint_config(floorctl::PolicyKind::kQueueing));
  (void)three.run(Duration::seconds(90));
  (void)queueing.run(Duration::seconds(90));
  // Same seed, same stations, same load — only the arbitration policy
  // differs. The fingerprint is a regression hash of decisions, so it must
  // see that.
  EXPECT_NE(three.fingerprint(), queueing.fingerprint());
}

}  // namespace
