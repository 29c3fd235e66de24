// dmps::obs — instruments, registry, tracing, fingerprints (DESIGN.md §7).
//
// The contracts under test, in dependency order: an instrument's one
// writer keeps counts and histograms exact while another thread reads
// them; the registry is find-or-create, freezes hard, and snapshots to
// JSON; the trace ring overwrites oldest-first and counts what it lost;
// and the scenario fingerprint is order-insensitive per station,
// sensitive to decisions, pinned to a golden value, and bit-identical
// across runs of a seeded loss-free session.

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

TEST(ObsMetrics, SingleWriterIsExactWhileAnotherThreadReads) {
  // The contract: one writer thread per instrument, readers anywhere. The
  // reader's view of each cell never goes backwards, and once the writer
  // is done every value is exact.
  obs::Counter counter;
  obs::Histogram histogram;
  constexpr int kUpdates = 200'000;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < kUpdates; ++i) {
      counter.add(2);
      histogram.record(i % 100 + 1);
    }
    done.store(true, std::memory_order_release);
  });
  std::int64_t last_value = 0;
  std::int64_t last_count = 0;
  std::int64_t last_sum = 0;
  int decreases = 0;
  for (bool finished = false; !finished;) {
    finished = done.load(std::memory_order_acquire);
    const std::int64_t value = counter.value();
    const std::int64_t count = histogram.count();
    const std::int64_t sum = histogram.sum();
    if (value < last_value || count < last_count || sum < last_sum) ++decreases;
    last_value = value;
    last_count = count;
    last_sum = sum;
  }
  writer.join();
  EXPECT_EQ(decreases, 0);
  EXPECT_EQ(counter.value(), std::int64_t{2} * kUpdates);
  EXPECT_EQ(histogram.count(), kUpdates);
  // Each block of 100 records sums 1..100 = 5050.
  EXPECT_EQ(histogram.sum(), std::int64_t{5050} * (kUpdates / 100));
  EXPECT_EQ(histogram.bucket(1), kUpdates / 100);  // the 1s
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
  registry.histogram("h.lat").record(5);
  registry.gauge_callback("cb.depth", [] { return std::int64_t{42}; });
  std::ostringstream out;
  registry.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"c.one\":7"), std::string::npos);
  EXPECT_NE(json.find("\"h.lat\":{\"count\":1,\"sum\":5"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{\"cb.depth\":42}"), std::string::npos);
  EXPECT_EQ(registry.value("cb.depth"), 42);
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
  // The same per-actor event multisets interleaved two ways: the order in
  // which stations' events arrive must not be able to change a fingerprint.
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

TEST(ObsTrace, FingerprintSeesAChangedOutcome) {
  obs::Tracer a;
  obs::Tracer b;
  a.emit(obs::Ev::kDecide, 1, 1, 0);
  b.emit(obs::Ev::kDecide, 1, 1, 0);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  // A changed decision arg (a different Outcome) changes the fingerprint.
  b.emit(obs::Ev::kDecide, 1, 1, 1);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

// The inverse of obs::mix64: every step of the splitmix64 finalizer is a
// bijection, so a test can pick the value whose event hash it wants.
std::uint64_t unxorshift(std::uint64_t y, int shift) {
  std::uint64_t x = y;
  for (int i = 0; i <= 64 / shift; ++i) x = y ^ (x >> shift);
  return x;
}
std::uint64_t odd_inverse(std::uint64_t c) {  // Newton's iteration mod 2^64
  std::uint64_t inv = c;
  for (int i = 0; i < 5; ++i) inv *= 2 - c * inv;
  return inv;
}
std::uint64_t unmix64(std::uint64_t x) {
  x = unxorshift(x, 31);
  x *= odd_inverse(0x94d049bb133111ebull);
  x = unxorshift(x, 27);
  x *= odd_inverse(0xbf58476d1ce4e5b9ull);
  x = unxorshift(x, 30);
  return x - 0x9e3779b97f4a7c15ull;
}

obs::TraceEvent trace_event(obs::Ev kind, std::uint32_t shard,
                            std::uint32_t actor, std::uint8_t arg,
                            std::int64_t value) {
  obs::TraceEvent ev;
  ev.kind = kind;
  ev.shard = shard;
  ev.actor = actor;
  ev.arg = arg;
  ev.value = value;
  return ev;
}

/// DESIGN §7.3's per-event hash, restated: mix in (kind, arg), then the
/// station, then the value.
std::uint64_t station_mix(const obs::TraceEvent& ev) {
  const std::uint64_t kind_arg =
      (static_cast<std::uint64_t>(ev.kind) << 8) | ev.arg;
  const std::uint64_t station =
      (static_cast<std::uint64_t>(ev.actor) << 32) | ev.shard;
  return obs::mix64(kind_arg ^ station);
}
std::uint64_t event_hash(const obs::TraceEvent& ev) {
  return obs::mix64(station_mix(ev) ^ static_cast<std::uint64_t>(ev.value));
}

/// An event at `first`'s station whose hash cancels `first`'s: the two
/// sum to 0 mod 2^64.
obs::TraceEvent cancelling(const obs::TraceEvent& first, obs::Ev kind) {
  obs::TraceEvent ev = trace_event(kind, first.shard, first.actor, 0, 0);
  ev.value = static_cast<std::int64_t>(unmix64(0 - event_hash(first)) ^
                                       station_mix(ev));
  return ev;
}

TEST(ObsTrace, AccumulatorMatchesItsGoldenFingerprint) {
  const std::uint64_t probe = 0x0123456789abcdefull;
  ASSERT_EQ(obs::mix64(unmix64(probe)), probe);
  const obs::TraceEvent zero_first = trace_event(obs::Ev::kDecide, 3, 9, 1, 12345);
  const obs::TraceEvent zero_second = cancelling(zero_first, obs::Ev::kRelease);
  ASSERT_EQ(event_hash(zero_first) + event_hash(zero_second), 0u);
  const std::vector<obs::TraceEvent> events = {
      trace_event(obs::Ev::kRequest, 0, 1, 0, 1),
      trace_event(obs::Ev::kDecide, 0, 1, 2, 1),
      trace_event(obs::Ev::kGrant, 0, 2, 0, 7),
      trace_event(obs::Ev::kSuspend, 2, 7, 0, 0),
      trace_event(obs::Ev::kResume, 2, 7, 0, 0),
      trace_event(obs::Ev::kSend, 2, 7, 4, 3),
      trace_event(obs::Ev::kSweep, 5, 0, 0, 2),
      trace_event(obs::Ev::kRetransmit, ~0u, 3, 1, -1),
      trace_event(obs::Ev::kReplayHit, 1, ~0u, 0, 99),
      // Shard and actor both ~0u: util::FlatMap's reserved empty-slot key.
      trace_event(obs::Ev::kRequest, ~0u, ~0u, 0, 0),
      trace_event(obs::Ev::kRelease, ~0u, ~0u, 0, 5),
      zero_first,
      zero_second,
  };
  obs::FingerprintAccumulator accumulator;
  EXPECT_NO_THROW({
    for (const obs::TraceEvent& ev : events) accumulator.fold(ev);
  });
  // Recorded from the accumulator's first, private-table implementation.
  EXPECT_EQ(accumulator.fingerprint(), 0x71c607ef2dd4ad4full);

  // A station whose sum wraps to 0 still enters the combine by its key.
  obs::FingerprintAccumulator zero_station;
  zero_station.fold(zero_first);
  zero_station.fold(zero_second);
  const std::uint64_t key = (std::uint64_t{3} << 32) | 9;
  EXPECT_EQ(zero_station.fingerprint(),
            obs::mix64(obs::mix64(0x9e3779b97f4a7c15ull ^ key) ^ 0));
  EXPECT_NE(zero_station.fingerprint(), obs::FingerprintAccumulator().fingerprint());
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
