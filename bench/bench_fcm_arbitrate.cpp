// ALG-FCM — the paper's §3 FCM-Arbitrate algorithm (Z schemas).
//
// Scenario: a group of M members on one host station issues a mixed stream
// of floor requests across the three resource regimes the Z spec names:
//   full      (availability >= alpha) : requests granted outright,
//   degraded  (beta <= avail < alpha) : granted after Media-Suspend,
//   abort     (avail < beta)          : Abort-Arbitrate.
// Reports outcome distribution per regime plus arbitration throughput, and
// sweeps the degraded path over active-grant counts M with the suspension
// count k held fixed: the GrantStore indexes active grants by
// (priority, seq), so victim selection costs O(k log M) — latency must
// track k, not M. A queue-depth sweep times one release, promotion and
// re-request against Q parked entries: the promotion pass stops once the
// host falls below beta, so only the queue's membership scans grow with Q.
//
// Micro: arbitrate+release round-trip cost vs group size.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <new>
#include <string>

#include "bench_common.hpp"
#include "clock/drift_clock.hpp"
#include "floor/service.hpp"
#include "floor/sharded_service.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/alloc_probe.hpp"
#include "util/rng.hpp"
#include "util/sanitizers.hpp"

#if !defined(DMPS_SANITIZED)
// Allocation-counting operator new: every heap allocation in this binary
// bumps the thread-local probe the million-member sweep brackets, which is
// how that sweep PROVES its zero-steady-state-allocation claim instead of
// asserting it in a comment. Frees are not counted (recycling buffers is
// the design). Disabled under sanitizers — their interposed allocators
// must keep full ownership of malloc.
//
// The compiler cannot see that these replacements pair new->malloc with
// delete->free program-wide, so silence its default-new/free mismatch
// heuristic here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  dmps::util::alloc_probe_bump();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  dmps::util::alloc_probe_bump();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  dmps::util::alloc_probe_bump();
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  dmps::util::alloc_probe_bump();
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif  // !DMPS_SANITIZED

namespace {

using namespace dmps;
using namespace dmps::floorctl;
using resource::Resource;
using resource::Thresholds;

struct Cluster {
  GroupRegistry registry;
  HostId host{1};
  FloorService service;
  GroupId group;
  std::vector<MemberId> members;

  explicit Cluster(int m, double capacity = 1.0)
      : service(registry, Thresholds{0.25, 0.05}, host,
                Resource{capacity, capacity, capacity}) {
    const auto chair = registry.add_member("chair", 3, host);
    group = registry.create_group("g", FcmMode::kFreeAccess, chair);
    members.push_back(chair);
    for (int i = 1; i < m; ++i) {
      const auto member =
          registry.add_member("m" + std::to_string(i), 1 + (i % 3), host);
      (void)registry.join(member, group);
      members.push_back(member);
    }
  }

  FloorRequest request(MemberId m, double q) const {
    FloorRequest r;
    r.group = group;
    r.member = m;
    r.mode = FcmMode::kFreeAccess;
    r.host = host;
    r.qos = media::QosRequirement{q, q, q};
    return r;
  }
};

void regime_scenario() {
  // Each case drives the host into one regime, then issues the same probe:
  // the chair (priority 3) requests 0.3 of the host.
  //   full     -> plain grant;
  //   degraded -> grant only after Media-Suspend of low-priority feeds;
  //   abort    -> Abort-Arbitrate regardless of who asks.
  dmps::bench::table_header(
      "ALG-FCM: the same priority-3 request for 0.30 under each regime "
      "(alpha=0.25 beta=0.05)",
      "regime_setup | availability_before | probe_outcome    | suspended | reason");
  struct Case {
    const char* name;
    int preload_grants;     // low-priority grants of 0.08 each
    double preload_direct;  // extra chair-held block (drives abort case)
  };
  for (const Case c : {Case{"full", 2, 0.0}, Case{"degraded", 10, 0.0},
                       Case{"abort", 10, 0.17}}) {
    Cluster cluster(16);
    // Preload only priority-1 members (each may hold several feeds), so the
    // priority-3 probe outranks every preloaded holder.
    std::vector<MemberId> juniors;
    for (const auto m : cluster.members) {
      if (cluster.registry.member(m).priority == 1) juniors.push_back(m);
    }
    if (juniors.empty()) {
      std::fprintf(stderr, "regime_scenario: cluster too small for priority-1 preload\n");
      std::abort();
    }
    for (int i = 0; i < c.preload_grants; ++i) {
      const auto member = juniors[i % juniors.size()];
      (void)cluster.service.request(cluster.request(member, 0.08));
    }
    if (c.preload_direct > 0) {
      (void)cluster.service.request(
          cluster.request(cluster.members[0], c.preload_direct));
    }
    const double avail_before =
        cluster.service.host_manager().availability();
    const auto d = cluster.service.request(cluster.request(cluster.members[0], 0.3));
    dmps::bench::row("%-12s | %19.2f | %-16s | %9zu | %s", c.name, avail_before,
                std::string(to_string(d.outcome)).c_str(), d.suspended.size(),
                explain(d, cluster.service.thresholds()).c_str());
  }
}

void throughput_scenario() {
  dmps::bench::table_header(
      "ALG-FCM: arbitration throughput (request+release pairs)",
      "members | requests | wall_ms | req_per_sec");
  for (int m : {8, 64, 512, 4096}) {
    Cluster cluster(m, 1e9);  // effectively infinite resources: pure overhead
    util::Rng rng(5);
    const int requests = 20000;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < requests; ++i) {
      const auto member = cluster.members[rng.index(cluster.members.size())];
      (void)cluster.service.request(cluster.request(member, 0.001));
      cluster.service.release(member, cluster.group);
    }
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    dmps::bench::row("%7d | %8d | %7.1f | %11.0f", m, requests, wall_ms,
                requests / (wall_ms / 1000.0));
  }
}

/// A host fully loaded with M active grants arranged so a priority-3 probe
/// must Media-Suspend exactly the k priority-1 "fat" holders: k fat grants
/// of 0.4/k each (the suspension victims, lowest priority so the ordered
/// walk meets them first) plus M-k priority-2 "tiny" grants filling another
/// 0.4. Availability sits at 0.2 — the degraded regime — and the probe
/// asks 0.6, which fits exactly after the k fat suspensions.
struct DegradedWorld {
  Cluster cluster;
  MemberId prober;
  double probe_qos;

  DegradedWorld(int m, int k) : cluster(2, 1.0), probe_qos(0.6) {
    // Dedicated members so priorities are exact (the Cluster ctor's cycling
    // members are unused): k fat at priority 1, the rest tiny at priority 2.
    std::vector<MemberId> preload;
    preload.reserve(static_cast<std::size_t>(m));
    prober = cluster.registry.add_member("prober", 3, cluster.host);
    (void)cluster.registry.join(prober, cluster.group);
    for (int i = 0; i < m; ++i) {
      const bool is_fat = i < k;
      const auto member = cluster.registry.add_member(
          (is_fat ? "fat" : "tiny") + std::to_string(i), is_fat ? 1 : 2,
          cluster.host);
      (void)cluster.registry.join(member, cluster.group);
      preload.push_back(member);
    }
    const double fat = 0.4 / k;
    const double tiny = 0.4 / (m - k);
    for (int i = 0; i < m; ++i) {
      const bool is_fat = i < k;
      const auto d = cluster.service.request(
          cluster.request(preload[static_cast<std::size_t>(i)],
                          is_fat ? fat : tiny));
      if (d.outcome != Outcome::kGranted &&
          d.outcome != Outcome::kGrantedDegraded) {
        std::fprintf(stderr, "degraded preload failed: %s\n",
                     explain(d, cluster.service.thresholds()).c_str());
        std::abort();
      }
    }
  }

  /// One probe arbitration (suspends the k fat holders), timed; the release
  /// (which Media-Resumes them) restores the world for the next round.
  double probe_once_us() {
    const auto t0 = std::chrono::steady_clock::now();
    const auto d = cluster.service.request(cluster.request(prober, probe_qos));
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (d.outcome != Outcome::kGrantedDegraded) {
      std::fprintf(stderr, "degraded probe not degraded: %s\n",
                   explain(d, cluster.service.thresholds()).c_str());
      std::abort();
    }
    cluster.service.release(prober, cluster.group);
    return us;
  }
};

void degraded_sweep_scenario() {
  // The ROADMAP perf item, measured: victim selection must scale with the
  // number of suspensions k, not with the active-grant count M. Before the
  // GrantStore index, every arbitration scanned (and sorted) all M grants.
  dmps::bench::table_header(
      "ALG-FCM: degraded-path arbitration latency vs active grants M and "
      "suspensions k (index makes it O(k log M))",
      "active_grants_M | suspensions_k | probes | avg_us | max_us");
  for (const int m : {1'000, 10'000, 100'000}) {
    for (const int k : {4, 64}) {
      DegradedWorld world(m, k);
      // Trace only the probe phase (attached after preload): each probe is
      // 1 decide + k suspends, each release k resumes — a seeded, loss-free,
      // single-threaded stream, so its fingerprint gates in bench_diff.
      obs::Tracer tracer;
      world.cluster.service.set_tracer(&tracer);
      const int probes = 20;
      (void)world.probe_once_us();  // warm-up round, untimed
      double total_us = 0.0, max_us = 0.0;
      for (int i = 0; i < probes; ++i) {
        const double us = world.probe_once_us();
        total_us += us;
        if (us > max_us) max_us = us;
      }
      world.cluster.service.set_tracer(nullptr);
      dmps::bench::row("%15d | %13d | %6d | %6.2f | %6.2f", m, k, probes,
                       total_us / probes, max_us);
      char scenario[64];
      std::snprintf(scenario, sizeof(scenario), "degraded/m%d_k%d", m, k);
      dmps::bench::record_fingerprint(scenario, tracer.fingerprint(),
                                      /*deterministic=*/true);
    }
  }
}

void queue_depth_sweep_scenario() {
  // One host of capacity 1.0 held by four 0.25 grants, with Q more 0.25
  // requests parked in one queueing group. A cycle releases the oldest
  // holder, whose freed 0.25 promotes the queue head and drops the host
  // straight back below beta, then re-requests that holder at the tail.
  // Every entry behind the head would now Abort-Arbitrate, so the
  // promotion pass stops there: what cost grows with Q is only the linear
  // membership scans in QueueingPolicy::decide and cancel.
  dmps::bench::table_header(
      "ALG-FCM: queue promotion vs parked entries Q (one cycle = release "
      "the oldest holder, promote the head, re-request at the tail)",
      "parked_Q | cycles | ns_per_cycle | ns_per_parked");
  constexpr int kHolders = 4;
  constexpr int kCycles = 256;
  for (const int q : {16, 256, 4096}) {
    Cluster cluster(q + kHolders);
    cluster.registry.set_policy(cluster.group, PolicyKind::kQueueing);
    std::deque<MemberId> holders;
    for (const MemberId m : cluster.members) {
      const auto d = cluster.service.request(cluster.request(m, 0.25));
      if (holders.size() < kHolders) {
        holders.push_back(m);
      } else if (d.outcome != Outcome::kQueued) {
        std::fprintf(stderr, "queue sweep: request %u not parked: %s\n",
                     m.value(),
                     explain(d, cluster.service.thresholds()).c_str());
        std::abort();
      }
    }
    const auto cycle = [&cluster, &holders] {
      const MemberId oldest = holders.front();
      holders.pop_front();
      const auto rel = cluster.service.release(oldest, cluster.group);
      if (rel.promoted.size() != 1 ||
          cluster.service.request(cluster.request(oldest, 0.25)).outcome !=
              Outcome::kQueued) {
        std::fprintf(stderr, "queue sweep: cycle did not promote one head\n");
        std::abort();
      }
      holders.push_back(rel.promoted[0].holder.member);
    };
    for (int i = 0; i < kHolders; ++i) cycle();  // warm-up, untimed
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kCycles; ++i) cycle();
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count() /
                      kCycles;
    dmps::bench::row("%8d | %6d | %12.0f | %13.2f", q, kCycles, ns, ns / q);
  }
}

void sharded_sweep_scenario() {
  // The ROADMAP scale item, measured: floor state sharded by host station
  // behind a ShardedFloorService. Weak scaling — every shard carries the
  // same population (256 members, 64 resident grants) and serves the same
  // request load, so per-shard (≙ per-request) arbitration cost must stay
  // flat as the host count grows; growth would mean shards share state.
  dmps::bench::table_header(
      "ALG-FCM: sharded arbitration, weak scaling (256 members + 64 "
      "resident grants per host shard, 20k request+release pairs per shard)",
      "hosts | members_total | requests_total | wall_ms | req_per_sec | "
      "us_per_req");
  for (const int hosts : {1, 2, 4, 8, 16}) {
    sim::Simulator sim;
    clk::TrueClock clock{sim};
    GroupRegistry registry;
    ShardedFloorService service{registry, clock, Thresholds{0.25, 0.05}};
    const auto chair = registry.add_member("chair", 3, HostId{1});
    const auto group = registry.create_group("g", FcmMode::kFreeAccess, chair);

    constexpr int kPerHost = 256;
    constexpr int kResident = 64;  // grants held for the whole run
    std::vector<std::vector<MemberId>> members(hosts);
    for (int h = 0; h < hosts; ++h) {
      const HostId host{static_cast<std::uint32_t>(h + 1)};
      service.add_host(host, Resource{1e9, 1e9, 1e9});
      for (int i = 0; i < kPerHost; ++i) {
        const auto member = registry.add_member(
            "m" + std::to_string(h) + "_" + std::to_string(i), 1 + (i % 3),
            host);
        (void)registry.join(member, group);
        members[h].push_back(member);
      }
    }
    for (int h = 0; h < hosts; ++h) {
      const HostId host{static_cast<std::uint32_t>(h + 1)};
      for (int i = 0; i < kResident; ++i) {
        FloorRequest r;
        r.group = group;
        r.member = members[h][i];
        r.host = host;
        r.qos = media::QosRequirement{0.001, 0.001, 0.001};
        (void)service.request(r);
      }
    }

    util::Rng rng(11);
    const int per_shard = 20000;
    const long total = static_cast<long>(per_shard) * hosts;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < per_shard; ++i) {
      for (int h = 0; h < hosts; ++h) {
        const HostId host{static_cast<std::uint32_t>(h + 1)};
        const auto member =
            members[h][kResident + rng.index(kPerHost - kResident)];
        FloorRequest r;
        r.group = group;
        r.member = member;
        r.host = host;
        r.qos = media::QosRequirement{0.001, 0.001, 0.001};
        (void)service.request(r);
        service.release(member, group);
      }
    }
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    dmps::bench::row("%5d | %13d | %14ld | %7.1f | %11.0f | %10.3f", hosts,
                     hosts * kPerHost, total, wall_ms,
                     total / (wall_ms / 1000.0), 1000.0 * wall_ms / total);
  }
}

void million_member_scenario(const std::string& trace_out) {
  // The memory-diet acceptance run: a whole conference population — one
  // million member stations by default — spread over 64 host shards and
  // driven twice through request + release on the sharded facade.
  // Pass 1 is first-touch: it builds every holder-index entry, route entry
  // and pooled index node (that is where the RSS goes). Pass 2 replays the
  // identical stream against the warm structures and must perform ZERO
  // heap allocations, and so must the leave + join pairs run against the
  // warm registry after it — enforced via the alloc-probe operator-new
  // hook, not eyeballed.
  std::size_t member_count =
#ifdef DMPS_SANITIZED
      50'000;  // sanitizers multiply both memory and time ~10x
#else
      1'000'000;
#endif
  if (const char* env = std::getenv("DMPS_MILLION_MEMBERS")) {
    const unsigned long long parsed = std::strtoull(env, nullptr, 10);
    if (parsed > 0) member_count = static_cast<std::size_t>(parsed);
  }
  constexpr std::size_t kShards = 64;
  constexpr std::size_t kLeaveJoinPairs = 65'536;

  dmps::bench::table_header(
      "ALG-FCM: million-station memory diet (request+release over 64 "
      "shards, two passes: cold first-touch, then warm steady state; then "
      "leave+join pairs on the warm registry; neither warm bracket may "
      "allocate)",
      "members | shards | pass1_wall_ms | pass2_wall_ms | pass2_us_per_op | "
      "warm_allocs | leave_join_ns | leave_join_allocs | peak_rss_mb | "
      "alloc_probe");

  sim::Simulator sim;
  clk::TrueClock clock{sim};
  GroupRegistry registry;
  // Metrics and tracing stay ON during the alloc-probed warm pass: striped
  // counters, a preallocated ring, and a fingerprint table whose keys all
  // exist after pass 1 — so pass 2 proves observability itself is
  // allocation-free, not just tolerated. Actor ids are bucketed to 12 bits
  // (4096 fingerprint keys per shard at most instead of one per station)
  // and no time source is set (pure-throughput run; fingerprints never
  // read timestamps).
  obs::MetricsRegistry metrics;
  // dmps-lint: obs-register-begin — per-sweep setup, before either pass.
  obs::FloorInstruments instruments(metrics);
  // dmps-lint: obs-register-end
  obs::Tracer tracer(4096);
  tracer.set_actor_mask(0xFFFu);
  tracer.reserve_actors(4096);
  ShardedFloorService service{registry, clock, Thresholds{0.25, 0.05}};
  service.set_observability(&instruments, &tracer);
  std::vector<HostId> hosts;
  for (std::size_t h = 0; h < kShards; ++h) {
    hosts.push_back(HostId{static_cast<std::uint32_t>(h + 1)});
    service.add_host(hosts.back(), Resource{1e9, 1e9, 1e9});
  }
  std::vector<MemberId> members;
  members.reserve(member_count);
  const auto chair = registry.add_member("chair", 3, hosts[0]);
  const GroupId group = registry.create_group("g", FcmMode::kFreeAccess, chair);
  for (std::size_t i = 0; i < member_count; ++i) {
    const auto member = registry.add_member(
        "m" + std::to_string(i), 1 + static_cast<int>(i % 3),
        hosts[i % kShards]);
    (void)registry.join(member, group);
    members.push_back(member);
  }
  // Every instrument is registered (the pack did it at construction);
  // freeze so a lazy registration inside the probed pass throws instead of
  // silently allocating.
  metrics.freeze();

  long granted = 0;
  long other = 0;
  long released = 0;
  const auto run_pass = [&]() -> double {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < member_count; ++i) {
      FloorRequest r;
      r.group = group;
      r.member = members[i];
      r.host = hosts[i % kShards];
      r.qos = media::QosRequirement{0.001, 0.001, 0.001};
      if (service.request(r).outcome == Outcome::kGranted) {
        ++granted;
      } else {
        ++other;
      }
      if (service.release(r.member, group).released) ++released;
    }
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  const double pass1_ms = run_pass();
  const std::uint64_t warm_base = util::alloc_probe_count();
  const double pass2_ms = run_pass();
  const std::uint64_t warm_allocs = util::alloc_probe_count() - warm_base;

  // A wire Join or Leave on the warm registry flips one membership bit, so
  // a pair costs the same at any population and allocates nothing.
  const std::size_t pairs = std::min(member_count, kLeaveJoinPairs);
  const std::uint64_t churn_base = util::alloc_probe_count();
  const auto c0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < pairs; ++i) {
    const MemberId member = members[(i * 7919) % member_count];
    if (!registry.leave(member, group) || !registry.join(member, group)) {
      std::fprintf(stderr, "million sweep: leave+join pair %zu refused\n", i);
      std::abort();
    }
  }
  const double leave_join_ns =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - c0)
          .count() /
      static_cast<double>(pairs);
  const std::uint64_t leave_join_allocs = util::alloc_probe_count() - churn_base;

  const long expected = 2 * static_cast<long>(member_count);
  if (granted != expected || other != 0 || released != expected) {
    std::fprintf(stderr,
                 "million sweep invariant violated "
                 "(granted=%ld other=%ld released=%ld expected=%ld)\n",
                 granted, other, released, expected);
    std::abort();
  }
  // Double-entry bookkeeping: the registry's striped counters must merge
  // to exactly what the loop counted (both passes, request + release).
  if (metrics.value("floor.requests") != expected ||
      metrics.value("floor.granted") != expected ||
      metrics.value("floor.releases") != expected) {
    std::fprintf(stderr,
                 "million sweep metrics inconsistent (requests=%lld "
                 "granted=%lld releases=%lld expected=%ld)\n",
                 static_cast<long long>(metrics.value("floor.requests")),
                 static_cast<long long>(metrics.value("floor.granted")),
                 static_cast<long long>(metrics.value("floor.releases")),
                 expected);
    std::abort();
  }
#if !defined(DMPS_SANITIZED)
  const bool probe_active = true;
  if (warm_allocs != 0 || leave_join_allocs != 0) {
    std::fprintf(stderr,
                 "million sweep: the warm pass performed %llu and the "
                 "leave+join pairs %llu heap allocation(s) (both must be 0)\n",
                 static_cast<unsigned long long>(warm_allocs),
                 static_cast<unsigned long long>(leave_join_allocs));
    std::abort();
  }
#else
  const bool probe_active = false;
#endif
  // One op = one request or one release; each member contributes both.
  const double us_per_op =
      pass2_ms * 1000.0 / (2.0 * static_cast<double>(member_count));
  dmps::bench::row(
      "%7zu | %6zu | %13.1f | %13.1f | %15.3f | %11llu | %13.1f | "
      "%17llu | %11llu | %11s",
      member_count, kShards, pass1_ms, pass2_ms, us_per_op,
      static_cast<unsigned long long>(warm_allocs), leave_join_ns,
      static_cast<unsigned long long>(leave_join_allocs),
      static_cast<unsigned long long>(dmps::bench::peak_rss_kb() / 1024),
      probe_active ? "on" : "off");
  // The member count is part of the scenario name — sanitizer builds and
  // DMPS_MILLION_MEMBERS runs produce differently-keyed (hence
  // incomparable) fingerprints rather than false gate failures.
  char scenario[64];
  std::snprintf(scenario, sizeof(scenario), "million/m%zu", member_count);
  dmps::bench::record_fingerprint(scenario, tracer.fingerprint(),
                                  /*deterministic=*/true);
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write %s\n", trace_out.c_str());
    } else {
      tracer.write_chrome_trace(out);
      std::printf("wrote %s (chrome trace, %llu events dropped from the ring)\n",
                  trace_out.c_str(),
                  static_cast<unsigned long long>(tracer.dropped()));
    }
  }
}

void BM_ArbitrateGrantRelease(benchmark::State& state) {
  Cluster cluster(static_cast<int>(state.range(0)), 1e9);
  util::Rng rng(7);
  for (auto _ : state) {
    const auto member = cluster.members[rng.index(cluster.members.size())];
    auto d = cluster.service.request(cluster.request(member, 0.001));
    benchmark::DoNotOptimize(d.outcome);
    cluster.service.release(member, cluster.group);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ArbitrateGrantRelease)->Arg(8)->Arg(64)->Arg(512);

void BM_ArbitrateDegradedPath(benchmark::State& state) {
  // Degraded arbitration with ~M/8 suspensions per probe: cost follows the
  // suspension count (the ordered-index walk), not the grant population.
  const int m = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Cluster cluster(m);
    for (int i = 1; i < m; ++i) {
      (void)cluster.service.request(
          cluster.request(cluster.members[i], 0.8 / m));
    }
    state.ResumeTiming();
    auto d = cluster.service.request(cluster.request(cluster.members[0], 0.3));
    benchmark::DoNotOptimize(d.suspended.size());
  }
}
BENCHMARK(BM_ArbitrateDegradedPath)->Arg(16)->Arg(128)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_out = dmps::bench::take_trace_out(argc, argv);
  return dmps::bench::bench_main(argc, argv, "bench_fcm_arbitrate", [&] {
    regime_scenario();
    throughput_scenario();
    degraded_sweep_scenario();
    queue_depth_sweep_scenario();
    sharded_sweep_scenario();
    million_member_scenario(trace_out);
  });
}
