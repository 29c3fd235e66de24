// ShardedFloorService started on worker threads: shards on real threads.
//
// Three layers of coverage:
//   1. Parity — the started service must reach the same decisions as the
//      inline executor for the basic request/release flows.
//   2. Linearization — per-shard mailbox FIFO must preserve the queueing
//      policy's arrival-order contract for (group, host).
//   3. Stress — many producer threads hammering interleaved request /
//      release across >= 8 shards while membership churns
//      (snapshot publishes racing reads), then the same invariants the
//      sequential tests pin: every operation completes exactly once, no
//      grant survives its release, the fixpoint sweep leaves no resumable
//      capacity stranded. Run under the TSan CI job, this is the race
//      detector's hunting ground.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "clock/drift_clock.hpp"
#include "floor/sharded_service.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/sanitizers.hpp"

namespace {

using namespace dmps;
using namespace dmps::floorctl;
using resource::Resource;
using resource::Thresholds;

FloorRequest make_request(GroupId group, MemberId member, HostId host,
                          double qos) {
  FloorRequest r;
  r.group = group;
  r.member = member;
  r.host = host;
  r.qos = media::QosRequirement{qos, qos, qos};
  return r;
}

struct ParallelFixture : ::testing::Test {
  static constexpr int kHosts = 8;

  sim::Simulator sim;
  clk::TrueClock clock{sim};
  GroupRegistry registry;
  ShardedFloorService service{registry, clock, Thresholds{0.25, 0.05}};
  GroupId group;
  MemberId chair;
  std::vector<HostId> hosts;

  ParallelFixture() {
    GroupRegistry::Batch batch(registry);
    chair = registry.add_member("chair", 3, HostId{1});
    group = registry.create_group("g", FcmMode::kFreeAccess, chair);
    for (int h = 0; h < kHosts; ++h) {
      hosts.push_back(HostId{static_cast<std::uint32_t>(h + 1)});
      service.add_host(hosts.back(), Resource{1.0, 1.0, 1.0});
    }
  }

  MemberId add_joined(const std::string& name, int priority, HostId host) {
    const auto member = registry.add_member(name, priority, host);
    EXPECT_TRUE(registry.join(member, group));
    return member;
  }
};

TEST_F(ParallelFixture, GrantAndReleaseRoundTripViaFutures) {
  const auto m = add_joined("m", 1, hosts[0]);
  service.start(kHosts);

  auto granted = service.request(make_request(group, m, hosts[0], 0.4));
  EXPECT_EQ(granted.outcome, Outcome::kGranted);

  auto released = service.release(m, group);
  EXPECT_TRUE(released.released);

  // Releasing again finds nothing (the route was consumed).
  auto again = service.release(m, group);
  EXPECT_FALSE(again.released);

  service.drain();
  EXPECT_EQ(service.active_grants(), 0u);
}

TEST_F(ParallelFixture, UnknownHostIsRefusedWithoutEnqueueing) {
  const auto m = add_joined("m", 1, hosts[0]);
  service.start(kHosts);
  auto decision = service.request(make_request(group, m, HostId{999}, 0.1));
  EXPECT_EQ(decision.outcome, Outcome::kDenied);
  EXPECT_EQ(decision.reason, Reason::kUnknownHost);
}

TEST_F(ParallelFixture, CrossShardReleaseFansOutAndMerges) {
  const auto m = add_joined("m", 1, hosts[0]);
  service.start(kHosts);

  // One member holding on three different shards.
  for (int h = 0; h < 3; ++h) {
    auto d = service.request(make_request(group, m, hosts[h], 0.3));
    ASSERT_EQ(d.outcome, Outcome::kGranted);
  }
  service.drain();
  EXPECT_EQ(service.active_grants(), 3u);

  auto released = service.release(m, group);
  EXPECT_TRUE(released.released);
  service.drain();
  EXPECT_EQ(service.active_grants(), 0u);
}

TEST_F(ParallelFixture, MediaSuspendAndResumeAcrossOneShard) {
  const auto junior = add_joined("junior", 1, hosts[0]);
  const auto senior = add_joined("senior", 3, hosts[0]);
  service.start(kHosts);

  ASSERT_EQ(service.request(make_request(group, junior, hosts[0], 0.8)).outcome,
            Outcome::kGranted);
  auto seized = service.request(make_request(group, senior, hosts[0], 0.9));
  EXPECT_EQ(seized.outcome, Outcome::kGrantedDegraded);
  ASSERT_EQ(seized.suspended.size(), 1u);
  EXPECT_EQ(seized.suspended[0].member, junior);

  auto released = service.release(senior, group);
  EXPECT_TRUE(released.released);
  ASSERT_EQ(released.resumed.size(), 1u);
  EXPECT_EQ(released.resumed[0].member, junior);

  service.drain();
  EXPECT_EQ(service.suspended_grants(), 0u);
  EXPECT_EQ(service.active_grants(), 1u);
}

TEST_F(ParallelFixture, PerShardFifoKeepsQueueArrivalOrder) {
  // The linearization contract: operations enqueued to one shard by one
  // producer execute in that order, so queued requests park in enqueue
  // order and promotions drain them in the same order.
  ASSERT_TRUE(registry.set_policy(group, PolicyKind::kQueueing));
  const auto holder = add_joined("holder", 2, hosts[0]);
  std::vector<MemberId> waiters;
  for (int i = 0; i < 6; ++i) {
    waiters.push_back(add_joined("w" + std::to_string(i), 1, hosts[0]));
  }
  service.start(kHosts);

  // Fill the host, then park every waiter — all pipelined, no waiting on
  // intermediate decisions (per-shard FIFO makes the order deterministic).
  std::atomic<int> queued{0};
  service.request(make_request(group, holder, hosts[0], 0.9),
                  [](const Decision& d) {
                    EXPECT_EQ(d.outcome, Outcome::kGranted);
                  });
  for (const auto waiter : waiters) {
    service.request(make_request(group, waiter, hosts[0], 0.9),
                    [&queued](const Decision& d) {
                      EXPECT_EQ(d.outcome, Outcome::kQueued);
                      queued.fetch_add(1);
                    });
  }
  service.drain();
  EXPECT_EQ(queued.load(), 6);
  EXPECT_EQ(service.queued_requests(group), 6u);

  // Each release promotes exactly the next waiter in arrival order.
  std::vector<MemberId> promoted;
  MemberId current = holder;
  for (std::size_t round = 0; round < waiters.size(); ++round) {
    auto result = service.release_on(hosts[0], current, group);
    ASSERT_EQ(result.promoted.size(), 1u) << "round " << round;
    current = result.promoted[0].holder.member;
    promoted.push_back(current);
  }
  EXPECT_EQ(promoted, waiters);
  auto last = service.release_on(hosts[0], current, group);
  EXPECT_TRUE(last.released);
  service.drain();
  EXPECT_EQ(service.active_grants(), 0u);
  EXPECT_EQ(service.queued_requests(), 0u);
}

TEST_F(ParallelFixture, StressInterleavedOpsWithMembershipChurn) {
  // The TSan workload. Producers drive disjoint members but shared shards
  // and one shared group; a churn thread publishes membership mutations
  // (join/leave of bystander members) the whole time, so snapshot swaps
  // race arbitration reads. Capacity is tight enough that grants, queue
  // parks, Media-Suspends and denials all occur.
  constexpr int kProducers = 4;
#ifdef DMPS_SANITIZED
  // Modest per-producer volume: sanitizers multiply every access.
  constexpr int kOpsPerProducer = 400;
#else
  constexpr int kOpsPerProducer = 1500;
#endif

  ASSERT_TRUE(registry.set_policy(group, PolicyKind::kQueueing));
  std::vector<std::vector<MemberId>> mine(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    for (int h = 0; h < kHosts; ++h) {
      mine[p].push_back(add_joined(
          "p" + std::to_string(p) + "h" + std::to_string(h), 1 + (p % 3),
          hosts[h]));
    }
  }
  service.start(kHosts);

  std::atomic<long> decisions{0};
  std::atomic<long> grants{0};
  std::atomic<long> queued{0};
  std::atomic<long> refused{0};  // denied / aborted / not-a-member
  std::atomic<long> releases_done{0};
  std::atomic<bool> stop_churn{false};

  std::thread churn([&] {
    // Bystanders join and leave both a side group and the main group —
    // every mutation is an epoch-bumping snapshot publish racing the
    // producers' reads.
    const auto side_chair = registry.add_member("side-chair", 3, hosts[0]);
    const auto side =
        registry.create_group("side", FcmMode::kFreeAccess, side_chair);
    std::vector<MemberId> bystanders;
    for (int i = 0; i < 8; ++i) {
      bystanders.push_back(
          registry.add_member("bystander" + std::to_string(i), 1, hosts[0]));
    }
    std::uint64_t flips = 0;
    while (!stop_churn.load(std::memory_order_relaxed)) {
      const auto member = bystanders[flips % bystanders.size()];
      const auto target = (flips % 2 == 0) ? group : side;
      if (!registry.join(member, target)) registry.leave(member, target);
      ++flips;
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      util::Rng rng(100 + static_cast<std::uint64_t>(p));
      for (int i = 0; i < kOpsPerProducer; ++i) {
        const std::size_t h = rng.index(kHosts);
        const auto member = mine[p][h];
        const double qos = 0.1 + 0.2 * rng.uniform();
        auto decision =
            service.request(make_request(group, member, hosts[h], qos));
        decisions.fetch_add(1, std::memory_order_relaxed);
        switch (decision.outcome) {
          case Outcome::kGranted:
          case Outcome::kGrantedDegraded: {
            grants.fetch_add(1, std::memory_order_relaxed);
            auto released = service.release_on(hosts[h], member, group);
            EXPECT_TRUE(released.released);
            releases_done.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          case Outcome::kQueued: {
            queued.fetch_add(1, std::memory_order_relaxed);
            // A parked request may be promoted to a grant at any moment by
            // another producer's release sweep; the release clears
            // whichever of the two states the entry raced into.
            service.release(member, group);
            releases_done.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          case Outcome::kAborted:
          case Outcome::kDenied:
            refused.fetch_add(1, std::memory_order_relaxed);
            break;
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  stop_churn.store(true);
  churn.join();
  service.drain();

  EXPECT_EQ(decisions.load(), kProducers * kOpsPerProducer);
  EXPECT_EQ(grants.load() + queued.load(), releases_done.load());

  // Whatever raced, the end state must be clean: every grant was released
  // and every parked request dropped, and the fixpoint sweep must have
  // left nothing resumable stranded (a suspended holder with no active
  // grants left would be exactly that).
  EXPECT_EQ(service.active_grants(), 0u);
  EXPECT_EQ(service.suspended_grants(), 0u);
  EXPECT_EQ(service.queued_requests(), 0u);
  service.stop();
  EXPECT_FALSE(service.running());
}

TEST_F(ParallelFixture, FewerWorkersThanShardsFoldsCorrectly) {
  // 8 shards on 2 workers: the shard -> worker fold must keep per-shard
  // FIFO and produce exactly the sequential outcomes.
  ShardedFloorService folded{registry, clock, Thresholds{0.25, 0.05}};
  std::vector<MemberId> members;
  {
    GroupRegistry::Batch batch(registry);
    for (int h = 0; h < kHosts; ++h) {
      folded.add_host(hosts[h], Resource{1.0, 1.0, 1.0});
      members.push_back(add_joined("f" + std::to_string(h), 1, hosts[h]));
    }
  }
  folded.start(2);
  EXPECT_EQ(folded.worker_count(), 2u);
  EXPECT_EQ(folded.shard_count(), static_cast<std::size_t>(kHosts));

  for (int h = 0; h < kHosts; ++h) {
    auto d = folded.request(make_request(group, members[h], hosts[h], 0.5));
    EXPECT_EQ(d.outcome, Outcome::kGranted);
  }
  folded.drain();
  EXPECT_EQ(folded.active_grants(), static_cast<std::size_t>(kHosts));
  for (int h = 0; h < kHosts; ++h) {
    EXPECT_TRUE(folded.release(members[h], group).released);
  }
  folded.drain();
  EXPECT_EQ(folded.active_grants(), 0u);
}

// Regression (DESIGN.md §10): stop() used to join worker threads without
// serializing against a concurrent stop() — two threads shutting the
// service down raced into double-join UB. The lifecycle mutex makes the
// loser a no-op; under the TSan CI job this test is the proof.
TEST_F(ParallelFixture, ConcurrentStopFromManyThreadsIsSafe) {
  const auto m = add_joined("m", 1, hosts[0]);
  service.start(kHosts);
  ASSERT_EQ(service.request(make_request(group, m, hosts[0], 0.4)).outcome,
            Outcome::kGranted);

  constexpr int kStoppers = 4;
  std::atomic<int> go{0};
  std::vector<std::thread> stoppers;
  stoppers.reserve(kStoppers);
  for (int i = 0; i < kStoppers; ++i) {
    stoppers.emplace_back([&] {
      go.fetch_add(1);
      while (go.load() < kStoppers) {
      }  // all stoppers release together
      service.stop();
    });
  }
  for (auto& t : stoppers) t.join();
  EXPECT_FALSE(service.running());
  // The service is cleanly stopped, not wedged: new ops are refused, never
  // run inline behind the stopped workers' backs.
  const Decision refused =
      service.request(make_request(group, m, hosts[0], 0.2));
  EXPECT_EQ(refused.outcome, Outcome::kDenied);
  EXPECT_EQ(refused.reason, Reason::kNotRunning);
  EXPECT_FALSE(service.release(m, group).released);
  EXPECT_EQ(service.active_grants(), 1u);
}

// Regression (DESIGN.md §10): complete() used to read the fan-out's merged
// ReleaseResult after dropping its mutex, racing the final shard's merge.
// Hammer multi-shard releases — every release must observe a fully merged
// result (released == true exactly when grants were held), with TSan
// checking the handoff.
TEST_F(ParallelFixture, CrossShardReleaseMergeIsCompleteUnderRepetition) {
  const auto m = add_joined("m", 1, hosts[0]);
  service.start(kHosts);

  for (int iter = 0; iter < 50; ++iter) {
    for (int h = 0; h < kHosts; ++h) {
      ASSERT_EQ(service.request(make_request(group, m, hosts[h], 0.3)).outcome,
                Outcome::kGranted);
    }
    auto released = service.release(m, group);
    EXPECT_TRUE(released.released) << "iteration " << iter;
    auto again = service.release(m, group);
    EXPECT_FALSE(again.released) << "iteration " << iter;
  }
  service.drain();
  EXPECT_EQ(service.active_grants(), 0u);
}

}  // namespace
