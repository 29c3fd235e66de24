#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "clock/drift_clock.hpp"
#include "floor/sharded_service.hpp"
#include "obs/registry.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace dmps;
using namespace dmps::floorctl;
using resource::Resource;
using resource::Thresholds;

struct ShardedFixture : ::testing::Test {
  sim::Simulator sim;
  clk::TrueClock clock{sim};
  GroupRegistry registry;
  ShardedFloorService service{registry, clock, Thresholds{0.25, 0.0625}};
  HostId hostA{1}, hostB{2};
  GroupId group;
  MemberId chair, a1, a2, b1, b2;

  ShardedFixture() {
    service.add_host(hostA, Resource{1.0, 1.0, 1.0});
    service.add_host(hostB, Resource{1.0, 1.0, 1.0});
    chair = registry.add_member("chair", 3, hostA);
    group = registry.create_group("g", FcmMode::kFreeAccess, chair);
    a1 = registry.add_member("a1", 1, hostA);
    a2 = registry.add_member("a2", 2, hostA);
    b1 = registry.add_member("b1", 1, hostB);
    b2 = registry.add_member("b2", 2, hostB);
    for (const auto m : {a1, a2, b1, b2}) registry.join(m, group);
  }

  FloorRequest req(MemberId m, HostId host, double q) const {
    FloorRequest r;
    r.group = group;
    r.member = m;
    r.host = host;
    r.qos = media::QosRequirement{q, q, q};
    return r;
  }
};

TEST_F(ShardedFixture, RequestsRouteToTheirHostShard) {
  EXPECT_EQ(service.shard_count(), 2u);
  ASSERT_EQ(service.request(req(a1, hostA, 0.5)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(b1, hostB, 0.5)).outcome, Outcome::kGranted);

  // Each grant lives in exactly its host's shard.
  EXPECT_EQ(service.active_grants(), 2u);
  EXPECT_EQ(service.shard(hostA)->active_grants(), 1u);
  EXPECT_EQ(service.shard(hostB)->active_grants(), 1u);
  EXPECT_DOUBLE_EQ(service.host_manager(hostA)->availability(), 0.5);
  EXPECT_DOUBLE_EQ(service.host_manager(hostB)->availability(), 0.5);

  // An unknown host is refused at the router, same surface as FloorService.
  const auto d = service.request(req(a1, HostId{99}, 0.1));
  EXPECT_EQ(d.outcome, Outcome::kDenied);
  EXPECT_EQ(d.reason, Reason::kUnknownHost);
  EXPECT_EQ(service.shard(HostId{99}), nullptr);
}

TEST_F(ShardedFixture, HostsArbitrateIndependently) {
  // Saturate host A; host B must stay in the full-service regime — the
  // paper's per-host partitioning, now structural.
  ASSERT_EQ(service.request(req(a1, hostA, 0.9)).outcome, Outcome::kGranted);
  const auto on_a = service.request(req(a2, hostA, 0.3));
  EXPECT_EQ(on_a.outcome, Outcome::kGrantedDegraded);  // had to Media-Suspend
  EXPECT_EQ(on_a.suspended, (std::vector<Holder>{{a1, group}}));
  const auto on_b = service.request(req(b1, hostB, 0.3));
  EXPECT_EQ(on_b.outcome, Outcome::kGranted);  // unaffected shard
  EXPECT_TRUE(on_b.suspended.empty());

  // The senior's release through the facade undoes its Media-Suspend.
  const auto rel = service.release(a2, group);
  EXPECT_TRUE(rel.released);
  EXPECT_EQ(rel.resumed, (std::vector<Holder>{{a1, group}}));
  EXPECT_EQ(service.suspended_grants(), 0u);
  EXPECT_EQ(service.active_grants(), 2u);  // a1 on A, b1 on B
}

TEST_F(ShardedFixture, ReleaseRoutesToTheShardsTheMemberUsed) {
  ASSERT_EQ(service.request(req(a1, hostA, 0.4)).outcome, Outcome::kGranted);
  // Same member granted on a second host (it can: grants key by request
  // host): the release must fan out to both shards.
  ASSERT_EQ(service.request(req(a1, hostB, 0.4)).outcome, Outcome::kGranted);
  EXPECT_EQ(service.active_grants(), 2u);

  const auto rel = service.release(a1, group);
  EXPECT_TRUE(rel.released);
  EXPECT_EQ(service.active_grants(), 0u);
  EXPECT_DOUBLE_EQ(service.host_manager(hostA)->availability(), 1.0);
  EXPECT_DOUBLE_EQ(service.host_manager(hostB)->availability(), 1.0);
  // Idempotent, like the unsharded facade.
  EXPECT_FALSE(service.release(a1, group).released);

  // A holder on three hosts, granted in the order B, C, A: its one release
  // frees all three, and the merged result lists each shard's Media-Resume
  // in that route order, not in host order.
  const HostId hostC{3};
  service.add_host(hostC, Resource{1.0, 1.0, 1.0});
  const auto c1 = registry.add_member("c1", 1, hostC);
  ASSERT_TRUE(registry.join(c1, group));
  ASSERT_EQ(service.request(req(a1, hostA, 0.8)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(b1, hostB, 0.8)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(c1, hostC, 0.8)).outcome, Outcome::kGranted);
  for (const HostId host : {hostB, hostC, hostA}) {
    ASSERT_EQ(service.request(req(chair, host, 0.9)).outcome,
              Outcome::kGrantedDegraded);
  }
  EXPECT_EQ(service.suspended_grants(), 3u);
  const auto all = service.release(chair, group);
  EXPECT_TRUE(all.released);
  EXPECT_EQ(all.resumed,
            (std::vector<Holder>{{b1, group}, {c1, group}, {a1, group}}));
  EXPECT_EQ(service.suspended_grants(), 0u);
  EXPECT_EQ(service.active_grants(), 3u);
  for (const HostId host : {hostA, hostB, hostC}) {
    EXPECT_DOUBLE_EQ(service.host_manager(host)->availability(), 0.2);
  }
}

struct ShardedQueueingFixture : ShardedFixture {
  ShardedQueueingFixture() { registry.set_policy(group, PolicyKind::kQueueing); }
};

TEST_F(ShardedQueueingFixture, QueuesAreShardedAndPromotionsStayHostLocal) {
  ASSERT_EQ(service.request(req(a2, hostA, 0.7)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(b2, hostB, 0.7)).outcome, Outcome::kGranted);
  // One parked request per shard, same group.
  ASSERT_EQ(service.request(req(a1, hostA, 0.6)).outcome, Outcome::kQueued);
  ASSERT_EQ(service.request(req(b1, hostB, 0.6)).outcome, Outcome::kQueued);
  EXPECT_EQ(service.queued_requests(), 2u);
  EXPECT_EQ(service.queued_requests(group), 2u);
  EXPECT_EQ(service.shard(hostA)->queued_requests(), 1u);
  EXPECT_EQ(service.shard(hostB)->queued_requests(), 1u);

  // Releasing on host A promotes host A's parked request and must not
  // touch host B's queue.
  const auto rel = service.release(a2, group);
  ASSERT_EQ(rel.promoted.size(), 1u);
  EXPECT_EQ(rel.promoted[0].holder, (Holder{a1, group}));
  EXPECT_EQ(service.shard(hostA)->queued_requests(), 0u);
  EXPECT_EQ(service.shard(hostB)->queued_requests(), 1u);

  // The cross-host gap, closed: capacity freeing on host B promotes host
  // B's entry through that shard's own sweep.
  const auto rel2 = service.release(b2, group);
  ASSERT_EQ(rel2.promoted.size(), 1u);
  EXPECT_EQ(rel2.promoted[0].holder, (Holder{b1, group}));
  EXPECT_EQ(service.queued_requests(), 0u);
}

TEST_F(ShardedQueueingFixture, CancelDropsParkedStateOnTheRightShard) {
  ASSERT_EQ(service.request(req(a2, hostA, 0.7)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(a1, hostA, 0.6)).outcome, Outcome::kQueued);
  ASSERT_EQ(service.request(req(b2, hostB, 0.7)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(b1, hostB, 0.6)).outcome, Outcome::kQueued);

  // a1 holds nothing, only a parked request: releasing it drops just that.
  const auto dropped = service.release(a1, group);
  EXPECT_FALSE(dropped.released);
  EXPECT_EQ(dropped.dequeued, (std::vector<Holder>{{a1, group}}));
  EXPECT_EQ(service.queued_requests(), 1u);  // b1 still parked on its shard
  // a1 abandoned its spot: a2's release promotes nobody on host A.
  EXPECT_TRUE(service.release(a2, group).promoted.empty());
  // b1's entry is untouched and still promotes on host B.
  const auto rel = service.release(b2, group);
  ASSERT_EQ(rel.promoted.size(), 1u);
  EXPECT_EQ(rel.promoted[0].holder, (Holder{b1, group}));
}

TEST_F(ShardedQueueingFixture, SweepHookPromotesAfterOutOfBandCapacityChange) {
  ASSERT_EQ(service.request(req(a2, hostA, 0.95)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(a1, hostA, 0.5)).outcome, Outcome::kQueued);

  // Out-of-band capacity change: host A is re-provisioned twice as large.
  // Re-registering voids the old grants (documented FloorService behavior),
  // so the parked request only lands once the sweep hook runs.
  service.add_host(hostA, Resource{2.0, 2.0, 2.0});
  EXPECT_EQ(service.shard(hostA)->queued_requests(), 1u);
  const auto swept = service.sweep(hostA);
  ASSERT_EQ(swept.promoted.size(), 1u);
  EXPECT_EQ(swept.promoted[0].holder, (Holder{a1, group}));
  EXPECT_EQ(service.queued_requests(), 0u);
  // Sweeping an unknown host is a harmless no-op.
  EXPECT_TRUE(service.sweep(HostId{99}).promoted.empty());
}

TEST_F(ShardedFixture, ArrivalOrderIsPerHostNotPerConference) {
  registry.set_policy(group, PolicyKind::kQueueing);
  ASSERT_EQ(service.request(req(a2, hostA, 0.7)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(a1, hostA, 0.6)).outcome, Outcome::kQueued);
  // Host B is idle: b1's request must not park behind host A's queue —
  // the arrival-order contract is per host station, which is exactly what
  // makes the queues shardable.
  EXPECT_EQ(service.request(req(b1, hostB, 0.6)).outcome, Outcome::kGranted);

  // More waiters park behind a1 on host A; each facade release promotes
  // exactly the next one in arrival order.
  std::vector<MemberId> waiters{a1};
  for (int i = 0; i < 4; ++i) {
    const auto waiter = registry.add_member("w" + std::to_string(i), 1, hostA);
    ASSERT_TRUE(registry.join(waiter, group));
    ASSERT_EQ(service.request(req(waiter, hostA, 0.6)).outcome,
              Outcome::kQueued);
    waiters.push_back(waiter);
  }
  std::vector<MemberId> promoted;
  MemberId current = a2;
  for (std::size_t round = 0; round < waiters.size(); ++round) {
    const auto rel = service.release(current, group);
    ASSERT_EQ(rel.promoted.size(), 1u) << "round " << round;
    current = rel.promoted[0].holder.member;
    promoted.push_back(current);
  }
  EXPECT_EQ(promoted, waiters);
  EXPECT_TRUE(service.release(current, group).released);
  EXPECT_EQ(service.queued_requests(), 0u);
}

TEST_F(ShardedFixture, RouterRefusalsCountLikeShardRefusals) {
  // floor.requests counts every request the facade answers, so it matches
  // the wire layer's arbitration count even when no shard decides.
  obs::MetricsRegistry metrics;
  obs::FloorInstruments floor(metrics);
  service.set_observability(&floor, nullptr);
  const auto counts = [&floor] {
    return std::make_pair(floor.requests.value(), floor.denied.value());
  };

  const auto unknown = service.request(req(a1, HostId{99}, 0.1));
  EXPECT_EQ(unknown.reason, Reason::kUnknownHost);
  EXPECT_EQ(counts(), std::make_pair(std::int64_t{1}, std::int64_t{1}));
}

TEST(MergeReleaseResults, EmptyAccumulatorTakesTheShardsBuffers) {
  // A release routed to one shard hands its lists over without a copy.
  ReleaseResult shard;
  shard.released = true;
  shard.resumed.push_back(Holder{MemberId{1}, GroupId{1}});
  shard.promoted.push_back(Promotion{Holder{MemberId{2}, GroupId{1}}, {}});
  shard.dequeued.push_back(Holder{MemberId{3}, GroupId{1}});
  const Holder* resumed = shard.resumed.data();
  const Promotion* promoted = shard.promoted.data();
  const Holder* dequeued = shard.dequeued.data();

  ReleaseResult merged;
  merge_release_results(merged, std::move(shard));
  EXPECT_TRUE(merged.released);
  EXPECT_EQ(merged.resumed.data(), resumed);
  EXPECT_EQ(merged.promoted.data(), promoted);
  EXPECT_EQ(merged.dequeued.data(), dequeued);

  // A second shard's lists append behind the first's, in route order.
  ReleaseResult second;
  second.promoted.push_back(Promotion{Holder{MemberId{4}, GroupId{1}}, {}});
  merge_release_results(merged, std::move(second));
  ASSERT_EQ(merged.promoted.size(), 2u);
  EXPECT_EQ(merged.promoted[0].holder, (Holder{MemberId{2}, GroupId{1}}));
  EXPECT_EQ(merged.promoted[1].holder, (Holder{MemberId{4}, GroupId{1}}));
  EXPECT_EQ(merged.resumed.size(), 1u);
}

}  // namespace
