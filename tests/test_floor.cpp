#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "clock/drift_clock.hpp"
#include "floor/service.hpp"
#include "floor/sharded_service.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace dmps;
using namespace dmps::floorctl;
using resource::Resource;
using resource::Thresholds;

struct ServiceFixture : ::testing::Test {
  GroupRegistry registry;
  HostId host{1};
  // beta = 1/16 so the exact-boundary cases below are binary-exact.
  FloorService service{registry, Thresholds{0.25, 0.0625}, host,
                       Resource{1.0, 1.0, 1.0}};
  GroupId group;
  MemberId chair, low1, low2, low3, mid;

  ServiceFixture() {
    chair = registry.add_member("chair", 3, host);
    group = registry.create_group("g", FcmMode::kFreeAccess, chair);
    low1 = registry.add_member("low1", 1, host);
    low2 = registry.add_member("low2", 1, host);
    low3 = registry.add_member("low3", 1, host);
    mid = registry.add_member("mid", 2, host);
    for (const auto m : {low1, low2, low3, mid}) registry.join(m, group);
  }

  FloorRequest req(MemberId m, double q) const {
    FloorRequest r;
    r.group = group;
    r.member = m;
    r.host = host;
    r.qos = media::QosRequirement{q, q, q};
    return r;
  }
};

TEST_F(ServiceFixture, FullRegimeGrantsOutright) {
  const auto d = service.request(req(low1, 0.5));
  EXPECT_EQ(d.outcome, Outcome::kGranted);
  EXPECT_TRUE(d.suspended.empty());
  EXPECT_EQ(d.availability_before, 1.0);
  EXPECT_EQ(d.availability_after, 0.5);
}

TEST_F(ServiceFixture, AvailabilityExactlyAlphaIsStillFullService) {
  ASSERT_EQ(service.request(req(low1, 0.75)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.host_manager().availability(), 0.25);
  const auto d = service.request(req(chair, 0.1));
  EXPECT_EQ(d.outcome, Outcome::kGranted);  // avail == alpha: full regime
}

TEST_F(ServiceFixture, JustBelowAlphaIsDegradedEvenWhenItFits) {
  ASSERT_EQ(service.request(req(low1, 0.8)).outcome, Outcome::kGranted);
  const auto d = service.request(req(chair, 0.1));
  EXPECT_EQ(d.outcome, Outcome::kGrantedDegraded);
  EXPECT_TRUE(d.suspended.empty());  // fit without Media-Suspend
}

TEST_F(ServiceFixture, DegradedRegimeSuspendsLowestPriorityFirst) {
  // Three low-priority feeds of 0.25 each (the third lands exactly on
  // alpha, still full service), then a mid feed drops availability to 0.15
  // — degraded. The chair asks for 0.50: two suspensions are needed, and
  // they must be the two *lowest-priority, oldest* holders — never mid.
  ASSERT_EQ(service.request(req(low1, 0.25)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(low2, 0.25)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(low3, 0.25)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(mid, 0.10)).outcome, Outcome::kGranted);
  ASSERT_NEAR(service.host_manager().availability(), 0.15, 1e-12);

  const auto d = service.request(req(chair, 0.50));
  EXPECT_EQ(d.outcome, Outcome::kGrantedDegraded);
  EXPECT_EQ(d.suspended, (HolderList{{low1, group}, {low2, group}}));
  EXPECT_EQ(service.suspended_grants(), 2u);
}

TEST_F(ServiceFixture, AvailabilityExactlyBetaIsDegradedNotAbort) {
  ASSERT_EQ(service.request(req(low1, 0.9375)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.host_manager().availability(), 0.0625);  // == beta
  const auto d = service.request(req(chair, 0.3));
  EXPECT_EQ(d.outcome, Outcome::kGrantedDegraded);
  EXPECT_EQ(d.suspended, (HolderList{{low1, group}}));
}

TEST_F(ServiceFixture, BelowBetaAbortsRegardlessOfPriority) {
  ASSERT_EQ(service.request(req(low1, 0.96)).outcome, Outcome::kGranted);
  const auto d = service.request(req(chair, 0.01));
  EXPECT_EQ(d.outcome, Outcome::kAborted);
  EXPECT_TRUE(d.suspended.empty());
  EXPECT_EQ(d.reason, Reason::kAbortArbitrate);
}

TEST_F(ServiceFixture, EqualPriorityIsNeverSuspended) {
  ASSERT_EQ(service.request(req(mid, 0.5)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(low1, 0.35)).outcome, Outcome::kGranted);
  // mid asks for more than free (0.15) — only *strictly lower* priority
  // (low1) may be suspended; that frees 0.35, enough for 0.4.
  const auto d1 = service.request(req(mid, 0.4));
  EXPECT_EQ(d1.outcome, Outcome::kGrantedDegraded);
  EXPECT_EQ(d1.suspended, (HolderList{{low1, group}}));
  // Now only equal-priority holders remain: a further oversized request is
  // denied, and the tentative state rolls back (nothing newly suspended).
  const auto d2 = service.request(req(mid, 0.5));
  EXPECT_EQ(d2.outcome, Outcome::kDenied);
  EXPECT_EQ(service.suspended_grants(), 1u);
}

TEST_F(ServiceFixture, ReleaseTriggersMediaResume) {
  ASSERT_EQ(service.request(req(low1, 0.5)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(mid, 0.4)).outcome, Outcome::kGranted);
  const auto d = service.request(req(chair, 0.5));
  ASSERT_EQ(d.outcome, Outcome::kGrantedDegraded);
  ASSERT_EQ(d.suspended, (HolderList{{low1, group}}));
  ASSERT_EQ(service.active_grants(), 2u);

  // The chair leaves: low1's suspended feed fits again and resumes.
  const auto rel = service.release(chair, group);
  EXPECT_TRUE(rel.released);
  EXPECT_EQ(rel.resumed, (HolderList{{low1, group}}));  // Media-Resume reported
  EXPECT_EQ(service.suspended_grants(), 0u);
  EXPECT_EQ(service.active_grants(), 2u);
  EXPECT_NEAR(service.host_manager().availability(), 0.1, 1e-12);
}

TEST_F(ServiceFixture, ReleaseIsIdempotentAndScopedToTheGroup) {
  EXPECT_FALSE(service.release(low1, group).released);  // nothing held
  ASSERT_EQ(service.request(req(low1, 0.2)).outcome, Outcome::kGranted);
  EXPECT_TRUE(service.release(low1, group).released);
  EXPECT_FALSE(service.release(low1, group).released);
  EXPECT_EQ(service.active_grants(), 0u);
  EXPECT_DOUBLE_EQ(service.host_manager().availability(), 1.0);
}

TEST_F(ServiceFixture, MembershipAndModeRules) {
  const auto outsider = registry.add_member("outsider", 5, host);
  EXPECT_EQ(service.request(req(outsider, 0.1)).outcome, Outcome::kDenied);

  const auto chaired =
      registry.create_group("panel", FcmMode::kChaired, chair);
  registry.join(mid, chaired);
  FloorRequest r = req(mid, 0.1);
  r.group = chaired;
  EXPECT_EQ(service.request(r).outcome, Outcome::kDenied);
  r.member = chair;
  EXPECT_EQ(service.request(r).outcome, Outcome::kGranted);

  // A FloorService arbitrates its own host only; several hosts take a
  // ShardedFloorService.
  FloorRequest bad_host = req(mid, 0.1);
  bad_host.host = HostId{2};
  const auto other_host = service.request(bad_host);
  EXPECT_EQ(other_host.outcome, Outcome::kDenied);
  EXPECT_EQ(other_host.reason, Reason::kUnknownHost);
  EXPECT_FALSE(service.release(mid, group).released);

  // Request-side chaired discipline binds too, even in a free-access group.
  FloorRequest strict = req(mid, 0.1);
  strict.mode = FcmMode::kChaired;
  EXPECT_EQ(service.request(strict).outcome, Outcome::kDenied);
  strict.member = chair;
  EXPECT_EQ(service.request(strict).outcome, Outcome::kGranted);
}

TEST_F(ServiceFixture, ReRegisteringAHostVoidsItsGrants) {
  ASSERT_EQ(service.request(req(low1, 0.5)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.active_grants(), 1u);
  service.set_capacity(Resource{2.0, 2.0, 2.0});  // re-provisioning wipes state
  EXPECT_EQ(service.active_grants(), 0u);
  EXPECT_DOUBLE_EQ(service.host_manager().availability(), 1.0);
  EXPECT_FALSE(service.release(low1, group).released);  // old grant is gone, no crash
  EXPECT_EQ(service.request(req(low1, 0.5)).outcome, Outcome::kGranted);
}

TEST_F(ServiceFixture, ReleasedGrantSlotsAreRecycled) {
  // Request/release churn must not grow the grant-slot vector
  // monotonically: released slots return to a free list and get reused.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(service.request(req(low1, 0.3)).outcome, Outcome::kGranted);
    ASSERT_EQ(service.request(req(mid, 0.3)).outcome, Outcome::kGranted);
    ASSERT_TRUE(service.release(low1, group).released);
    ASSERT_TRUE(service.release(mid, group).released);
  }
  EXPECT_EQ(service.active_grants(), 0u);
  EXPECT_LE(service.grant_slots(), 2u);  // peak concurrency, not churn volume
  // Recycled slots still arbitrate correctly.
  const auto d = service.request(req(chair, 0.5));
  EXPECT_EQ(d.outcome, Outcome::kGranted);
}

// ------------------------------------------------------- queueing policy

struct QueueingFixture : ServiceFixture {
  QueueingFixture() { registry.set_policy(group, PolicyKind::kQueueing); }
};

TEST_F(QueueingFixture, RefusedRequestIsParkedNotDenied) {
  ASSERT_EQ(service.request(req(mid, 0.7)).outcome, Outcome::kGranted);
  // low1 outranks nobody mid holds; under three-regime this would be a
  // denial — the queueing group parks it instead.
  const auto d = service.request(req(low1, 0.7));
  EXPECT_EQ(d.outcome, Outcome::kQueued);
  EXPECT_EQ(d.reason, Reason::kDoesNotFit);  // the refusal it was parked for
  EXPECT_EQ(service.queued_requests(), 1u);
  EXPECT_EQ(service.queued_requests(group), 1u);
  EXPECT_EQ(service.active_grants(), 1u);  // nothing reserved for the parked one
}

TEST_F(QueueingFixture, ReleasePromotesTheQueueInArrivalOrder) {
  ASSERT_EQ(service.request(req(mid, 0.7)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(low1, 0.6)).outcome, Outcome::kQueued);
  ASSERT_EQ(service.request(req(low2, 0.6)).outcome, Outcome::kQueued);
  ASSERT_EQ(service.queued_requests(group), 2u);

  // mid releases 0.7: low1 (first in) gets its 0.6; low2's 0.6 no longer
  // fits (0.4 free) and stays parked.
  const auto rel = service.release(mid, group);
  ASSERT_TRUE(rel.released);
  ASSERT_EQ(rel.promoted.size(), 1u);
  EXPECT_EQ(rel.promoted[0].holder, (Holder{low1, group}));
  EXPECT_EQ(rel.promoted[0].decision.outcome, Outcome::kGranted);
  EXPECT_EQ(service.queued_requests(group), 1u);
  EXPECT_EQ(service.active_grants(), 1u);

  // low1 releases in turn: low2 is promoted next.
  const auto rel2 = service.release(low1, group);
  ASSERT_EQ(rel2.promoted.size(), 1u);
  EXPECT_EQ(rel2.promoted[0].holder, (Holder{low2, group}));
  EXPECT_EQ(service.queued_requests(group), 0u);
}

TEST_F(QueueingFixture, SmallerRequestBehindABlockedHeadIsNotStarved) {
  ASSERT_EQ(service.request(req(mid, 0.6)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(chair, 0.3)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(low1, 0.9)).outcome, Outcome::kQueued);
  ASSERT_EQ(service.request(req(low2, 0.3)).outcome, Outcome::kQueued);

  // 0.6 frees up: the 0.9 head still does not fit (the chair's 0.3 stays,
  // and the chair outranks low1), but the 0.3 behind it does — the
  // promotion walk skips the blocked head instead of stalling.
  const auto rel = service.release(mid, group);
  ASSERT_EQ(rel.promoted.size(), 1u);
  EXPECT_EQ(rel.promoted[0].holder, (Holder{low2, group}));
  EXPECT_EQ(service.queued_requests(group), 1u);  // the 0.9 waits on
}

TEST_F(QueueingFixture, PromotionMayItselfMediaSuspend) {
  // chair (priority 3) parks a big request behind a starved host (below
  // beta even its suspension power cannot help: Abort-Arbitrate is parked
  // too); when capacity frees, the promotion runs the full three-regime
  // rule and Media-Suspends the remaining junior holder to fit.
  ASSERT_EQ(service.request(req(low1, 0.47)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(low2, 0.47)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(chair, 0.9)).outcome, Outcome::kQueued);

  const auto rel = service.release(low1, group);
  ASSERT_EQ(rel.promoted.size(), 1u);
  EXPECT_EQ(rel.promoted[0].holder, (Holder{chair, group}));
  EXPECT_EQ(rel.promoted[0].decision.outcome, Outcome::kGrantedDegraded);
  EXPECT_EQ(rel.promoted[0].decision.suspended,
            (HolderList{{low2, group}}));
  EXPECT_EQ(service.suspended_grants(), 1u);
}

TEST_F(QueueingFixture, ReleasingMemberAbandonsItsParkedRequests) {
  ASSERT_EQ(service.request(req(mid, 0.7)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(low1, 0.6)).outcome, Outcome::kQueued);
  // low1 leaves (its release covers parked state too): the entry is
  // dequeued without a grant and a later release promotes nobody.
  const auto rel = service.release(low1, group);
  EXPECT_FALSE(rel.released);  // it held no actual grant
  EXPECT_EQ(rel.dequeued, (HolderList{{low1, group}}));
  EXPECT_EQ(service.queued_requests(group), 0u);
  const auto rel2 = service.release(mid, group);
  EXPECT_TRUE(rel2.released);
  EXPECT_TRUE(rel2.promoted.empty());
}

TEST_F(QueueingFixture, ReRequestWhileParkedKeepsQueuePosition) {
  ASSERT_EQ(service.request(req(mid, 0.7)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(low1, 0.6)).outcome, Outcome::kQueued);
  ASSERT_EQ(service.request(req(low2, 0.35)).outcome, Outcome::kQueued);
  // low1 asks again (smaller): still queued, still ahead of low2.
  ASSERT_EQ(service.request(req(low1, 0.5)).outcome, Outcome::kQueued);
  EXPECT_EQ(service.queued_requests(group), 2u);

  const auto rel = service.release(mid, group);
  ASSERT_EQ(rel.promoted.size(), 2u);
  EXPECT_EQ(rel.promoted[0].holder, (Holder{low1, group}));
  EXPECT_EQ(rel.promoted[1].holder, (Holder{low2, group}));
}

TEST_F(QueueingFixture, NewcomerParksBehindANonEmptyQueue) {
  ASSERT_EQ(service.request(req(mid, 0.7)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(low1, 0.6)).outcome, Outcome::kQueued);
  // low2's 0.2 fits right now (0.3 free) — but granting it would queue-jump
  // low1, which arrived first. Arrival order demands it park behind.
  const auto d = service.request(req(low2, 0.2));
  EXPECT_EQ(d.outcome, Outcome::kQueued);
  EXPECT_EQ(d.reason, Reason::kParkedBehind);
  EXPECT_EQ(d.parked_ahead, 1u);
  EXPECT_EQ(service.queued_requests(group), 2u);
  EXPECT_EQ(service.active_grants(), 1u);  // nothing was reserved for it

  // mid releases 0.7: low1 (first in) gets its 0.6, and low2's 0.2 fits in
  // the remainder — both promote, in arrival order.
  const auto rel = service.release(mid, group);
  ASSERT_EQ(rel.promoted.size(), 2u);
  EXPECT_EQ(rel.promoted[0].holder, (Holder{low1, group}));
  EXPECT_EQ(rel.promoted[1].holder, (Holder{low2, group}));
  EXPECT_EQ(service.queued_requests(group), 0u);
}

TEST_F(QueueingFixture, SuspendChainPromotionsReachAFixpoint) {
  // A promotion that Media-Suspends can overshoot and free capacity of its
  // own; a single resume-then-promote pass strands that capacity — no
  // later release would ever hand it back (a suspended victim's release
  // frees nothing). The sweep must loop to a fixpoint. Build a 3-deep
  // chain: two promotions suspend three holders between them, and the
  // smallest suspended holder fits again only after the *last* promotion.
  ASSERT_EQ(service.request(req(low1, 0.55)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(low2, 0.43)).outcome, Outcome::kGranted);
  // Availability 0.02 < beta: everything below parks (Abort-Arbitrate).
  ASSERT_EQ(service.request(req(low3, 0.1)).outcome, Outcome::kQueued);
  ASSERT_EQ(service.request(req(mid, 0.8)).outcome, Outcome::kQueued);
  ASSERT_EQ(service.request(req(chair, 0.55)).outcome, Outcome::kQueued);

  // low2 releases 0.43. The promotion walk: low3's 0.1 fits outright;
  // mid's 0.8 suspends low1 (chain link 1); the chair's 0.55 suspends low3
  // and mid right back (chain links 2 and 3), overshooting to 0.45 free —
  // enough for low3's 0.1 to Media-Resume. Only a second sweep pass can
  // see that; the single-pass walk left low3 suspended forever.
  const auto rel = service.release(low2, group);
  ASSERT_EQ(rel.promoted.size(), 3u);
  EXPECT_EQ(rel.promoted[0].holder, (Holder{low3, group}));
  EXPECT_EQ(rel.promoted[1].holder, (Holder{mid, group}));
  EXPECT_EQ(rel.promoted[1].decision.suspended,
            (HolderList{{low1, group}}));
  EXPECT_EQ(rel.promoted[2].holder, (Holder{chair, group}));
  EXPECT_EQ(rel.promoted[2].decision.suspended,
            (HolderList{{low3, group}, {mid, group}}));
  EXPECT_EQ(rel.resumed, (HolderList{{low3, group}}));  // pass 2
  EXPECT_EQ(service.queued_requests(group), 0u);
  EXPECT_EQ(service.active_grants(), 2u);     // chair 0.55 + low3 0.1
  EXPECT_EQ(service.suspended_grants(), 2u);  // low1 0.55, mid 0.8

  // A suspended victim releasing frees no capacity: nothing resumes,
  // nothing promotes, and nothing is lost either — the interleaving is
  // exactly accounted.
  const auto victim = service.release(mid, group);
  EXPECT_TRUE(victim.released);
  EXPECT_TRUE(victim.resumed.empty());
  EXPECT_TRUE(victim.promoted.empty());
  EXPECT_EQ(service.suspended_grants(), 1u);

  // The chair's release finally refits low1.
  const auto rel2 = service.release(chair, group);
  EXPECT_EQ(rel2.resumed, (HolderList{{low1, group}}));
  EXPECT_EQ(service.suspended_grants(), 0u);
}

TEST_F(QueueingFixture, DequeuedBlockerUnparksFittingEntriesBehindIt) {
  // low1 parks a request that can never fit (2.0 against capacity 1.0) on
  // an otherwise idle host; low2's perfectly fitting 0.1 parks behind it
  // under the arrival-order rule. When low1 gives up, no capacity changes
  // — only the dequeue itself can trigger the sweep that seats low2. If
  // it didn't, low2 would poll in kQueued forever over a fully idle host.
  ASSERT_EQ(service.request(req(low1, 2.0)).outcome, Outcome::kQueued);
  ASSERT_EQ(service.request(req(low2, 0.1)).outcome, Outcome::kQueued);

  // The blocker leaves via release (it holds no grant).
  const auto rel = service.release(low1, group);
  EXPECT_FALSE(rel.released);
  EXPECT_EQ(rel.dequeued, (HolderList{{low1, group}}));
  ASSERT_EQ(rel.promoted.size(), 1u);
  EXPECT_EQ(rel.promoted[0].holder, (Holder{low2, group}));
  EXPECT_EQ(service.queued_requests(group), 0u);
  ASSERT_TRUE(service.release(low2, group).released);
}

TEST_F(QueueingFixture, CapacityFreedByAnotherGroupPromotesTheQueue) {
  // The capacity-change hook is host-scoped, not group-scoped: a release
  // in a three-regime group on the same host must promote this queueing
  // group's parked requests.
  const auto other =
      registry.create_group("other", FcmMode::kFreeAccess, chair);
  registry.join(mid, other);
  FloorRequest r = req(mid, 0.7);
  r.group = other;
  ASSERT_EQ(service.request(r).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(low1, 0.5)).outcome, Outcome::kQueued);

  const auto rel = service.release(mid, other);
  ASSERT_TRUE(rel.released);
  ASSERT_EQ(rel.promoted.size(), 1u);
  EXPECT_EQ(rel.promoted[0].holder, (Holder{low1, group}));
  EXPECT_EQ(service.queued_requests(group), 0u);
}

TEST_F(QueueingFixture, ChairedQueueingGroupStillGatesOnTheChair) {
  // Chair gating runs before the queue: a non-chair request in a chaired
  // queueing group is refused outright, never parked.
  const auto panel = registry.create_group("panel", FcmMode::kChaired, chair,
                                           PolicyKind::kQueueing);
  registry.join(low1, panel);
  FloorRequest r = req(low1, 0.1);
  r.group = panel;
  const auto refused = service.request(r);
  EXPECT_EQ(refused.outcome, Outcome::kDenied);
  EXPECT_EQ(refused.reason, Reason::kNotChair);
  EXPECT_EQ(service.queued_requests(panel), 0u);
  r.member = chair;
  EXPECT_EQ(service.request(r).outcome, Outcome::kGranted);

  // A chaired request in the free-access queueing group is gated the same
  // way. The host is starved below beta, so anything the queueing policy
  // saw would park: the non-chair is refused before it, the chair parks.
  ASSERT_EQ(service.request(req(mid, 0.85)).outcome, Outcome::kGranted);
  FloorRequest strict = req(low2, 0.1);
  strict.mode = FcmMode::kChaired;
  const auto gated = service.request(strict);
  EXPECT_EQ(gated.outcome, Outcome::kDenied);
  EXPECT_EQ(gated.reason, Reason::kNotChair);
  EXPECT_EQ(service.queued_requests(), 0u);
  strict.member = chair;
  const auto parked = service.request(strict);
  EXPECT_EQ(parked.outcome, Outcome::kQueued);
  EXPECT_EQ(parked.reason, Reason::kAbortArbitrate);
  EXPECT_EQ(service.queued_requests(group), 1u);
}

TEST_F(QueueingFixture, SweepPromotesEveryGroupOnTheFreedHost) {
  // One release sweeps every queueing group's entries, in group order.
  const auto second = registry.create_group("second", FcmMode::kFreeAccess,
                                            chair, PolicyKind::kQueueing);
  registry.join(low2, second);
  ASSERT_EQ(service.request(req(mid, 0.9)).outcome, Outcome::kGranted);
  ASSERT_EQ(service.request(req(low1, 0.3)).outcome, Outcome::kQueued);
  FloorRequest in_second = req(low2, 0.3);
  in_second.group = second;
  ASSERT_EQ(service.request(in_second).outcome, Outcome::kQueued);
  ASSERT_EQ(service.queued_requests(), 2u);

  const auto rel = service.release(mid, group);
  ASSERT_TRUE(rel.released);
  ASSERT_EQ(rel.promoted.size(), 2u);
  EXPECT_EQ(rel.promoted[0].holder, (Holder{low1, group}));
  EXPECT_EQ(rel.promoted[1].holder, (Holder{low2, second}));
  EXPECT_NEAR(service.host_manager().availability(), 0.4, 1e-12);
  EXPECT_EQ(service.queued_requests(), 0u);
}

// ------------------------------------------------ golden queueing stream

/// Order-sensitive FNV-1a fold over every field a Decision or a
/// ReleaseResult reports, down to the availability bits and the reason's
/// text as explain() renders it under the stream's thresholds.
struct StreamHash {
  Thresholds thresholds;
  std::uint64_t value = 0xcbf29ce484222325ULL;

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      value ^= p[i];
      value *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void real(double v) { bytes(&v, sizeof(v)); }
  void holders(const HolderList& list) {
    u64(list.size());
    for (const Holder& h : list) {
      u64(h.member.value());
      u64(h.group.value());
    }
  }
  void decision(const Decision& d) {
    u64(static_cast<std::uint64_t>(d.outcome));
    holders(d.suspended);
    const std::string reason = explain(d, thresholds);
    u64(reason.size());
    bytes(reason.data(), reason.size());
    real(d.availability_before);
    real(d.availability_after);
  }
  void result(const ReleaseResult& r) {
    u64(r.released ? 1 : 0);
    holders(r.resumed);
    u64(r.promoted.size());
    for (const Promotion& p : r.promoted) {
      u64(p.holder.member.value());
      u64(p.holder.group.value());
      decision(p.decision);
    }
    holders(r.dequeued);
  }
};

/// How often the stream reached each regime, so the golden hash cannot pass
/// by covering nothing.
struct RegimeTally {
  std::size_t aborted = 0, degraded = 0, denied = 0, queued = 0;
  std::size_t promoted = 0, suspending_promotions = 0, dequeued = 0;

  void decision(const Decision& d) {
    aborted += d.outcome == Outcome::kAborted;
    degraded += d.outcome == Outcome::kGrantedDegraded;
    denied += d.outcome == Outcome::kDenied;
    queued += d.outcome == Outcome::kQueued;
  }
  void result(const ReleaseResult& r) {
    promoted += r.promoted.size();
    dequeued += r.dequeued.size();
    for (const Promotion& p : r.promoted) {
      decision(p.decision);
      suspending_promotions += !p.decision.suspended.empty();
    }
  }
};

TEST(GoldenQueueingStream, DecisionsAndReleasesMatchTheRecordedHash) {
  // A seeded stream over three queueing groups and one three-regime group
  // sharing four hosts, fed to a ShardedFloorService. qos sizes range up to
  // 0.7, so a blocked head often has fitting entries behind it; priorities
  // 1-3 let promotions Media-Suspend; members re-request while parked,
  // release, and leave and rejoin groups. Multi-host releases merge in
  // route order, and every op sees the registry's leave/join before it.
  sim::Simulator sim;
  clk::TrueClock clock{sim};
  GroupRegistry registry;
  const Thresholds thresholds{0.25, 0.05};
  ShardedFloorService sharded{registry, clock, thresholds};
  constexpr std::uint32_t kHosts = 4;
  constexpr std::uint32_t kGroups = 4;
  constexpr std::uint32_t kMembers = 48;
  for (std::uint32_t h = 1; h <= kHosts; ++h) {
    sharded.add_host(HostId{h}, Resource{1.0, 1.0, 1.0});
  }
  std::vector<GroupId> groups;
  std::vector<MemberId> members;
  const MemberId chair = registry.add_member("chair", 3, HostId{1});
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    groups.push_back(registry.create_group(
        "g" + std::to_string(g), FcmMode::kFreeAccess, chair,
        g + 1 < kGroups ? PolicyKind::kQueueing : PolicyKind::kThreeRegime));
  }
  for (std::uint32_t i = 0; i < kMembers; ++i) {
    members.push_back(registry.add_member("m" + std::to_string(i),
                                          1 + static_cast<int>(i % 3),
                                          HostId{1 + i % kHosts}));
    registry.join(members.back(), groups[i % kGroups]);
    registry.join(members.back(), groups[(i + 1) % kGroups]);
  }

  StreamHash hash{thresholds};
  RegimeTally tally;
  const auto fold_decisions = [&](const FloorRequest& r) {
    const Decision d = sharded.request(r);
    hash.decision(d);
    tally.decision(d);
  };
  const auto fold_releases = [&](MemberId m, GroupId g) {
    const ReleaseResult r = sharded.release(m, g);
    hash.result(r);
    tally.result(r);
  };

  const double sizes[] = {0.05, 0.1, 0.15, 0.25, 0.3, 0.45, 0.7};
  util::Rng rng(12);
  for (int op = 0; op < 4000; ++op) {
    const std::uint32_t i = static_cast<std::uint32_t>(rng.index(kMembers));
    const MemberId member = members[i];
    const GroupId group = groups[(i + (rng.chance(0.5) ? 1 : 0)) % kGroups];
    if (!registry.in_group(member, group)) {  // left earlier: come back
      hash.u64(registry.join(member, group) ? 1 : 0);
      continue;
    }
    const double roll = rng.uniform();
    if (roll < 0.55) {
      FloorRequest r;
      r.group = group;
      r.member = member;
      r.host = rng.chance(0.8)
                   ? HostId{1 + i % kHosts}
                   : HostId{1 + static_cast<std::uint32_t>(rng.index(kHosts))};
      const double q = sizes[rng.index(std::size(sizes))];
      r.qos = media::QosRequirement{q, q, q};
      fold_decisions(r);
    } else if (roll < 0.93) {
      fold_releases(member, group);
    } else {  // leave: everything held or parked in the group goes first
      fold_releases(member, group);
      hash.u64(registry.leave(member, group) ? 1 : 0);
    }
  }
  // Drain: once every member has released everywhere, nothing is left
  // held, suspended or parked.
  for (std::uint32_t i = 0; i < kMembers; ++i) {
    for (std::uint32_t k = 0; k < 2; ++k) {
      fold_releases(members[i], groups[(i + k) % kGroups]);
    }
  }
  EXPECT_EQ(sharded.active_grants() + sharded.suspended_grants(), 0u);
  EXPECT_EQ(sharded.queued_requests(), 0u);

  EXPECT_GT(tally.aborted, 0u);
  EXPECT_GT(tally.degraded, 0u);
  EXPECT_GT(tally.denied, 0u);
  EXPECT_GT(tally.queued, 0u);
  EXPECT_GT(tally.promoted, 0u);
  EXPECT_GT(tally.suspending_promotions, 0u);
  EXPECT_GT(tally.dequeued, 0u);
  EXPECT_EQ(hash.value, 0x06bb9e5471ead147ULL);
}

// ------------------------------------------------------------ reason text

TEST_F(ServiceFixture, ExplainRendersEachReasonCodeAsItsSentence) {
  // One decision per rule, each from a real service, rendered under the
  // fixture's thresholds (alpha 0.25, beta 0.0625). The literals pin each
  // sentence byte for byte, as the golden stream's hash pins them in bulk:
  // logs and reports written against the text keep reading the same.
  const auto queue = registry.create_group("q", FcmMode::kFreeAccess, chair,
                                           PolicyKind::kQueueing);
  const auto panel = registry.create_group("p", FcmMode::kChaired, chair);
  for (const auto m : {low1, low2, low3, mid}) registry.join(m, queue);
  registry.join(low1, panel);
  const auto in = [this](MemberId m, double q, GroupId g) {
    FloorRequest r = req(m, q);
    r.group = g;
    return r;
  };
  struct Row {
    Decision decision;
    Reason reason;
    const char* text;
  };
  std::vector<Row> rows;
  const auto row = [&rows](Decision d, Reason reason, const char* text) {
    rows.push_back(Row{std::move(d), reason, text});
  };

  row(service.request(req(low1, 0.5)), Reason::kFullRegime, "full regime");
  service.release(low1, group);

  ASSERT_EQ(service.request(req(low1, 0.8)).outcome, Outcome::kGranted);
  row(service.request(req(chair, 0.1)), Reason::kDegradedRegime,
      "degraded regime (availability 0.200 < alpha 0.250), fits without "
      "suspension");
  service.release(chair, group);
  service.release(low1, group);

  for (const auto m : {low1, low2, low3}) {
    ASSERT_EQ(service.request(req(m, 0.25)).outcome, Outcome::kGranted);
  }
  ASSERT_EQ(service.request(req(mid, 0.1)).outcome, Outcome::kGranted);
  row(service.request(req(chair, 0.5)), Reason::kMediaSuspend,
      "media-suspend freed capacity: 2 holder(s) suspended");
  EXPECT_EQ(rows.back().decision.suspended.size(), 2u);
  for (const auto m : {chair, low1, low2, low3, mid}) service.release(m, group);

  ASSERT_EQ(service.request(req(mid, 0.7)).outcome, Outcome::kGranted);
  row(service.request(req(low1, 0.7)), Reason::kDoesNotFit,
      "denied: request does not fit even after media-suspend "
      "(availability 0.300)");
  row(service.request(in(low2, 0.7, queue)), Reason::kDoesNotFit,
      "queued: denied: request does not fit even after media-suspend "
      "(availability 0.300)");
  row(service.request(in(low3, 0.1, queue)), Reason::kParkedBehind,
      "queued: parked behind 1 earlier request(s) for this host");
  EXPECT_EQ(rows.back().decision.parked_ahead, 1u);
  row(service.request(in(low1, 0.1, queue)), Reason::kParkedBehind,
      "queued: parked behind 2 earlier request(s) for this host");
  EXPECT_EQ(rows.back().decision.parked_ahead, 2u);
  row(service.request(in(low2, 0.7, queue)), Reason::kAlreadyPending,
      "queued: request already pending in this group");
  for (const auto m : {low1, low2, low3}) service.release(m, queue);
  service.release(mid, group);

  ASSERT_EQ(service.request(req(low1, 0.96)).outcome, Outcome::kGranted);
  row(service.request(req(chair, 0.01)), Reason::kAbortArbitrate,
      "abort-arbitrate: availability 0.040 < beta 0.062");
  row(service.request(in(low2, 0.01, queue)), Reason::kAbortArbitrate,
      "queued: abort-arbitrate: availability 0.040 < beta 0.062");
  service.release(low2, queue);
  service.release(low1, group);

  row(service.request(in(low1, 0.1, panel)), Reason::kNotChair,
      "chaired discipline: only the chair may seize the floor");
  row(service.request(in(mid, 0.1, panel)), Reason::kNotMember,
      "requester is not a member of the group");
  FloorRequest stranger = req(low1, 0.1);
  stranger.host = HostId{99};
  row(service.request(stranger), Reason::kUnknownHost, "unknown host station");
  row(Decision{}, Reason::kNone, "");

  std::set<Reason> covered;
  for (const Row& r : rows) {
    EXPECT_EQ(r.decision.reason, r.reason) << r.text;
    EXPECT_EQ(explain(r.decision, service.thresholds()), r.text);
    covered.insert(r.reason);
  }
  EXPECT_EQ(covered.size(), static_cast<std::size_t>(Reason::kUnknownHost) + 1)
      << "every Reason needs a row here";
}

TEST(GroupRegistry, JoinLeaveChairRules) {
  GroupRegistry registry;
  const auto chair = registry.add_member("chair", 3, HostId{1});
  const auto member = registry.add_member("m", 1, HostId{1});
  const auto group = registry.create_group("g", FcmMode::kFreeAccess, chair);
  EXPECT_TRUE(registry.in_group(chair, group));  // chair auto-joins
  EXPECT_TRUE(registry.join(member, group));
  EXPECT_FALSE(registry.join(member, group));  // already in
  EXPECT_FALSE(registry.leave(chair, group));  // the chair anchors the group
  EXPECT_TRUE(registry.leave(member, group));
  EXPECT_FALSE(registry.in_group(member, group));
  // Membership bits span words: ids past the chair's first 64-bit word join,
  // test and leave one bit each, and never touch their neighbours.
  std::vector<MemberId> more;
  for (int i = 0; i < 130; ++i) more.push_back(registry.add_member("x", 1, HostId{1}));
  EXPECT_FALSE(registry.leave(more[129], group));  // past the last word: not in
  EXPECT_TRUE(registry.join(more[128], group));
  EXPECT_TRUE(registry.join(more[63], group));
  EXPECT_TRUE(registry.in_group(more[128], group));
  EXPECT_FALSE(registry.in_group(more[127], group));
  EXPECT_FALSE(registry.in_group(more[129], group));
  EXPECT_TRUE(registry.leave(more[128], group));
  EXPECT_FALSE(registry.in_group(more[128], group));
  EXPECT_TRUE(registry.in_group(more[63], group));
  EXPECT_TRUE(registry.in_group(chair, group));
  // A group cannot be chaired by an unregistered member.
  EXPECT_THROW(registry.create_group("bad", FcmMode::kFreeAccess, MemberId{}),
               std::invalid_argument);
}

TEST(GroupRegistry, PolicySelectionLivesOnTheGroup) {
  GroupRegistry registry;
  const auto chair = registry.add_member("chair", 3, HostId{1});
  const auto g1 = registry.create_group("g1", FcmMode::kFreeAccess, chair);
  EXPECT_EQ(registry.group(g1).policy, PolicyKind::kThreeRegime);  // default
  const auto g2 = registry.create_group("g2", FcmMode::kFreeAccess, chair,
                                        PolicyKind::kQueueing);
  EXPECT_EQ(registry.group(g2).policy, PolicyKind::kQueueing);
  EXPECT_TRUE(registry.set_policy(g1, PolicyKind::kQueueing));
  EXPECT_EQ(registry.group(g1).policy, PolicyKind::kQueueing);
  EXPECT_FALSE(registry.set_policy(GroupId{99}, PolicyKind::kQueueing));
}

}  // namespace
