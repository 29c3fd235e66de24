// Differential test: GrantStore's per-priority grant lists and
// QueueingPolicy's slot-threaded FIFOs decide exactly like ordered maps.
//
// The reference model below keeps grants in two std::maps keyed
// (priority, seq) — active ascending, suspended by priority descending then
// seq ascending — and parked requests in a std::map of std::deques by
// group id, and implements the three-regime rule, queueing, cancel and
// promotion over them as plain, obviously ordered code. Seeded random
// streams drive both through the same requests, releases and capacity
// sweeps, and after every step the decisions (victim order included), the
// Media-Resume order, the promotions, the dequeues and availability()
// must agree bit for bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "floor/grant_store.hpp"
#include "floor/policy.hpp"
#include "util/rng.hpp"

namespace {

using namespace dmps;
using namespace dmps::floorctl;
using resource::Resource;
using resource::Thresholds;

// ------------------------------------------------------------ the reference

class RefStore {
 public:
  explicit RefStore(Resource capacity) : manager_(capacity) {}

  double availability() const { return manager_.availability(); }
  bool can_fit(const Resource& need) const { return manager_.can_fit(need); }
  std::size_t active_grants() const { return active_.size(); }
  std::size_t suspended_grants() const { return suspended_.size(); }

  bool suspend_to_fit(const Resource& need, int priority,
                      std::vector<Holder>& suspended) {
    std::vector<std::size_t> taken;
    for (auto it = active_.begin();
         it != active_.end() && !manager_.can_fit(need); ++it) {
      if (it->first.first >= priority) break;
      manager_.release(grants_[it->second].amount);
      taken.push_back(it->second);
    }
    if (!manager_.can_fit(need)) {
      for (const std::size_t idx : taken) manager_.reserve(grants_[idx].amount);
      return false;
    }
    for (const std::size_t idx : taken) {
      Grant& grant = grants_[idx];
      grant.suspended = true;
      active_.erase({grant.priority, grant.seq});
      suspended_.emplace(Key{grant.priority, grant.seq}, idx);
      suspended.push_back(Holder{grant.member, grant.group});
    }
    return true;
  }

  void commit_grant(MemberId member, GroupId group, const Resource& need,
                    int priority) {
    manager_.reserve(need);
    const std::uint64_t seq = next_seq_++;
    grants_.push_back(Grant{member, group, need, priority, seq, false, false});
    active_.emplace(Key{priority, seq}, grants_.size() - 1);
    holders_[holder_key(member, group)].push_back(grants_.size() - 1);
  }

  void resume_suspended(std::vector<Holder>& resumed) {
    std::vector<Key> admitted;
    for (const auto& [key, idx] : suspended_) {
      Grant& grant = grants_[idx];
      if (!manager_.reserve(grant.amount)) continue;
      grant.suspended = false;
      admitted.push_back(key);
      resumed.push_back(Holder{grant.member, grant.group});
    }
    for (const Key& key : admitted) {
      active_.emplace(key, suspended_.at(key));
      suspended_.erase(key);
    }
  }

  GrantStore::HolderRelease release_holder(MemberId member, GroupId group) {
    GrantStore::HolderRelease result;
    auto it = holders_.find(holder_key(member, group));
    if (it == holders_.end() || it->second.empty()) return result;
    result.released = true;
    for (const std::size_t idx : it->second) {
      Grant& grant = grants_[idx];
      if (grant.released) continue;
      grant.released = true;
      if (grant.suspended) {
        suspended_.erase({grant.priority, grant.seq});
      } else {
        manager_.release(grant.amount);
        active_.erase({grant.priority, grant.seq});
        result.freed = true;
      }
    }
    it->second.clear();
    return result;
  }

 private:
  struct Grant {
    MemberId member;
    GroupId group;
    Resource amount;
    int priority;
    std::uint64_t seq;
    bool suspended;
    bool released;
  };
  using Key = std::pair<int, std::uint64_t>;
  struct ResumeOrder {
    bool operator()(const Key& a, const Key& b) const {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    }
  };

  resource::HostResourceManager manager_;
  std::map<Key, std::size_t> active_;
  std::map<Key, std::size_t, ResumeOrder> suspended_;
  std::vector<Grant> grants_;
  std::map<std::uint64_t, std::vector<std::size_t>> holders_;
  std::uint64_t next_seq_ = 0;
};

/// What a reference decision reports: a Decision with plain vectors.
struct RefDecision {
  Outcome outcome = Outcome::kDenied;
  Reason reason = Reason::kNone;
  std::size_t parked_ahead = 0;
  std::vector<Holder> suspended;
  double availability_before = 0.0;
  double availability_after = 0.0;
};

RefDecision ref_three_regime(const Thresholds& thresholds,
                             const FloorRequest& request, int priority,
                             RefStore& store) {
  RefDecision d;
  const double avail = store.availability();
  d.availability_before = avail;
  const Resource need = Resource::from_qos(request.qos);
  if (avail < thresholds.beta) {
    d.outcome = Outcome::kAborted;
    d.reason = Reason::kAbortArbitrate;
    d.availability_after = avail;
    return d;
  }
  const bool full = avail >= thresholds.alpha;
  if (!store.can_fit(need) && !store.suspend_to_fit(need, priority, d.suspended)) {
    d.outcome = Outcome::kDenied;
    d.reason = Reason::kDoesNotFit;
    d.availability_after = store.availability();
    return d;
  }
  store.commit_grant(request.member, request.group, need, priority);
  if (!d.suspended.empty()) {
    d.outcome = Outcome::kGrantedDegraded;
    d.reason = Reason::kMediaSuspend;
  } else if (full) {
    d.outcome = Outcome::kGranted;
    d.reason = Reason::kFullRegime;
  } else {
    d.outcome = Outcome::kGrantedDegraded;
    d.reason = Reason::kDegradedRegime;
  }
  d.availability_after = store.availability();
  return d;
}

bool granted(Outcome outcome) {
  return outcome == Outcome::kGranted || outcome == Outcome::kGrantedDegraded;
}

struct RefRelease {
  bool released = false;
  std::vector<Holder> resumed;
  std::vector<std::pair<Holder, RefDecision>> promoted;
  std::vector<Holder> dequeued;
};

class RefQueue {
 public:
  explicit RefQueue(Thresholds thresholds) : thresholds_(thresholds) {}

  RefDecision decide(const FloorRequest& request, int priority,
                     RefStore& store) {
    const auto it = queues_.find(request.group.value());
    if (it != queues_.end()) {
      RefDecision d;
      d.outcome = Outcome::kQueued;
      d.availability_before = store.availability();
      d.availability_after = d.availability_before;
      for (Parked& parked : it->second) {
        if (parked.request.member == request.member) {
          parked = Parked{request, priority};
          d.reason = Reason::kAlreadyPending;
          return d;
        }
      }
      d.reason = Reason::kParkedBehind;
      d.parked_ahead = it->second.size();
      it->second.push_back(Parked{request, priority});
      return d;
    }
    RefDecision d = ref_three_regime(thresholds_, request, priority, store);
    if (granted(d.outcome)) return d;
    queues_[request.group.value()].push_back(Parked{request, priority});
    d.outcome = Outcome::kQueued;
    return d;
  }

  bool cancel(MemberId member, GroupId group, RefRelease& out) {
    const auto it = queues_.find(group.value());
    if (it == queues_.end()) return false;
    const std::size_t before = it->second.size();
    for (auto p = it->second.begin(); p != it->second.end();) {
      if (p->request.member != member) {
        ++p;
        continue;
      }
      out.dequeued.push_back(Holder{member, group});
      p = it->second.erase(p);
    }
    const bool dropped = it->second.size() != before;
    if (it->second.empty()) queues_.erase(it);
    return dropped;
  }

  void promote(RefStore& store, RefRelease& out) {
    if (store.availability() < thresholds_.beta) return;
    for (auto it = queues_.begin(); it != queues_.end();) {
      bool starved = false;
      for (auto p = it->second.begin(); p != it->second.end() && !starved;) {
        RefDecision d = ref_three_regime(thresholds_, p->request, p->priority,
                                         store);
        if (!granted(d.outcome)) {
          ++p;
          continue;
        }
        out.promoted.emplace_back(Holder{p->request.member, p->request.group},
                                  std::move(d));
        p = it->second.erase(p);
        starved = store.availability() < thresholds_.beta;
      }
      it = it->second.empty() ? queues_.erase(it) : std::next(it);
      if (starved) return;
    }
  }

  std::size_t queued(GroupId group) const {
    const auto it = queues_.find(group.value());
    return it == queues_.end() ? 0 : it->second.size();
  }

 private:
  struct Parked {
    FloorRequest request;
    int priority;
  };
  Thresholds thresholds_;
  std::map<GroupId::value_type, std::deque<Parked>> queues_;
};

// ------------------------------------------------------------ comparisons

void expect_same_holders(const HolderList& got, const std::vector<Holder>& want,
                         const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << what << " #" << i;
  }
}

void expect_same_decision(const Decision& got, const RefDecision& want) {
  EXPECT_EQ(got.outcome, want.outcome);
  EXPECT_EQ(got.reason, want.reason);
  EXPECT_EQ(got.parked_ahead, want.parked_ahead);
  expect_same_holders(got.suspended, want.suspended, "suspended");
  // Bitwise: the walks must add and subtract in the same order.
  EXPECT_EQ(got.availability_before, want.availability_before);
  EXPECT_EQ(got.availability_after, want.availability_after);
}

void expect_same_release(const ReleaseResult& got, const RefRelease& want) {
  EXPECT_EQ(got.released, want.released);
  expect_same_holders(got.resumed, want.resumed, "resumed");
  ASSERT_EQ(got.promoted.size(), want.promoted.size());
  for (std::size_t i = 0; i < want.promoted.size(); ++i) {
    EXPECT_EQ(got.promoted[i].holder, want.promoted[i].first) << "promoted #" << i;
    expect_same_decision(got.promoted[i].decision, want.promoted[i].second);
  }
  expect_same_holders(got.dequeued, want.dequeued, "dequeued");
}

// ------------------------------------------------------------ the two sides

/// One host's arbitration as FloorService runs it (chair gate and
/// membership aside), over the real classes.
struct Real {
  Thresholds thresholds;
  GrantStore store;
  ThreeRegimePolicy rule{thresholds};
  QueueingPolicy queueing{rule};

  Real(Thresholds t, Resource capacity) : thresholds(t), store(capacity) {}

  Decision request(const FloorRequest& r, int priority, bool queue) {
    return queue ? queueing.decide(r, priority, store)
                 : rule.decide(r, priority, store);
  }
  void sweep(ReleaseResult& out) {
    for (;;) {
      const std::size_t before = out.resumed.size() + out.promoted.size();
      store.resume_suspended(out.resumed);
      queueing.promote(store, out);
      if (out.resumed.size() + out.promoted.size() == before) break;
    }
  }
  ReleaseResult release(MemberId member, GroupId group) {
    ReleaseResult out;
    const auto freed = store.release_holder(member, group);
    out.released = freed.released;
    const bool dropped = queueing.cancel(member, group, out);
    if (freed.freed || dropped) sweep(out);
    return out;
  }
};

/// The same, over the reference model.
struct Ref {
  Thresholds thresholds;
  RefStore store;
  RefQueue queueing{thresholds};

  Ref(Thresholds t, Resource capacity) : thresholds(t), store(capacity) {}

  RefDecision request(const FloorRequest& r, int priority, bool queue) {
    return queue ? queueing.decide(r, priority, store)
                 : ref_three_regime(thresholds, r, priority, store);
  }
  void sweep(RefRelease& out) {
    for (;;) {
      const std::size_t before = out.resumed.size() + out.promoted.size();
      store.resume_suspended(out.resumed);
      queueing.promote(store, out);
      if (out.resumed.size() + out.promoted.size() == before) break;
    }
  }
  RefRelease release(MemberId member, GroupId group) {
    RefRelease out;
    const auto freed = store.release_holder(member, group);
    out.released = freed.released;
    const bool dropped = queueing.cancel(member, group, out);
    if (freed.freed || dropped) sweep(out);
    return out;
  }
};

FloorRequest make_request(MemberId member, GroupId group, double q) {
  FloorRequest r;
  r.group = group;
  r.member = member;
  r.host = HostId{1};
  r.qos = media::QosRequirement{q, q, q};
  return r;
}

TEST(FlatStructuresMatchOrderedMaps, OnSeededRandomStreams) {
  // Priorities include a chair-like 1,000,000; groups 0 and 1 queue, group
  // 2 is three-regime. Sizes run from slivers to over half the host, so
  // blocked heads, multi-victim suspensions and partial resumes all occur.
  const int priorities[] = {1, 2, 3, 1'000'000};
  const double sizes[] = {0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.35, 0.5, 0.65};
  constexpr std::uint32_t kMembers = 14;
  constexpr std::uint32_t kGroups = 3;
  std::size_t suspends = 0, resumes = 0, promotions = 0, dequeues = 0,
              pending = 0;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    util::Rng rng(seed);
    const Thresholds thresholds{0.25, 0.05};
    Real real(thresholds, Resource{1.0, 1.0, 1.0});
    Ref ref(thresholds, Resource{1.0, 1.0, 1.0});
    std::vector<int> priority(kMembers);
    for (int& p : priority) p = priorities[rng.index(std::size(priorities))];
    for (int op = 0; op < 400; ++op) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " op " << op);
      const auto m = static_cast<std::uint32_t>(rng.index(kMembers));
      const MemberId member{m};
      const GroupId group{static_cast<std::uint32_t>(rng.index(kGroups))};
      const bool queue = group.value() < 2;
      if (rng.chance(0.55)) {
        const double q = rng.chance(0.3) ? rng.uniform(0.01, 0.6)
                                         : sizes[rng.index(std::size(sizes))];
        const FloorRequest r = make_request(member, group, q);
        const Decision got = real.request(r, priority[m], queue);
        const RefDecision want = ref.request(r, priority[m], queue);
        expect_same_decision(got, want);
        suspends += got.suspended.size();
        pending += got.reason == Reason::kAlreadyPending;
      } else {
        const ReleaseResult got = real.release(member, group);
        const RefRelease want = ref.release(member, group);
        expect_same_release(got, want);
        resumes += got.resumed.size();
        promotions += got.promoted.size();
        dequeues += got.dequeued.size();
        for (const Promotion& promotion : got.promoted) {
          suspends += promotion.decision.suspended.size();
        }
      }
      ASSERT_EQ(real.store.availability(), ref.store.availability());
      ASSERT_EQ(real.store.active_grants(), ref.store.active_grants());
      ASSERT_EQ(real.store.suspended_grants(), ref.store.suspended_grants());
      for (std::uint32_t g = 0; g < kGroups; ++g) {
        ASSERT_EQ(real.queueing.queued(GroupId{g}), ref.queueing.queued(GroupId{g}));
      }
      if (HasFatalFailure()) return;
    }
  }
  // The streams reached every path they are meant to compare.
  EXPECT_GT(suspends, 1000u);
  EXPECT_GT(resumes, 1000u);
  EXPECT_GT(promotions, 1000u);
  EXPECT_GT(dequeues, 1000u);
  EXPECT_GT(pending, 1000u);
}

TEST(FlatStructuresMatchOrderedMaps, AResumedGrantReentersWithItsOldSeq) {
  // Two priority-1 grants, then a chair-like grant that suspends the older
  // one, then a newer priority-1 grant. When the chair releases, the old
  // grant resumes with its old seq: it must sit ahead of both newer
  // priority-1 grants, so the next suspension takes it first, as the
  // ordered map did.
  const Thresholds thresholds{0.25, 0.05};
  Real real(thresholds, Resource{1.0, 1.0, 1.0});
  Ref ref(thresholds, Resource{1.0, 1.0, 1.0});
  const GroupId three{2};
  const auto both = [&](MemberId m, double q, int priority) {
    const FloorRequest r = make_request(m, three, q);
    const Decision got = real.request(r, priority, false);
    expect_same_decision(got, ref.request(r, priority, false));
    return got;
  };
  const MemberId old_one{1}, second{2}, chair{3}, newest{4}, prober{5};
  ASSERT_TRUE(granted(both(old_one, 0.3, 1).outcome));
  ASSERT_TRUE(granted(both(second, 0.3, 1).outcome));
  const Decision seize = both(chair, 0.6, 1'000'000);
  expect_same_holders(seize.suspended, {Holder{old_one, three}}, "seize");
  // The chair's release frees 0.6: the old grant resumes; the newest one,
  // granted after it, goes behind it in grant order.
  const ReleaseResult rel = real.release(chair, three);
  expect_same_release(rel, ref.release(chair, three));
  expect_same_holders(rel.resumed, {Holder{old_one, three}}, "resume");
  ASSERT_TRUE(granted(both(newest, 0.3, 1).outcome));
  // A priority-2 request that needs one victim takes the oldest grant,
  // the resumed one, not the newest.
  const Decision probe = both(prober, 0.3, 2);
  expect_same_holders(probe.suspended, {Holder{old_one, three}}, "probe");
  EXPECT_EQ(real.store.availability(), ref.store.availability());
}

}  // namespace
