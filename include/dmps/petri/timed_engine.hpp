#pragma once
// Incremental timed-net engine (candidate heap).
//
// Semantics: a token deposited in place p at time t becomes consumable by a
// normal arc at t + p.duration (it "matures"); a priority arc may seize it
// at t directly. A transition's candidate firing instant is the max, over
// its input arcs, of the weight-th earliest token's availability; the
// engine always fires the globally earliest candidate (priority transitions
// win ties, then lower id).
//
// The incremental part: firing a transition only disturbs the places it
// touches, so only *their* consumer transitions get their candidates
// recomputed and re-pushed (stamped; stale heap entries are skipped on
// pop). The naive alternative — rescan every transition per step — is kept
// in bench_fig1_schedule.cpp as an ablation; the decision is recorded in
// DESIGN.md §6.7.
//
// Besides run() (fire to quiescence, jumping time), the engine exposes
// peek()/fire_next() so an external driver — the DOCPN engine firing under
// a synchronized global clock — can pace firings itself.

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "petri/net.hpp"
#include "util/duration.hpp"

namespace dmps::petri {

class TimedEngine {
 public:
  struct Candidate {
    util::TimePoint when;
    TransitionId transition;
  };

  explicit TimedEngine(const Net& net);

  /// Deposit a token into `p` at instant `at` (matures at + duration).
  void put_token(PlaceId p, util::TimePoint at);

  /// Slide every pending token's deposit/maturity forward by `d` and
  /// recompute all candidates. This is how a paused playout resumes at the
  /// right schedule point: the remaining net is intact, only shifted by
  /// the suspension span. `d` must be non-negative.
  void shift_pending(util::Duration d);

  /// Earliest pending candidate, if any transition is enabled.
  std::optional<Candidate> peek();

  /// Fire the earliest candidate. Returns false when nothing is enabled.
  bool fire_next();

  /// Fire candidates until quiescence (or max_steps); returns fire count.
  std::size_t run(std::size_t max_steps = SIZE_MAX);

  util::TimePoint now() const { return now_; }
  std::size_t tokens(PlaceId p) const { return tokens_.at(p.value()).size(); }

  // Observation hooks (all optional).
  std::function<void(TransitionId, util::TimePoint)> on_fire;
  std::function<void(PlaceId, TransitionId, util::TimePoint)> on_consume;
  std::function<void(PlaceId, util::TimePoint)> on_produce;

 private:
  struct Token {
    util::TimePoint deposit;
    util::TimePoint mature;
  };
  struct HeapEntry {
    util::TimePoint when;
    int tie_rank;  // 0 for priority transitions, 1 otherwise
    TransitionId transition;
    std::uint64_t stamp;
    bool operator>(const HeapEntry& o) const {
      if (when != o.when) return o.when < when;
      if (tie_rank != o.tie_rank) return tie_rank > o.tie_rank;
      return o.transition < transition;
    }
  };

  std::optional<util::TimePoint> candidate_time(TransitionId t) const;
  void refresh(TransitionId t);
  void fire(TransitionId t, util::TimePoint when);

  const Net& net_;
  util::TimePoint now_ = util::TimePoint::zero();
  std::vector<std::deque<Token>> tokens_;   // by place, sorted by maturity
  std::vector<std::uint64_t> stamps_;       // by transition
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<HeapEntry>>
      heap_;
};

}  // namespace dmps::petri
