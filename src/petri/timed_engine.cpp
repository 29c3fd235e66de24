#include "petri/timed_engine.hpp"

#include <algorithm>

namespace dmps::petri {

TimedEngine::TimedEngine(const Net& net)
    : net_(net), tokens_(net.place_count()), stamps_(net.transition_count(), 0) {}

void TimedEngine::put_token(PlaceId p, util::TimePoint at) {
  auto& deque = tokens_.at(p.value());
  const Token token{at, at + net_.place(p).duration};
  // Deposits from firings arrive in nondecreasing order, so this insert is
  // O(1) amortized; the bound protects out-of-order external puts.
  const auto pos = std::upper_bound(
      deque.begin(), deque.end(), token,
      [](const Token& a, const Token& b) { return a.mature < b.mature; });
  deque.insert(pos, token);
  for (const TransitionId t : net_.consumers(p)) refresh(t);
}

void TimedEngine::shift_pending(util::Duration d) {
  if (d <= util::Duration::zero()) return;
  for (auto& deque : tokens_) {
    for (Token& token : deque) {
      token.deposit += d;
      token.mature += d;
    }
  }
  // Every candidate may have moved; restamp them all (old heap entries go
  // stale and are skipped on pop).
  for (const TransitionId t : net_.transition_ids()) refresh(t);
}

std::optional<util::TimePoint> TimedEngine::candidate_time(TransitionId t) const {
  const auto& arcs = net_.inputs(t);
  if (arcs.empty()) return std::nullopt;  // source transitions never self-fire
  util::TimePoint when = now_;
  for (const Arc& arc : arcs) {
    const auto& deque = tokens_.at(arc.place.value());
    if (deque.size() < arc.weight) return std::nullopt;
    const Token& token = deque[arc.weight - 1];
    when = util::max_time(when, arc.priority ? token.deposit : token.mature);
  }
  return when;
}

void TimedEngine::refresh(TransitionId t) {
  const std::uint64_t stamp = ++stamps_.at(t.value());  // invalidate old entries
  if (const auto when = candidate_time(t)) {
    heap_.push(HeapEntry{*when, net_.transition(t).priority ? 0 : 1, t, stamp});
  }
}

std::optional<TimedEngine::Candidate> TimedEngine::peek() {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.top();
    if (top.stamp != stamps_.at(top.transition.value())) {
      heap_.pop();  // stale
      continue;
    }
    return Candidate{top.when, top.transition};
  }
  return std::nullopt;
}

bool TimedEngine::fire_next() {
  const auto candidate = peek();
  if (!candidate) return false;
  heap_.pop();
  fire(candidate->transition, candidate->when);
  return true;
}

void TimedEngine::fire(TransitionId t, util::TimePoint when) {
  now_ = util::max_time(now_, when);
  for (const Arc& arc : net_.inputs(t)) {
    auto& deque = tokens_.at(arc.place.value());
    deque.erase(deque.begin(), deque.begin() + arc.weight);
    if (on_consume) on_consume(arc.place, t, now_);
  }
  if (on_fire) on_fire(t, now_);
  for (const Arc& arc : net_.outputs(t)) {
    for (std::uint32_t i = 0; i < arc.weight; ++i) put_token(arc.place, now_);
    if (on_produce) on_produce(arc.place, now_);
  }
  // put_token refreshed the output places' consumers; input places lost
  // tokens, so their consumers (including t itself) must recompute too.
  for (const Arc& arc : net_.inputs(t)) {
    for (const TransitionId consumer : net_.consumers(arc.place)) refresh(consumer);
  }
}

std::size_t TimedEngine::run(std::size_t max_steps) {
  std::size_t steps = 0;
  while (steps < max_steps && fire_next()) ++steps;
  return steps;
}

}  // namespace dmps::petri
