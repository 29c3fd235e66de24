#include "obs/trace.hpp"

#include <algorithm>
#include <ostream>

namespace dmps::obs {

std::string_view to_string(Ev kind) {
  switch (kind) {
    case Ev::kRequest: return "request";
    case Ev::kDecide: return "decide";
    case Ev::kGrant: return "grant";
    case Ev::kDeny: return "deny";
    case Ev::kQueue: return "queue";
    case Ev::kSuspend: return "suspend";
    case Ev::kResume: return "resume";
    case Ev::kPromote: return "promote";
    case Ev::kRelease: return "release";
    case Ev::kSweep: return "sweep";
    case Ev::kSend: return "send";
    case Ev::kRetransmit: return "retransmit";
    case Ev::kDupDrop: return "dup_drop";
    case Ev::kReplayHit: return "replay_hit";
  }
  return "unknown";
}

// ---------------------------------------------------------------- TraceRing

TraceRing::TraceRing(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

void TraceRing::push(const TraceEvent& ev) {
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);  // within the reserved storage: never reallocates
    return;
  }
  // Full: overwrite the oldest so the retained window is always the newest.
  ring_[head_] = ev;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

// -------------------------------------------------- FingerprintAccumulator

namespace {

/// The per-event hash contribution. Integer inputs only; timestamps are
/// deliberately absent so wall-clock jitter can never move a fingerprint.
std::uint64_t event_hash(const TraceEvent& ev) {
  std::uint64_t h = (static_cast<std::uint64_t>(ev.kind) << 8) |
                    static_cast<std::uint64_t>(ev.arg);
  h = mix64(h ^ ((static_cast<std::uint64_t>(ev.actor) << 32) |
                 static_cast<std::uint64_t>(ev.shard)));
  h = mix64(h ^ static_cast<std::uint64_t>(ev.value));
  return h;
}

std::uint64_t station_key(const TraceEvent& ev) {
  return (static_cast<std::uint64_t>(ev.shard) << 32) |
         static_cast<std::uint64_t>(ev.actor);
}

}  // namespace

// dmps-lint: hot-begin(trace-fold) — every traced event, inside the
// alloc-probed million sweep.
void FingerprintAccumulator::fold(const TraceEvent& ev) {
  const std::uint64_t key = station_key(ev);
  if (key == util::FlatMap<std::uint64_t>::kEmptyKey) {
    reserved_sum_ += event_hash(ev);
    reserved_seen_ = true;
    return;
  }
  // A station's first event inserts its sum; reserve() sizes the table for
  // a warm workload's stations, so later events find theirs.
  // dmps-lint: allow-next(hot-unordered-map)
  sums_[key] += event_hash(ev);  // commutative mod-2^64 fold
}
// dmps-lint: hot-end

std::uint64_t FingerprintAccumulator::fingerprint() const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
  entries.reserve(sums_.size() + 1);
  sums_.for_each([&entries](std::uint64_t key, std::uint64_t sum) {
    entries.emplace_back(key, sum);
  });
  std::sort(entries.begin(), entries.end());
  if (reserved_seen_) {
    entries.emplace_back(util::FlatMap<std::uint64_t>::kEmptyKey, reserved_sum_);
  }
  std::uint64_t fp = 0x9e3779b97f4a7c15ull;
  for (const auto& [key, sum] : entries) {
    fp = mix64(fp ^ key);
    fp = mix64(fp ^ sum);
  }
  return fp;
}

// ------------------------------------------------------------------ Tracer

Tracer::Tracer(std::size_t ring_capacity) : ring_(ring_capacity) {}

std::uint64_t Tracer::fingerprint() const {
  writer_.assert_held();
  return fp_.fingerprint();
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  writer_.assert_held();
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const TraceEvent& ev = ring_.at(i);
    if (i != 0) out << ",\n";
    out << R"({"name":")" << to_string(ev.kind)
        << R"(","ph":"i","s":"t","ts":)" << ev.ts_us << R"(,"pid":)" << ev.shard
        << R"(,"tid":)" << ev.actor << R"(,"args":{"arg":)"
        << static_cast<unsigned>(ev.arg) << R"(,"value":)" << ev.value << "}}";
  }
  out << "\n]}\n";
}

}  // namespace dmps::obs
