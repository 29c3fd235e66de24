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
    case Ev::kMailboxDrain: return "mailbox_drain";
    case Ev::kCount: break;
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

void TraceRing::clear() {
  ring_.clear();  // keeps the reserved storage
  head_ = 0;
  dropped_ = 0;
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

constexpr std::size_t kMinSlots = 64;

std::size_t slots_for(std::size_t keys) {
  // Keep load under ~0.7: probe runs stay short, and a reserve()d table
  // never grows under the warm workload.
  std::size_t slots = kMinSlots;
  while (slots * 7 < keys * 10) slots <<= 1;
  return slots;
}

}  // namespace

FingerprintAccumulator::FingerprintAccumulator()
    : keys_(kMinSlots, 0), sums_(kMinSlots, 0), occupied_(kMinSlots, 0) {}

void FingerprintAccumulator::reserve(std::size_t keys) {
  const std::size_t slots = slots_for(keys);
  if (slots <= keys_.size()) return;
  std::vector<std::uint64_t> old_keys = std::move(keys_);
  std::vector<std::uint64_t> old_sums = std::move(sums_);
  std::vector<std::uint8_t> old_occupied = std::move(occupied_);
  keys_.assign(slots, 0);
  sums_.assign(slots, 0);
  occupied_.assign(slots, 0);
  used_ = 0;
  for (std::size_t i = 0; i < old_keys.size(); ++i) {
    if (old_occupied[i]) insert(old_keys[i], old_sums[i]);
  }
}

void FingerprintAccumulator::grow() { reserve(keys_.size() * 2); }

void FingerprintAccumulator::insert(std::uint64_t key, std::uint64_t delta) {
  const std::size_t mask = keys_.size() - 1;
  std::size_t slot = static_cast<std::size_t>(mix64(key)) & mask;
  for (;;) {
    if (!occupied_[slot]) {
      if (used_ * 10 >= keys_.size() * 7) {
        grow();
        insert(key, delta);
        return;
      }
      occupied_[slot] = 1;
      keys_[slot] = key;
      sums_[slot] = delta;
      ++used_;
      return;
    }
    if (keys_[slot] == key) {
      sums_[slot] += delta;  // commutative mod-2^64 fold
      return;
    }
    slot = (slot + 1) & mask;
  }
}

void FingerprintAccumulator::fold(const TraceEvent& ev) {
  insert(station_key(ev), event_hash(ev));
}

void FingerprintAccumulator::collect(
    std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) const {
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (occupied_[i]) out.emplace_back(keys_[i], sums_[i]);
  }
}

std::uint64_t FingerprintAccumulator::fingerprint() const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
  entries.reserve(used_);
  collect(entries);
  return combine_fingerprint(std::move(entries));
}

void FingerprintAccumulator::clear() {
  std::fill(occupied_.begin(), occupied_.end(), 0);
  used_ = 0;
}

std::uint64_t combine_fingerprint(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> entries) {
  std::sort(entries.begin(), entries.end());
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

void Tracer::clear() {
  writer_.assert_held();
  ring_.clear();
  fp_.clear();
}

namespace {

void write_chrome_events(std::ostream& out, const TraceRing& ring,
                         bool& first) {
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const TraceEvent& ev = ring.at(i);
    if (!first) out << ",\n";
    first = false;
    out << R"({"name":")" << to_string(ev.kind)
        << R"(","ph":"i","s":"t","ts":)" << ev.ts_us << R"(,"pid":)" << ev.shard
        << R"(,"tid":)" << ev.actor << R"(,"args":{"arg":)"
        << static_cast<unsigned>(ev.arg) << R"(,"value":)" << ev.value << "}}";
  }
}

}  // namespace

void Tracer::write_chrome_trace(std::ostream& out) const {
  writer_.assert_held();
  out << "{\"traceEvents\":[\n";
  bool first = true;
  write_chrome_events(out, ring_, first);
  out << "\n]}\n";
}

// ---------------------------------------------------------------- TraceHub

TraceHub::TraceHub(std::size_t tracers, std::size_t ring_capacity) {
  tracers_.reserve(tracers == 0 ? 1 : tracers);
  for (std::size_t i = 0; i < (tracers == 0 ? 1 : tracers); ++i) {
    tracers_.emplace_back(ring_capacity);
  }
}

void TraceHub::set_time_source(const std::function<std::int64_t()>& now_us) {
  for (Tracer& t : tracers_) t.set_time_source(now_us);
}

std::uint64_t TraceHub::fingerprint() const {
  // Merge per-key sums across tracers first: a (shard, actor) key split
  // across rings must fold into ONE commutative sum before the canonical
  // combine, or the tracer partitioning would leak into the fingerprint.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
  for (const Tracer& t : tracers_) t.collect_fingerprint(entries);
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<std::uint64_t, std::uint64_t>> merged;
  merged.reserve(entries.size());
  for (const auto& [key, sum] : entries) {
    if (!merged.empty() && merged.back().first == key) {
      merged.back().second += sum;
    } else {
      merged.emplace_back(key, sum);
    }
  }
  return combine_fingerprint(std::move(merged));
}

std::uint64_t TraceHub::dropped() const {
  std::uint64_t total = 0;
  for (const Tracer& t : tracers_) total += t.dropped();
  return total;
}

void TraceHub::write_chrome_trace(std::ostream& out) const {
  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (const Tracer& t : tracers_) write_chrome_events(out, t.ring(), first);
  out << "\n]}\n";
}

void TraceHub::clear() {
  for (Tracer& t : tracers_) t.clear();
}

}  // namespace dmps::obs
