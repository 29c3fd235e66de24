#pragma once
// Event tracing and scenario fingerprints (DESIGN.md §7).
//
// TraceRing — a bounded single-writer ring of typed TraceEvents. Overflow
// overwrites the OLDEST events (the newest window is what a post-mortem
// wants) and counts drops. One ring belongs to one thread.
//
// Tracer — one ring plus an online fingerprint accumulator and an optional
// time source (sim-time for sessions, unset = 0 for pure-throughput
// benches). emit() is the single hot-path entry: stamp, push, fold. After
// reserve_actors(), a warm emit() performs zero heap allocations — the ring
// is preallocated and the accumulator's util::FlatMap is pre-sized — so
// tracing can stay on inside the alloc-probed million sweep. Export is
// Chrome trace-event JSON ({"traceEvents":[...]}, loadable in
// chrome://tracing or Perfetto; pid = shard, tid = actor).
//
// Fingerprint (the inet-style regression hash): per (shard, actor) key the
// accumulator keeps a commutative mod-2^64 sum of each event's mix64 hash
// — ORDER-INSENSITIVE within a station, so how events from different
// stations interleave cannot change it. The scenario fingerprint then
// combines the per-key sums ORDER-SENSITIVELY in canonical (sorted-key)
// order with a chained mix. Timestamps and floats never enter the hash
// (ids, kinds, args and integer values only), so the fingerprint is
// bit-identical across compilers and across runs of any deterministic
// scenario. Every event kind is folded.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "util/flat_map.hpp"
#include "util/sync.hpp"

namespace dmps::obs {

enum class Ev : std::uint8_t {
  kRequest = 0,     // a floor request entered arbitration
  kDecide,          // arbitration answered (arg = Outcome)
  kGrant,           // server sent a Grant reply
  kDeny,            // server sent a Deny reply
  kQueue,           // server parked the request (fp.queued)
  kSuspend,         // holder Media-Suspended
  kResume,          // holder Media-Resumed
  kPromote,         // queued request granted by freed capacity
  kRelease,         // holder released its floor
  kSweep,           // capacity-change sweep ran (value = fixpoint passes)
  kSend,            // fproto datagram sent (arg = MsgKind)
  kRetransmit,      // fproto retransmission (client op or server notify)
  kDupDrop,         // duplicate/stale message suppressed
  kReplayHit,       // server answered a duplicate from its stored reply
};

std::string_view to_string(Ev kind);

struct TraceEvent {
  std::int64_t ts_us = 0;  // time-source stamp; 0 when no source is set
  std::int64_t value = 0;  // event payload (request id, pass count)
  std::uint32_t actor = 0;  // member/station id
  std::uint32_t shard = 0;  // host/shard id (0 when unknown)
  Ev kind = Ev::kRequest;
  std::uint8_t arg = 0;  // small discriminator (Outcome, MsgKind)
};

/// splitmix64 finalizer: the one integer mixer every fingerprint hash goes
/// through (fixed constants, no UB — identical on every compiler).
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity);

  /// Append; when full, the oldest event is overwritten and counted.
  void push(const TraceEvent& ev);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return ring_.size(); }
  std::uint64_t dropped() const { return dropped_; }
  /// Retained events oldest-first, i in [0, size()).
  const TraceEvent& at(std::size_t i) const {
    return ring_[(head_ + i) % capacity_];
  }

 private:
  // Reserved at construction and appended to until full, so no slot is
  // written (and no page touched) before its first event arrives.
  std::vector<TraceEvent> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;  // oldest retained event
  std::uint64_t dropped_ = 0;
};

/// (shard, actor) -> commutative hash-sum table. A station's first event
/// inserts its key; reserve() pre-sizes the table so a warm workload's
/// fold() path never allocates.
class FingerprintAccumulator {
 public:
  /// Pre-size for at least `keys` distinct (shard, actor) pairs.
  void reserve(std::size_t keys) { sums_.reserve(keys); }
  void fold(const TraceEvent& ev);
  /// Canonical combine: per-key sums in sorted-key order through a chained
  /// mix. Snapshot-time only (sorts a copy of the live keys).
  std::uint64_t fingerprint() const;

 private:
  util::FlatMap<std::uint64_t> sums_;
  // Shard and actor both ~0u make FlatMap's empty-slot key, which it cannot
  // store (a default FloorRequest traced by a FloorService emits it). That
  // one station's sum lives here; it sorts after every other key.
  std::uint64_t reserved_sum_ = 0;
  bool reserved_seen_ = false;
};

class Tracer {
 public:
  explicit Tracer(std::size_t ring_capacity = 8192);

  /// Timestamp source in microseconds (sim-time lambda for sessions).
  /// Unset: events carry ts 0 — fingerprints never read timestamps anyway.
  void set_time_source(std::function<std::int64_t()> now_us) {
    writer_.assert_held();
    now_ = std::move(now_us);
  }
  /// AND-mask applied to actor ids before recording — coarsens the
  /// per-station key space when a scenario has more actors than it wants
  /// fingerprint table entries (the million sweep buckets by low bits).
  void set_actor_mask(std::uint32_t mask) {
    writer_.assert_held();
    actor_mask_ = mask;
  }
  void reserve_actors(std::size_t n) {
    writer_.assert_held();
    fp_.reserve(n);
  }

  void emit(Ev kind, std::uint32_t actor, std::uint32_t shard,
            std::uint8_t arg = 0, std::int64_t value = 0) {
    writer_.assert_held();
    TraceEvent ev;
    ev.ts_us = now_ ? now_() : 0;
    ev.value = value;
    ev.actor = actor & actor_mask_;
    ev.shard = shard;
    ev.kind = kind;
    ev.arg = arg;
    ring_.push(ev);
    fp_.fold(ev);
  }

  const TraceRing& ring() const {
    writer_.assert_held();
    return ring_;
  }
  std::uint64_t dropped() const {
    writer_.assert_held();
    return ring_.dropped();
  }
  std::uint64_t fingerprint() const;
  /// Chrome trace-event JSON of this tracer's retained ring.
  void write_chrome_trace(std::ostream& out) const;

 private:
  /// The single-writer affinity capability (DESIGN.md §10). Every entry
  /// point asserts it, so the "one ring, one thread" comment up top is a
  /// -Wthread-safety-checked contract: a second code path reaching ring_
  /// or fp_ without going through an asserting entry point is a build
  /// break. The role is never bound, so its debug-build thread check is
  /// inert: a tracer is written by whichever one thread drives its owner.
  mutable util::ThreadRole writer_;
  TraceRing ring_ DMPS_GUARDED_BY(writer_);
  FingerprintAccumulator fp_ DMPS_GUARDED_BY(writer_);
  std::function<std::int64_t()> now_ DMPS_GUARDED_BY(writer_);
  std::uint32_t actor_mask_ DMPS_GUARDED_BY(writer_) = ~0u;
};

}  // namespace dmps::obs
