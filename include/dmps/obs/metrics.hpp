#pragma once
// dmps::obs metric instruments: Counter and Histogram.
//
// Design constraints (DESIGN.md §7): the instrumented hot paths — floor
// arbitration inside the alloc-probed million sweep, the daemon's loop,
// perf's load threads — must stay steady-state allocation-free. So every
// instrument here is a fixed-size block of relaxed atomics with ONE writer
// thread at a time: an update is a relaxed load and a relaxed store, no
// locked read-modify-write. The atomics keep a read from another thread
// (a value() or a snapshot) well-defined; they do not make two writers
// safe. Components on different threads take different instrument packs
// (registry.hpp), as perf's load threads do.
//
//   Counter   — one int64 cell.
//   Histogram — 121 log-linear buckets plus sum and count. Callers that
//     need to bound the per-op cost sample before recording (the
//     FloorService decide path records 1-in-64).
//
// Levels (queue depth, grant occupancy) are not instruments: they live in
// component state and reach the snapshot through the registry's callback
// gauges (MetricsRegistry::gauge_callback).
//
// Instruments never allocate after construction and are neither copyable
// nor movable — a MetricsRegistry owns them at stable addresses and hands
// out references. Pre-register everything before the hot path runs; it
// then only ever touches preallocated atomics.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace dmps::obs {

namespace detail {
/// The single writer's update: no other thread writes `cell`, so a plain
/// add cannot lose an update, and the atomic store keeps concurrent reads
/// well-defined.
inline void bump(std::atomic<std::int64_t>& cell, std::int64_t n) {
  cell.store(cell.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}
}  // namespace detail

/// Monotonic event count.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::int64_t n = 1) { detail::bump(value_, n); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed log-linear histogram for non-negative integer samples (latencies
/// in ns/us, drain sizes). Bucket 0 holds v <= 0 and buckets 1..7 hold 1..7
/// exactly; from 8 up to 2^31 each power of two [2^k, 2^(k+1)) splits into
/// 4 equal sub-buckets, and the last bucket absorbs v >= 2^31. Exact count
/// and sum. A quantile is the middle of the bucket holding its rank: exact
/// below 8, within 12.5% of the sample up to 2^31.
class Histogram {
 public:
  static constexpr std::size_t kExact = 8;  // 0..7 get a bucket each
  static constexpr std::size_t kSubBuckets = 4;
  static constexpr std::size_t kBuckets = kExact + kSubBuckets * (31 - 3) + 1;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::int64_t v) {
    detail::bump(buckets_[bucket_index(v)], 1);
    detail::bump(sum_, v);
    detail::bump(count_, 1);
  }

  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::int64_t bucket(std::size_t index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }

  /// Smallest value bucket `index` holds (0 for the v <= 0 bucket).
  static std::int64_t bucket_lower_bound(std::size_t index) {
    if (index < kExact) return static_cast<std::int64_t>(index);
    const std::size_t log2 = 3 + (index - kExact) / kSubBuckets;
    const auto sub = static_cast<std::int64_t>((index - kExact) % kSubBuckets);
    return (static_cast<std::int64_t>(kSubBuckets) + sub) << (log2 - 2);
  }

  /// Estimate of the q-quantile (q in [0, 1]); 0 when empty.
  std::int64_t quantile(double q) const;

  static std::size_t bucket_index(std::int64_t v) {
    if (v < static_cast<std::int64_t>(kExact)) {
      return v <= 0 ? 0 : static_cast<std::size_t>(v);
    }
#if defined(__GNUC__) || defined(__clang__)
    const std::size_t log2 =
        63u - static_cast<std::size_t>(
                  __builtin_clzll(static_cast<unsigned long long>(v)));
#else
    std::size_t log2 = 0;
    for (std::uint64_t u = static_cast<std::uint64_t>(v); u >>= 1;) ++log2;
#endif
    if (log2 >= 31) return kBuckets - 1;
    // The two bits below the leading one pick the sub-bucket.
    const auto sub = static_cast<std::size_t>(v >> (log2 - 2)) & (kSubBuckets - 1);
    return kExact + (log2 - 3) * kSubBuckets + sub;
  }

 private:
  std::array<std::atomic<std::int64_t>, kBuckets> buckets_{};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> count_{0};
};

}  // namespace dmps::obs
