#pragma once
// dmps::obs metric instruments: Counter, Gauge, Histogram.
//
// Design constraints (DESIGN.md §7): the instrumented hot paths — floor
// arbitration inside the alloc-probed million sweep, the daemon's loop,
// perf's load threads — must stay steady-state allocation-free and nearly
// contention-free. So every instrument here is a fixed-size block of
// atomics:
//
//   Counter / Gauge — 16 exclusive cache-line-padded int64 stripes plus
//     one shared cell. The first 16 threads that ask for a lane each own a
//     stripe and bump it with a relaxed load and store (no locked
//     instruction: nobody else writes it); every later thread bumps the
//     shared cell with fetch_add. Either way no update is lost. value()
//     sums the cells (exact once writers quiesce, approximate while they
//     run).
//   Histogram — 121 log-linear buckets plus sum and count, all relaxed
//     atomics. Exact under concurrency (fetch_add loses nothing); callers
//     that need to bound the per-op cost sample before recording (the
//     FloorService decide path records 1-in-64).
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
inline constexpr std::size_t kNoLane = ~std::size_t{0};
/// The calling thread's lane, kNoLane until it first asks. Constant-
/// initialized, so reading it is one thread-local load.
inline thread_local std::size_t t_lane = kNoLane;
/// The next lane nobody has taken yet.
std::size_t next_thread_lane();
}  // namespace detail

/// Small dense id for the calling thread (assigned on first use, never
/// reused within the process). Lanes below kExclusiveLanes own a stripe of
/// every Counter and Gauge.
inline std::size_t thread_lane() {
  if (detail::t_lane == detail::kNoLane) {
    detail::t_lane = detail::next_thread_lane();
  }
  return detail::t_lane;
}

namespace detail {
struct alignas(64) PaddedAtomic {
  std::atomic<std::int64_t> v{0};
};

/// The cells behind Counter and Gauge: one exclusive stripe per lane below
/// kExclusiveLanes, each written by its one thread only, and a shared cell
/// every other thread adds to atomically.
class StripedSum {
 public:
  static constexpr std::size_t kExclusiveLanes = 16;

  void add(std::int64_t n) {
    const std::size_t lane = thread_lane();
    if (lane < kExclusiveLanes) {
      // The single writer of this stripe: a plain add cannot race another
      // write, and the atomic store keeps value()'s concurrent reads
      // well-defined.
      std::atomic<std::int64_t>& cell = stripes_[lane].v;
      cell.store(cell.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
    } else {
      shared_.v.fetch_add(n, std::memory_order_relaxed);
    }
  }

  std::int64_t value() const {
    std::int64_t sum = shared_.v.load(std::memory_order_relaxed);
    for (const auto& stripe : stripes_) {
      sum += stripe.v.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  std::array<PaddedAtomic, kExclusiveLanes> stripes_;
  PaddedAtomic shared_;
};
}  // namespace detail

/// Monotonic event count. add() bumps the calling thread's stripe (or the
/// shared cell); value() sums the cells (exact once writers quiesce).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::int64_t n = 1) { cells_.add(n); }
  std::int64_t value() const { return cells_.value(); }

 private:
  detail::StripedSum cells_;
};

/// A level that moves both ways through deltas (queue depth, in-flight
/// count). Absolute levels that live in component state (GrantStore
/// occupancy) are better served by a registry callback gauge — see
/// MetricsRegistry::gauge_callback — read at snapshot time instead of
/// being pushed on every transition.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void add(std::int64_t delta) { cells_.add(delta); }
  void sub(std::int64_t delta) { add(-delta); }
  std::int64_t value() const { return cells_.value(); }

 private:
  detail::StripedSum cells_;
};

/// Fixed log-linear histogram for non-negative integer samples (latencies
/// in ns/us, drain sizes). Bucket 0 holds v <= 0 and buckets 1..7 hold 1..7
/// exactly; from 8 up to 2^31 each power of two [2^k, 2^(k+1)) splits into
/// 4 equal sub-buckets, and the last bucket absorbs v >= 2^31. Exact count
/// and sum under concurrent record(). A quantile is the middle of the bucket
/// holding its rank: exact below 8, within 12.5% of the sample up to 2^31.
class Histogram {
 public:
  static constexpr std::size_t kExact = 8;  // 0..7 get a bucket each
  static constexpr std::size_t kSubBuckets = 4;
  static constexpr std::size_t kBuckets = kExact + kSubBuckets * (31 - 3) + 1;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::int64_t v) {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
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

  void reset();

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
