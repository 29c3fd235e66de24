#pragma once
// dmps::obs metric instruments: Counter, Gauge, Histogram.
//
// Design constraints (DESIGN.md §7): the instrumented hot path — the floor
// service's shard workers inside their alloc-probed drain loop — must stay
// steady-state allocation-free and nearly contention-free. So every
// instrument here is a fixed-size block of atomics:
//
//   Counter / Gauge — 16 cache-line-padded int64 cells, striped by a
//     per-thread lane id, written with one relaxed fetch_add. value() sums
//     the stripes (quiescent- or approximate-read semantics, like every
//     aggregate of a started ShardedFloorService).
//   Histogram — 32 power-of-two buckets plus sum and count, all relaxed
//     atomics. Exact under concurrency (fetch_add loses nothing); callers
//     that need to bound the per-op cost sample before recording (the
//     FloorService decide path records 1-in-64).
//
// Instruments never allocate after construction and are neither copyable
// nor movable — a MetricsRegistry owns them at stable addresses and hands
// out references. Pre-register everything before spawning workers; the
// hot loop then only ever touches preallocated atomics.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace dmps::obs {

/// Small dense id for the calling thread (assigned on first use, never
/// reused within the process). Stripes instrument cells so concurrent
/// writers from different threads rarely share a cache line.
std::size_t thread_lane();

namespace detail {
struct alignas(64) PaddedAtomic {
  std::atomic<std::int64_t> v{0};
};
}  // namespace detail

/// Monotonic event count. add() is one relaxed fetch_add on the calling
/// thread's stripe; value() sums stripes (exact once writers quiesce).
class Counter {
 public:
  static constexpr std::size_t kStripes = 16;

  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::int64_t n = 1) {
    cells_[thread_lane() & (kStripes - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  std::int64_t value() const {
    std::int64_t sum = 0;
    for (const auto& cell : cells_) {
      sum += cell.v.load(std::memory_order_relaxed);
    }
    return sum;
  }

  void reset() {
    for (auto& cell : cells_) cell.v.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<detail::PaddedAtomic, kStripes> cells_;
};

/// A level that moves both ways through deltas (queue depth, in-flight
/// count). Absolute levels that live in component state (GrantStore
/// occupancy) are better served by a registry callback gauge — see
/// MetricsRegistry::gauge_callback — read at snapshot time instead of
/// being pushed on every transition.
class Gauge {
 public:
  static constexpr std::size_t kStripes = 16;

  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void add(std::int64_t delta) {
    cells_[thread_lane() & (kStripes - 1)].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void sub(std::int64_t delta) { add(-delta); }

  std::int64_t value() const {
    std::int64_t sum = 0;
    for (const auto& cell : cells_) {
      sum += cell.v.load(std::memory_order_relaxed);
    }
    return sum;
  }

  void reset() {
    for (auto& cell : cells_) cell.v.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<detail::PaddedAtomic, kStripes> cells_;
};

/// Fixed power-of-two-bucket histogram for non-negative integer samples
/// (latencies in ns/us, drain sizes). Bucket 0 holds v <= 0; bucket b >= 1
/// holds v with floor(log2 v) == b - 1, i.e. v in [2^(b-1), 2^b); the last
/// bucket absorbs everything larger. Exact count and sum under concurrent
/// record() — quantiles are upper-bound estimates from the bucket edges.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 32;

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

  /// Upper edge of bucket `index` (0 for the v <= 0 bucket).
  static std::int64_t bucket_upper_bound(std::size_t index) {
    return index == 0 ? 0 : std::int64_t{1} << index;
  }

  /// Upper-bound estimate of the q-quantile (q in [0, 1]) from the bucket
  /// edges; 0 when empty.
  std::int64_t quantile(double q) const;

  void reset();

  static std::size_t bucket_index(std::int64_t v) {
    if (v <= 0) return 0;
#if defined(__GNUC__) || defined(__clang__)
    const std::size_t log2 =
        63u - static_cast<std::size_t>(
                  __builtin_clzll(static_cast<unsigned long long>(v)));
#else
    std::size_t log2 = 0;
    for (std::uint64_t u = static_cast<std::uint64_t>(v); u >>= 1;) ++log2;
#endif
    const std::size_t index = log2 + 1;
    return index < kBuckets ? index : kBuckets - 1;
  }

 private:
  std::array<std::atomic<std::int64_t>, kBuckets> buckets_{};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> count_{0};
};

}  // namespace dmps::obs
