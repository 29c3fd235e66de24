#include "obs/metrics.hpp"

namespace dmps::obs {

std::size_t thread_lane() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t lane =
      next.fetch_add(1, std::memory_order_relaxed);
  return lane;
}

namespace {
// The middle of bucket `index`'s range. A sub-bucket is a quarter of its
// power of two wide, so the middle is within 12.5% of any value in it; the
// open top bucket reports its lower edge.
std::int64_t bucket_middle(std::size_t index) {
  const std::int64_t lo = Histogram::bucket_lower_bound(index);
  if (index < Histogram::kExact || index + 1 == Histogram::kBuckets) return lo;
  return lo + (Histogram::bucket_lower_bound(index + 1) - lo - 1) / 2;
}
}  // namespace

std::int64_t Histogram::quantile(double q) const {
  const std::int64_t total = count();
  if (total <= 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the sample we want, 1-based; walk buckets until we pass it.
  const auto rank =
      static_cast<std::int64_t>(q * static_cast<double>(total - 1)) + 1;
  std::int64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += bucket(b);
    if (seen >= rank) return bucket_middle(b);
  }
  return bucket_middle(kBuckets - 1);
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
}

}  // namespace dmps::obs
