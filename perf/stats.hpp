#pragma once
// Percentiles and means for the benchmark, taken from raw samples only.
//
// Every percentile is a nearest-rank order statistic: the p-th percentile of
// n sorted samples is the ceil(p/100 * n)-th smallest (1-based). Every mean
// is exact, sum / count. Nothing in the benchmark reads
// obs::Histogram::quantile: it reports the upper bound of a power-of-two
// bucket, so a histogram of batches that all hold one datagram reads p50 = 2.
//
// A percentile is only reported when the sample supports it: at least
// kMinBeyond samples must lie strictly beyond its rank (the
// "ten samples beyond" rule). supported() says whether that holds.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dmps::perf {

inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of the p-th percentile (p in (0, 100]) of n
/// samples; 0 when n is 0.
inline std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  // The epsilon keeps an exact product such as 0.99 * 1000 at 990, not 991.
  const double exact = p / 100.0 * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Samples strictly beyond the p-th percentile's rank.
inline std::size_t beyond(std::size_t n, double p) {
  return n - nearest_rank(n, p);
}

/// True when at least kMinBeyond samples lie beyond the p-th percentile.
inline bool supported(std::size_t n, double p) {
  return n > 0 && beyond(n, p) >= kMinBeyond;
}

/// The p-th percentile of ascending `sorted`; 0 for an empty sample.
template <class T>
T percentile(const std::vector<T>& sorted, double p) {
  if (sorted.empty()) return T{};
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

/// Exact mean from a running sum and count; 0 when count is 0.
inline double exact_mean(double sum, double count) {
  return count > 0 ? sum / count : 0.0;
}

/// One sample's summary. Sorts `samples` in place.
struct Summary {
  std::size_t count = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double max = 0;
  double mean = 0;
  bool p99_supported = false;
};

template <class T>
Summary summarize(std::vector<T>& samples) {
  Summary s;
  std::sort(samples.begin(), samples.end());
  s.count = samples.size();
  if (s.count == 0) return s;
  s.p50 = static_cast<double>(percentile(samples, 50));
  s.p90 = static_cast<double>(percentile(samples, 90));
  s.p99 = static_cast<double>(percentile(samples, 99));
  s.max = static_cast<double>(samples.back());
  double sum = 0;
  for (const T& v : samples) sum += static_cast<double>(v);
  s.mean = exact_mean(sum, static_cast<double>(s.count));
  s.p99_supported = supported(s.count, 99);
  return s;
}

}  // namespace dmps::perf
