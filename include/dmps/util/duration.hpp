#pragma once
// Fixed-point time arithmetic for the whole library.
//
// Everything in dmps — the discrete-event simulator, the drifting clocks,
// the timed Petri nets, the media schedules — shares one representation of
// time: signed 64-bit nanoseconds. Integer arithmetic keeps schedule
// instants exactly comparable (sync_sets groups media by *identical* start
// instants), which doubles would not guarantee.

#include <cstdint>

namespace dmps::util {

/// A signed span of time, nanosecond resolution.
class Duration {
 public:
  constexpr Duration() = default;

  static constexpr Duration zero() { return Duration(0); }
  static constexpr Duration nanos(std::int64_t n) { return Duration(n); }
  static constexpr Duration micros(std::int64_t u) { return Duration(u * 1000); }
  static constexpr Duration millis(std::int64_t m) { return Duration(m * 1'000'000); }
  static constexpr Duration seconds(std::int64_t s) { return Duration(s * 1'000'000'000); }
  static constexpr Duration from_seconds(double s) {
    return Duration(static_cast<std::int64_t>(s * 1e9 + (s >= 0 ? 0.5 : -0.5)));
  }
  static constexpr Duration from_millis(double ms) { return from_seconds(ms / 1e3); }

  constexpr std::int64_t raw_nanos() const { return ns_; }
  constexpr double to_seconds() const { return static_cast<double>(ns_) / 1e9; }
  constexpr double to_millis() const { return static_cast<double>(ns_) / 1e6; }

  constexpr Duration operator-() const { return Duration(-ns_); }
  constexpr Duration operator+(Duration o) const { return Duration(ns_ + o.ns_); }
  constexpr Duration operator-(Duration o) const { return Duration(ns_ - o.ns_); }
  constexpr Duration operator*(double f) const { return from_seconds(to_seconds() * f); }
  constexpr Duration operator/(double f) const { return from_seconds(to_seconds() / f); }
  constexpr Duration& operator+=(Duration o) { ns_ += o.ns_; return *this; }
  constexpr Duration& operator-=(Duration o) { ns_ -= o.ns_; return *this; }

  friend constexpr bool operator==(Duration a, Duration b) { return a.ns_ == b.ns_; }
  friend constexpr bool operator!=(Duration a, Duration b) { return a.ns_ != b.ns_; }
  friend constexpr bool operator<(Duration a, Duration b) { return a.ns_ < b.ns_; }
  friend constexpr bool operator<=(Duration a, Duration b) { return a.ns_ <= b.ns_; }
  friend constexpr bool operator>(Duration a, Duration b) { return a.ns_ > b.ns_; }
  friend constexpr bool operator>=(Duration a, Duration b) { return a.ns_ >= b.ns_; }

 private:
  constexpr explicit Duration(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

/// An instant on some timeline (simulation, local-clock, or global),
/// nanoseconds since that timeline's epoch.
class TimePoint {
 public:
  constexpr TimePoint() = default;

  static constexpr TimePoint zero() { return TimePoint(0); }
  static constexpr TimePoint from_nanos(std::int64_t n) { return TimePoint(n); }
  static constexpr TimePoint from_seconds(double s) {
    return TimePoint(Duration::from_seconds(s).raw_nanos());
  }

  constexpr std::int64_t raw_nanos() const { return ns_; }
  constexpr double to_seconds() const { return static_cast<double>(ns_) / 1e9; }
  constexpr double to_millis() const { return static_cast<double>(ns_) / 1e6; }

  constexpr TimePoint operator+(Duration d) const { return TimePoint(ns_ + d.raw_nanos()); }
  constexpr TimePoint operator-(Duration d) const { return TimePoint(ns_ - d.raw_nanos()); }
  constexpr Duration operator-(TimePoint o) const { return Duration::nanos(ns_ - o.ns_); }
  constexpr TimePoint& operator+=(Duration d) { ns_ += d.raw_nanos(); return *this; }

  friend constexpr bool operator==(TimePoint a, TimePoint b) { return a.ns_ == b.ns_; }
  friend constexpr bool operator!=(TimePoint a, TimePoint b) { return a.ns_ != b.ns_; }
  friend constexpr bool operator<(TimePoint a, TimePoint b) { return a.ns_ < b.ns_; }
  friend constexpr bool operator<=(TimePoint a, TimePoint b) { return a.ns_ <= b.ns_; }
  friend constexpr bool operator>(TimePoint a, TimePoint b) { return a.ns_ > b.ns_; }
  friend constexpr bool operator>=(TimePoint a, TimePoint b) { return a.ns_ >= b.ns_; }

 private:
  constexpr explicit TimePoint(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

constexpr TimePoint max_time(TimePoint a, TimePoint b) { return a < b ? b : a; }

}  // namespace dmps::util
