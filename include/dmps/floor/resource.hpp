#pragma once
// Host resource accounting for floor control.
//
// Every host station tracks a 3-dimensional resource vector (bandwidth,
// cpu, memory). The arbiter's regime decision keys off a single scalar —
// availability() — the *tightest* dimension's free fraction, compared
// against the paper's alpha/beta thresholds.

#include <algorithm>

#include "media/media.hpp"

namespace dmps::resource {

struct Resource {
  double bandwidth = 0.0;
  double cpu = 0.0;
  double memory = 0.0;

  static Resource from_qos(const media::QosRequirement& qos) {
    return Resource{qos.bandwidth, qos.cpu, qos.memory};
  }

  Resource operator+(const Resource& o) const {
    return Resource{bandwidth + o.bandwidth, cpu + o.cpu, memory + o.memory};
  }
  Resource operator-(const Resource& o) const {
    return Resource{bandwidth - o.bandwidth, cpu - o.cpu, memory - o.memory};
  }
  Resource& operator+=(const Resource& o) {
    bandwidth += o.bandwidth;
    cpu += o.cpu;
    memory += o.memory;
    return *this;
  }
  Resource& operator-=(const Resource& o) {
    bandwidth -= o.bandwidth;
    cpu -= o.cpu;
    memory -= o.memory;
    return *this;
  }
};

/// The paper's regime boundaries, as fractions of host capacity:
///   availability >= alpha          full service
///   beta <= availability < alpha   degraded (Media-Suspend)
///   availability < beta            Abort-Arbitrate
struct Thresholds {
  double alpha = 0.25;
  double beta = 0.05;
};

class HostResourceManager {
 public:
  explicit HostResourceManager(Resource capacity)
      : capacity_(capacity), availability_(compute_availability()) {}

  const Resource& capacity() const { return capacity_; }
  Resource free() const { return capacity_ - in_use_; }

  /// Free fraction of the tightest dimension, in [0, 1]. Dimensions with
  /// zero capacity are ignored (a host that advertises no memory pool
  /// shouldn't read as starved). Computed when in_use_ changes, so a query
  /// costs a load: arbitration reads it more often than it reserves.
  double availability() const { return availability_; }

  bool can_fit(const Resource& r) const {
    const Resource f = free();
    return r.bandwidth <= f.bandwidth + kSlack && r.cpu <= f.cpu + kSlack &&
           r.memory <= f.memory + kSlack;
  }

  /// Reserve if it fits; returns false (and reserves nothing) otherwise.
  bool reserve(const Resource& r) {
    if (!can_fit(r)) return false;
    in_use_ += r;
    availability_ = compute_availability();
    return true;
  }

  void release(const Resource& r) {
    in_use_ -= r;
    in_use_.bandwidth = std::max(0.0, in_use_.bandwidth);
    in_use_.cpu = std::max(0.0, in_use_.cpu);
    in_use_.memory = std::max(0.0, in_use_.memory);
    availability_ = compute_availability();
  }

 private:
  // Absorbs accumulated floating-point dust from many reserve/release pairs.
  static constexpr double kSlack = 1e-9;

  double compute_availability() const {
    double avail = 1.0;
    auto dim = [&avail](double cap, double used) {
      if (cap > 0) avail = std::min(avail, (cap - used) / cap);
    };
    dim(capacity_.bandwidth, in_use_.bandwidth);
    dim(capacity_.cpu, in_use_.cpu);
    dim(capacity_.memory, in_use_.memory);
    return std::max(0.0, avail);
  }

  Resource capacity_;
  Resource in_use_;
  double availability_;  // compute_availability() of the current in_use_
};

}  // namespace dmps::resource
