#pragma once
// Local clocks over the simulated timeline.
//
// TrueClock reads simulation time directly (the global authority in every
// scenario). DriftClock models a client workstation's oscillator: a constant
// rate error in parts-per-million plus an initial phase offset — the two
// imperfections the paper's §3 global-clock mechanism exists to mask.

#include "sim/simulator.hpp"
#include "util/duration.hpp"

namespace dmps::clk {

/// Read-only clock interface; everything that needs "a time source"
/// (the sync server's authority, a sync client's local clock) takes one of
/// these.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual util::TimePoint now() const = 0;
};

/// The simulation timeline itself — drift-free, used as the global authority.
class TrueClock : public Clock {
 public:
  explicit TrueClock(sim::Simulator& sim) : sim_(sim) {}
  util::TimePoint now() const override { return sim_.now(); }

 private:
  sim::Simulator& sim_;
};

/// local(t) = t * (1 + drift_ppm * 1e-6) + phase.
/// Positive drift/phase = the clock runs fast / reads ahead of true time.
class DriftClock : public Clock {
 public:
  DriftClock(sim::Simulator& sim, double drift_ppm, util::Duration phase)
      : sim_(sim), drift_ppm_(drift_ppm), phase_(phase) {}

  util::TimePoint now() const override {
    const double t = sim_.now().to_seconds();
    return util::TimePoint::from_seconds(t * (1.0 + drift_ppm_ * 1e-6)) + phase_;
  }

  double drift_ppm() const { return drift_ppm_; }
  util::Duration phase() const { return phase_; }

 private:
  sim::Simulator& sim_;
  double drift_ppm_;
  util::Duration phase_;
};

}  // namespace dmps::clk
