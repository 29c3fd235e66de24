#pragma once
// Event-driven DOCPN playout engine.
//
// Runs a Docpn's net against the simulator, pacing every transition through
// the AdmissionController so firings obey the paper's global-clock rule:
// due transitions fire immediately (the local plan ran slow), early ones
// are held until the synchronized global estimate arrives. skip() deposits
// the user-interaction token; with priority arcs the resulting skip
// transition fires synchronously inside the call.

#include <functional>
#include <memory>
#include <optional>

#include "clock/global_clock.hpp"
#include "docpn/docpn.hpp"
#include "petri/timed_engine.hpp"
#include "sim/simulator.hpp"

namespace dmps::docpn {

struct EngineEvents {
  std::function<void(media::MediaId, util::TimePoint)> on_media_start;
  /// The bool is true when the medium ended through its skip transition.
  std::function<void(media::MediaId, util::TimePoint, bool)> on_media_end;
  std::function<void(util::TimePoint)> on_finished;
};

class DocpnEngine {
 public:
  /// The model's net must be fully assembled (add_skip calls done) before
  /// the engine attaches.
  DocpnEngine(sim::Simulator& sim, clk::AdmissionController& admission,
              Docpn& model, EngineEvents events);
  ~DocpnEngine();
  DocpnEngine(const DocpnEngine&) = delete;
  DocpnEngine& operator=(const DocpnEngine&) = delete;

  /// Drop the start token at global instant `at` and begin playout.
  void start(util::TimePoint at);

  /// User skips `medium`. Returns false if the medium is not skippable or
  /// not currently playing (or playout is paused). With priority arcs the
  /// skip fires before this returns; without them it takes effect at the
  /// medium's natural end.
  bool skip(media::MediaId medium);

  /// Halt playout (Media-Suspend): no further transitions fire. Returns
  /// false if not started, already paused, or finished.
  bool pause();

  /// Continue a paused playout (Media-Resume): the remaining schedule
  /// shifts forward by the suspension span, so playback picks up exactly
  /// where it stopped. Returns false if not paused.
  bool resume();

  bool paused() const { return paused_; }
  bool finished() const { return finished_; }

 private:
  void drive();

  sim::Simulator& sim_;
  clk::AdmissionController& admission_;
  Docpn& model_;
  EngineEvents events_;
  petri::TimedEngine engine_;
  std::optional<util::TimePoint> admitted_for_;
  // Admission wake-ups capture `this`; they check this token so a wake-up
  // outliving the engine (the controller may drain later) is a no-op.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  bool started_ = false;
  bool finished_ = false;
  bool paused_ = false;
  util::TimePoint paused_at_;  // global instant pause() was called
};

}  // namespace dmps::docpn
