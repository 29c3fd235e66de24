#include "clock/global_clock.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

namespace dmps::clk {

namespace {
// Interned once per process; every send/dispatch after this is int-keyed.
net::MsgType req_type() {
  static const net::MsgType t = net::msg_type("clk.req");
  return t;
}
net::MsgType rsp_type() {
  static const net::MsgType t = net::msg_type("clk.rsp");
  return t;
}
}  // namespace

GlobalClockServer::GlobalClockServer(net::Demux& demux, Clock& authority)
    : demux_(demux), authority_(authority) {
  const bool owned = demux_.on(req_type(), [this](const net::Message& msg) {
    if (msg.ints.size() < 2) return;  // malformed probe
    // Echo the client's cookie and send-stamp, append our reading.
    ++answered_;
    demux_.send(msg.from, rsp_type(),
                {msg.ints[0], msg.ints[1], authority_.now().raw_nanos()});
  });
  if (!owned) throw std::logic_error("clk.req already handled on this node");
}

GlobalClockServer::~GlobalClockServer() { demux_.off(req_type()); }

GlobalClockClient::GlobalClockClient(net::Demux& demux, Clock& local,
                                     net::NodeId server, SyncConfig config)
    : demux_(demux), local_(local), server_(server), config_(config) {
  const bool owned =
      demux_.on(rsp_type(), [this](const net::Message& msg) { handle_reply(msg); });
  if (!owned) throw std::logic_error("clk.rsp already handled on this node");
}

GlobalClockClient::~GlobalClockClient() {
  stop();
  demux_.off(rsp_type());  // in-flight replies must not dispatch into a dead client
}

void GlobalClockClient::start() {
  if (running_) return;
  running_ = true;
  // Periodic rounds via a self-rescheduling functor; the first fires now.
  // The pending event id is tracked so stop()/destruction can cancel it —
  // otherwise the simulator would hold a callback into a dead client.
  struct Rearm {
    GlobalClockClient* self;
    void operator()() const {
      self->sync_once();
      self->pending_tick_ = self->demux_.schedule_in(self->config_.period, Rearm{self});
    }
  };
  Rearm{this}();
}

void GlobalClockClient::stop() {
  if (!running_) return;
  running_ = false;
  if (pending_tick_ != 0) {
    demux_.cancel(pending_tick_);
    pending_tick_ = 0;
  }
}

void GlobalClockClient::sync_once() {
  ++round_;
  round_has_sample_ = false;
  round_best_rtt_ = util::Duration::zero();
  const std::int64_t cookie = static_cast<std::int64_t>(round_);
  for (int i = 0; i < config_.samples; ++i) {
    demux_.send(server_, req_type(), {cookie, local_.now().raw_nanos()});
  }
}

void GlobalClockClient::handle_reply(const net::Message& msg) {
  if (msg.ints.size() < 3) return;
  const auto cookie = static_cast<std::uint64_t>(msg.ints[0]);
  if (cookie != round_) return;  // stale round: a fresher estimate exists
  const auto local_send = util::TimePoint::from_nanos(msg.ints[1]);
  const auto server_time = util::TimePoint::from_nanos(msg.ints[2]);
  const auto local_recv = local_.now();
  const util::Duration rtt = local_recv - local_send;
  if (rtt < util::Duration::zero()) return;
  // Cristian's estimate: the server stamped roughly mid-flight, so global
  // at receive time ≈ server_time + rtt/2. Keep the round's min-RTT sample —
  // the one with the least jitter and therefore the tightest error bound.
  if (!round_has_sample_ || rtt < round_best_rtt_) {
    round_has_sample_ = true;
    round_best_rtt_ = rtt;
    const util::TimePoint global_at_recv = server_time + rtt / 2.0;
    offset_ = global_at_recv - local_recv;
    ++replies_;
  }
}

void AdmissionController::admit(util::TimePoint deadline, std::function<void()> fire) {
  // Classify once, on the caller's consult: fired without delay, or held.
  if (deadline <= client_.global_now()) {
    ++immediate_;
  } else {
    ++held_;
  }
  wait_or_fire(deadline, std::move(fire));
}

AdmissionController::~AdmissionController() {
  for (const sim::EventId id : pending_) sim_.cancel(id);
}

void AdmissionController::wait_or_fire(util::TimePoint deadline,
                                       std::function<void()> fire) {
  const util::TimePoint global = client_.global_now();
  if (deadline <= global) {
    // Global time arrived (or had already passed) — fire.
    fire();
    return;
  }
  // Local schedule ran ahead — hold until the global clock arrives. The
  // re-entrant check absorbs offset updates that land while waiting. Every
  // hold is tracked so the destructor can cancel it.
  auto id_slot = std::make_shared<sim::EventId>(0);
  const sim::EventId id = sim_.schedule_in(
      deadline - global,
      [this, id_slot, deadline, fire = std::move(fire)]() mutable {
        pending_.erase(*id_slot);
        wait_or_fire(deadline, std::move(fire));
      });
  *id_slot = id;
  pending_.insert(id);
}

}  // namespace dmps::clk
