#include "fproto/agent.hpp"

#include <stdexcept>
#include <utility>

namespace dmps::fproto {

std::string_view to_string(AgentState state) {
  switch (state) {
    case AgentState::kIdle: return "idle";
    case AgentState::kJoining: return "joining";
    case AgentState::kJoined: return "joined";
    case AgentState::kPending: return "pending";
    case AgentState::kQueued: return "queued";
    case AgentState::kGranted: return "granted";
    case AgentState::kSuspended: return "suspended";
    case AgentState::kReleasing: return "releasing";
    case AgentState::kLeaving: return "leaving";
    case AgentState::kFailed: return "failed";
  }
  return "unknown";
}

FloorAgent::FloorAgent(net::Endpoint& endpoint, net::NodeId server,
                       floorctl::MemberId member, floorctl::GroupId group,
                       floorctl::HostId host, AgentConfig config,
                       AgentEvents events)
    : ep_(endpoint),
      server_(server),
      member_(member),
      group_(group),
      host_(host),
      config_(config),
      events_(std::move(events)),
      // Resolved once (setup phase) so the global pack's lazy registration
      // never fires on a message-handling path.
      wire_(config.obs != nullptr ? config.obs : &obs::WireInstruments::global()),
      tracer_(config.tracer) {
  // Register all types; on any conflict, roll back only the ones *we*
  // registered (never another component's handler) before throwing — the
  // destructor won't run for a half-constructed agent, and leaving
  // this-capturing handlers behind would dangle.
  std::vector<MsgKind> registered;
  const auto reg = [&](MsgKind kind, std::function<void(const net::Message&)> fn) {
    if (!ep_.on(wire_type(kind), std::move(fn))) return false;
    registered.push_back(kind);
    return true;
  };
  bool owned = true;
  owned &= reg(MsgKind::kJoinAck,
               [this](const net::Message& m) { handle_join_ack(m); });
  owned &= reg(MsgKind::kLeaveAck,
               [this](const net::Message& m) { handle_leave_ack(m); });
  owned &= reg(MsgKind::kGrant, [this](const net::Message& m) { handle_grant(m); });
  owned &= reg(MsgKind::kDeny, [this](const net::Message& m) { handle_deny(m); });
  owned &= reg(MsgKind::kQueued,
               [this](const net::Message& m) { handle_queued(m); });
  owned &= reg(MsgKind::kReleaseAck,
               [this](const net::Message& m) { handle_release_ack(m); });
  owned &= reg(MsgKind::kSuspend,
               [this](const net::Message& m) { handle_suspend(m); });
  owned &= reg(MsgKind::kResume,
               [this](const net::Message& m) { handle_resume(m); });
  if (!owned) {
    for (const MsgKind kind : registered) ep_.off(wire_type(kind));
    throw std::logic_error("fproto client types already handled on this node");
  }
}

FloorAgent::~FloorAgent() {
  if (retry_timer_ != 0) ep_.cancel(retry_timer_);
  for (const MsgKind kind :
       {MsgKind::kJoinAck, MsgKind::kLeaveAck, MsgKind::kGrant, MsgKind::kDeny,
        MsgKind::kQueued, MsgKind::kReleaseAck, MsgKind::kSuspend,
        MsgKind::kResume}) {
    ep_.off(wire_type(kind));
  }
}

bool FloorAgent::join() {
  if (state_ != AgentState::kIdle) return false;
  begin_op(AgentState::kJoining, MsgKind::kJoin, encode(JoinMsg{member_, group_}));
  return true;
}

std::uint64_t FloorAgent::request_floor(media::QosRequirement qos,
                                        floorctl::FcmMode mode) {
  if (state_ != AgentState::kJoined) return 0;
  current_request_id_ =
      (static_cast<std::uint64_t>(member_.value()) << 32) | ++req_seq_;
  RequestMsg m;
  m.request_id = current_request_id_;
  m.member = member_;
  m.group = group_;
  m.host = host_;
  m.mode = mode;
  m.qos = qos;
  begin_op(AgentState::kPending, MsgKind::kRequest, encode(m));
  return current_request_id_;
}

bool FloorAgent::release_floor() {
  if (state_ != AgentState::kGranted && state_ != AgentState::kSuspended) {
    return false;
  }
  begin_op(AgentState::kReleasing, MsgKind::kRelease,
           encode(ReleaseMsg{current_request_id_, member_, group_}));
  return true;
}

bool FloorAgent::leave() {
  if (state_ != AgentState::kJoined && state_ != AgentState::kGranted &&
      state_ != AgentState::kSuspended) {
    return false;
  }
  begin_op(AgentState::kLeaving, MsgKind::kLeave, encode(LeaveMsg{member_, group_}));
  return true;
}

void FloorAgent::begin_op(AgentState next, MsgKind kind,
                          net::Payload ints) {
  state_ = next;
  outbound_type_ = wire_type(kind);
  outbound_ints_ = std::move(ints);
  tries_ = 1;
  ++sends_;
  wire_->agent_sends.add();
  if (tracer_ != nullptr) {
    tracer_->emit(obs::Ev::kSend, member_.value(), host_.value(),
                  static_cast<std::uint8_t>(kind));
  }
  ep_.send(server_, outbound_type_, outbound_ints_);
  if (retry_timer_ != 0) ep_.cancel(retry_timer_);
  retry_timer_ = ep_.schedule_in(retry_delay(), [this] { retry_tick(); });
}

void FloorAgent::finish_op(AgentState next) {
  state_ = next;
  if (retry_timer_ != 0) {
    ep_.cancel(retry_timer_);
    retry_timer_ = 0;
  }
}

util::Duration FloorAgent::retry_delay() const {
  // min(retry * factor^(tries_-1), cap), grown by a loop with an early
  // cap-break so a huge tries_ never overflows the multiply.
  double delay = static_cast<double>(config_.retry.raw_nanos());
  const double cap = static_cast<double>(config_.retry_cap.raw_nanos());
  const double factor = config_.retry_factor > 1.0 ? config_.retry_factor : 1.0;
  for (int i = 1; i < tries_ && delay < cap; ++i) delay *= factor;
  if (delay > cap && cap > 0.0) delay = cap;
  return util::Duration::nanos(static_cast<std::int64_t>(delay));
}

void FloorAgent::retry_tick() {
  retry_timer_ = 0;
  // Only in-flight operations retransmit; a reply that landed between the
  // schedule and this tick already cancelled the timer. kQueued keeps the
  // request retransmitting as a poll of the server's stored decision.
  if (state_ != AgentState::kJoining && state_ != AgentState::kPending &&
      state_ != AgentState::kQueued && state_ != AgentState::kReleasing &&
      state_ != AgentState::kLeaving) {
    return;
  }
  if (tries_ >= config_.max_tries) {
    const AgentState stalled = state_;
    finish_op(AgentState::kFailed);
    if (events_.on_failed) events_.on_failed(stalled);
    return;
  }
  ++tries_;
  ++retransmits_;
  ++sends_;
  wire_->agent_sends.add();
  wire_->agent_retransmits.add();
  if (tracer_ != nullptr) {
    tracer_->emit(obs::Ev::kRetransmit, member_.value(), host_.value());
  }
  ep_.send(server_, outbound_type_, outbound_ints_);
  retry_timer_ = ep_.schedule_in(retry_delay(), [this] { retry_tick(); });
}

void FloorAgent::drop_duplicate() {
  ++duplicates_suppressed_;
  wire_->agent_dup_drops.add();
  if (tracer_ != nullptr) {
    tracer_->emit(obs::Ev::kDupDrop, member_.value(), host_.value());
  }
}

void FloorAgent::send_ack(MsgKind kind, net::Payload ints) {
  ++acks_sent_;
  ++sends_;
  wire_->agent_acks.add();
  wire_->agent_sends.add();
  ep_.send(server_, wire_type(kind), std::move(ints));
}

void FloorAgent::handle_join_ack(const net::Message& msg) {
  const auto ack = decode_join_ack(msg);
  if (!ack || ack->member != member_ || ack->group != group_) return;
  if (state_ != AgentState::kJoining) {
    drop_duplicate();
    return;
  }
  finish_op(ack->accepted ? AgentState::kJoined : AgentState::kIdle);
  if (ack->accepted && events_.on_joined) events_.on_joined();
}

void FloorAgent::handle_leave_ack(const net::Message& msg) {
  const auto ack = decode_leave_ack(msg);
  if (!ack || ack->member != member_ || ack->group != group_) return;
  if (state_ != AgentState::kLeaving) {
    drop_duplicate();
    return;
  }
  // A refused leave (the chair anchors its group) parks back in kJoined.
  finish_op(ack->accepted ? AgentState::kIdle : AgentState::kJoined);
  if (ack->accepted && events_.on_left) events_.on_left();
}

void FloorAgent::handle_grant(const net::Message& msg) {
  const auto grant = decode_grant(msg);
  if (!grant) return;
  if (grant->request_id != current_request_id_ ||
      (state_ != AgentState::kPending && state_ != AgentState::kQueued)) {
    // A stale request's answer, or a duplicate triggered by our own
    // retransmissions after the first reply landed.
    drop_duplicate();
    return;
  }
  finish_op(AgentState::kGranted);
  if (events_.on_granted) events_.on_granted(grant->request_id, grant->degraded);
}

void FloorAgent::handle_deny(const net::Message& msg) {
  const auto deny = decode_deny(msg);
  if (!deny) return;
  if (deny->request_id != current_request_id_ ||
      (state_ != AgentState::kPending && state_ != AgentState::kQueued)) {
    drop_duplicate();
    return;
  }
  finish_op(AgentState::kJoined);
  if (events_.on_denied) events_.on_denied(deny->request_id, deny->outcome);
}

void FloorAgent::handle_queued(const net::Message& msg) {
  const auto queued = decode_queued(msg);
  if (!queued) return;
  if (queued->request_id != current_request_id_ ||
      state_ != AgentState::kPending) {
    if (queued->request_id == current_request_id_ &&
        state_ == AgentState::kQueued) {
      // A poll replay: the server is alive and still parking us. Refresh
      // the retry budget — a long but healthy queue wait must not exhaust
      // max_tries; only an unanswered poll run should fail the agent.
      tries_ = 1;
    }
    drop_duplicate();
    return;
  }
  // The request is parked, not lost: refresh the retry budget and keep the
  // retransmission timer running as a poll. A Grant (promotion) or Deny
  // (dequeued without a grant) ends the wait.
  state_ = AgentState::kQueued;
  tries_ = 1;
  if (events_.on_queued) events_.on_queued(queued->request_id);
}

void FloorAgent::handle_release_ack(const net::Message& msg) {
  const auto ack = decode_release_ack(msg);
  if (!ack) return;
  if (ack->request_id != current_request_id_ ||
      state_ != AgentState::kReleasing) {
    drop_duplicate();
    return;
  }
  finish_op(AgentState::kJoined);
  if (events_.on_released) events_.on_released(ack->request_id);
}

void FloorAgent::handle_suspend(const net::Message& msg) {
  const auto suspend = decode_suspend(msg);
  if (!suspend) return;
  // Always ack — the server retransmits until we do, and acking a stale
  // notification is harmless (ids never recycle).
  send_ack(MsgKind::kSuspendAck, encode(SuspendAckMsg{suspend->notify_id}));
  if (suspend->request_id != current_request_id_) return;  // stale grant
  if (suspend->notify_id <= last_notify_id_) {
    drop_duplicate();  // retransmission or reordered older notify
    return;
  }
  last_notify_id_ = suspend->notify_id;
  if (state_ == AgentState::kGranted) {
    state_ = AgentState::kSuspended;
    if (events_.on_suspended) events_.on_suspended(suspend->request_id);
  } else if (state_ == AgentState::kPending || state_ == AgentState::kQueued) {
    // The suspend overtook our grant on the wire (for a queued request, the
    // promotion's Grant push): being suspended implies the request *was*
    // granted. Deliver the grant (degraded — it arrived pre-empted) and
    // then the suspension; the late Grant itself is then a duplicate.
    finish_op(AgentState::kSuspended);
    if (events_.on_granted) events_.on_granted(suspend->request_id, true);
    if (events_.on_suspended) events_.on_suspended(suspend->request_id);
  } else {
    drop_duplicate();
  }
}

void FloorAgent::handle_resume(const net::Message& msg) {
  const auto resume = decode_resume(msg);
  if (!resume) return;
  send_ack(MsgKind::kResumeAck, encode(ResumeAckMsg{resume->notify_id}));
  if (resume->request_id != current_request_id_) return;
  if (resume->notify_id <= last_notify_id_) {
    drop_duplicate();
    return;
  }
  last_notify_id_ = resume->notify_id;
  if (state_ == AgentState::kSuspended) {
    state_ = AgentState::kGranted;
    if (events_.on_resumed) events_.on_resumed(resume->request_id);
  } else {
    drop_duplicate();
  }
}

}  // namespace dmps::fproto
