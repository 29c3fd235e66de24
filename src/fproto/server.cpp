#include "fproto/server.hpp"

#include <stdexcept>
#include <utility>

namespace dmps::fproto {

namespace {
/// Request ids pack (member << 32 | per-member seq): the top half must name
/// the member the frame speaks for.
bool id_names(std::uint64_t request_id, floorctl::MemberId member) {
  return (request_id >> 32) == member.value();
}
}  // namespace

FloorServer::FloorServer(transport::Endpoint& endpoint, floorctl::GroupRegistry& registry,
                         floorctl::FloorControl& service, ServerConfig config)
    : ep_(endpoint),
      registry_(registry),
      service_(service),
      config_(config),
      // Resolved once (setup phase) so the global pack's lazy registration
      // never fires on a message-handling path.
      wire_(config.obs != nullptr ? config.obs : &obs::WireInstruments::global()),
      tracer_(config.tracer) {
  // Same rollback discipline as FloorAgent: on a conflict, deregister only
  // what this constructor managed to register, then throw.
  std::vector<MsgKind> registered;
  const auto reg = [&](MsgKind kind, std::function<void(const net::Message&)> fn) {
    if (!ep_.on(wire_type(kind), std::move(fn))) return false;
    registered.push_back(kind);
    return true;
  };
  bool owned = true;
  owned &= reg(MsgKind::kJoin, [this](const net::Message& m) { handle_join(m); });
  owned &= reg(MsgKind::kLeave, [this](const net::Message& m) { handle_leave(m); });
  owned &= reg(MsgKind::kRequest,
               [this](const net::Message& m) { handle_request(m); });
  owned &= reg(MsgKind::kRelease,
               [this](const net::Message& m) { handle_release(m); });
  owned &= reg(MsgKind::kSuspendAck,
               [this](const net::Message& m) { handle_suspend_ack(m); });
  owned &= reg(MsgKind::kResumeAck,
               [this](const net::Message& m) { handle_resume_ack(m); });
  if (!owned) {
    for (const MsgKind kind : registered) ep_.off(wire_type(kind));
    throw std::logic_error("fproto server types already handled on this node");
  }
}

FloorServer::~FloorServer() {
  for (auto& [id, pending] : pending_notifies_) {
    if (pending.retry_timer != 0) ep_.cancel(pending.retry_timer);
  }
  for (const MsgKind kind :
       {MsgKind::kJoin, MsgKind::kLeave, MsgKind::kRequest, MsgKind::kRelease,
        MsgKind::kSuspendAck, MsgKind::kResumeAck}) {
    ep_.off(wire_type(kind));
  }
}

void FloorServer::transmit(net::NodeId node, net::MsgType type,
                           const net::Payload& ints) {
  ++sends_;
  wire_->server_sends.add();
  ep_.send(node, type, ints);
}

void FloorServer::replay_hit(floorctl::MemberId member, floorctl::HostId host) {
  wire_->server_replay_hits.add();
  if (tracer_ != nullptr) {
    tracer_->emit(obs::Ev::kReplayHit, member.value(), host.value());
  }
}

void FloorServer::handle_join(const net::Message& msg) {
  const auto join = decode_join(msg);
  MemberRecord* record = join && registry_.has_group(join->group)
                             ? record_of(join->member)
                             : nullptr;
  if (record == nullptr) {
    return;  // malformed or unknown ids: not even a NACK target
  }
  record->station = msg.from;  // learn the home station
  // Idempotent: already-in counts as accepted, so a retransmitted Join
  // after a lost ack converges instead of flapping.
  const bool accepted = registry_.in_group(join->member, join->group) ||
                        registry_.join(join->member, join->group);
  transmit(msg.from, wire_type(MsgKind::kJoinAck),
           encode(JoinAckMsg{join->member, join->group, accepted}));
}

void FloorServer::handle_leave(const net::Message& msg) {
  const auto leave = decode_leave(msg);
  if (!leave || !registry_.has_member(leave->member) ||
      !registry_.has_group(leave->group)) {
    return;
  }
  bool accepted;
  if (!registry_.in_group(leave->member, leave->group)) {
    accepted = true;  // idempotent: a retransmitted Leave re-acks
  } else {
    // A leaving member gives back any floor it still holds (and abandons
    // any request it still has parked in a queueing group).
    release_holder(leave->member, leave->group);
    accepted = registry_.leave(leave->member, leave->group);
  }
  transmit(msg.from, wire_type(MsgKind::kLeaveAck),
           encode(LeaveAckMsg{leave->member, leave->group, accepted}));
}

// dmps-lint: hot-begin(fproto-server) — request/release bookkeeping
FloorServer::MemberRecord* FloorServer::record_of(floorctl::MemberId member) {
  const auto it = records_.find(member.value());
  if (it != records_.end()) return &it->second;
  if (!registry_.has_member(member)) return nullptr;
  // First contact: once per registered member, so the insert is cold.
  // dmps-lint: allow-next(hot-unordered-map)
  return &records_[member.value()];
}

FloorServer::MemberRecord* FloorServer::record_in(
    const floorctl::Holder& holder, Status status) {
  const auto it = records_.find(holder.member.value());
  if (it == records_.end() || it->second.status != status ||
      it->second.group != holder.group) {
    return nullptr;
  }
  return &it->second;
}

void FloorServer::send_reply(net::NodeId node, const MemberRecord& record) {
  switch (record.status) {
    case Status::kHeld:
    case Status::kReleased:
      transmit(node, wire_type(MsgKind::kGrant),
               encode(GrantMsg{
                   record.request_id,
                   record.outcome == floorctl::Outcome::kGrantedDegraded,
                   record.availability}));
      return;
    case Status::kQueued:
      transmit(node, wire_type(MsgKind::kQueued),
               encode(QueuedMsg{record.request_id}));
      return;
    case Status::kNone:
    case Status::kDenied:
      transmit(node, wire_type(MsgKind::kDeny),
               encode(DenyMsg{record.request_id, record.outcome}));
      return;
  }
}

void FloorServer::handle_request(const net::Message& msg) {
  const auto request = decode_request(msg);
  if (!request || !id_names(request->request_id, request->member)) return;
  MemberRecord* record = record_of(request->member);
  if (record == nullptr) return;
  // Ids grow per member, so an id above the latest is a new request.
  const bool fresh = record->status == Status::kNone ||
                     request->request_id > record->request_id;
  if (fresh && (record->status == Status::kHeld ||
                record->status == Status::kQueued)) {
    return;  // the latest request still holds or is parked: one at a time
  }
  record->station = msg.from;

  if (!fresh) {
    // Duplicate suppression: the latest id is answered from the stored
    // decision — re-arbitrating a retransmission would double-reserve. An
    // older id was decided and superseded long ago (the member has since
    // moved on); refuse it without re-arbitration, for the same reason.
    ++duplicate_requests_;
    replay_hit(request->member, request->host);
    if (request->request_id == record->request_id) {
      send_reply(msg.from, *record);
    } else {
      transmit(msg.from, wire_type(MsgKind::kDeny),
               encode(DenyMsg{request->request_id, floorctl::Outcome::kDenied}));
    }
    return;
  }

  floorctl::FloorRequest fr;
  fr.group = request->group;
  fr.member = request->member;
  fr.mode = request->mode;
  fr.host = request->host;
  fr.qos = request->qos;
  const floorctl::Decision decision = service_.request(fr);
  ++arbitrated_;
  wire_->server_arbitrations.add();

  record->request_id = request->request_id;
  record->group = request->group;
  record->outcome = decision.outcome;
  record->availability = decision.availability_after;
  obs::Ev reply_ev;
  if (decision.outcome == floorctl::Outcome::kGranted ||
      decision.outcome == floorctl::Outcome::kGrantedDegraded) {
    record->status = Status::kHeld;
    ++grants_sent_;
    wire_->server_grants.add();
    reply_ev = obs::Ev::kGrant;
  } else if (decision.outcome == floorctl::Outcome::kQueued) {
    // The client polls with this id: a promotion rewrites its reply.
    record->status = Status::kQueued;
    ++queued_sent_;
    wire_->server_queued.add();
    reply_ev = obs::Ev::kQueue;
  } else {
    record->status = Status::kDenied;
    ++denies_sent_;
    wire_->server_denies.add();
    reply_ev = obs::Ev::kDeny;
  }
  if (tracer_ != nullptr) {
    tracer_->emit(reply_ev, request->member.value(), request->host.value(),
                  static_cast<std::uint8_t>(decision.outcome));
  }
  send_reply(msg.from, *record);

  // Push Media-Suspend to every holder this grant displaced.
  send_suspends(decision.suspended);
}

void FloorServer::send_suspends(const std::vector<floorctl::Holder>& suspended) {
  // Only holders granted through this server are tracked; others have no
  // wire state.
  for (const floorctl::Holder& holder : suspended) {
    if (const MemberRecord* held = record_in(holder, Status::kHeld)) {
      notify(*held, MsgKind::kSuspend);
    }
  }
}

void FloorServer::handle_release(const net::Message& msg) {
  const auto release = decode_release(msg);
  if (!release || !id_names(release->request_id, release->member)) return;
  MemberRecord* record = record_of(release->member);
  if (record == nullptr) return;
  const bool latest = record->status != Status::kNone &&
                      release->request_id == record->request_id;
  if (latest && release->group != record->group) return;

  if (latest && record->status == Status::kReleased) {
    // Retransmitted release after a lost ack. Re-acked below, but not a
    // replay_hit(): wire.server.replay_hits mirrors duplicate_requests()
    // exactly (the double-entry pair counters_consistent() checks).
    ++duplicate_releases_;
  } else if (latest) {
    release_holder(release->member, release->group);
  }
  // A release of something never granted is acked all the same, so the
  // client converges (deny the *request*, not the release retry).
  transmit(msg.from, wire_type(MsgKind::kReleaseAck),
           encode(ReleaseAckMsg{release->request_id}));
}

void FloorServer::release_holder(floorctl::MemberId member,
                                 floorctl::GroupId group) {
  const auto it = records_.find(member.value());
  if (it == records_.end() || it->second.group != group) return;
  MemberRecord& record = it->second;
  if (record.status == Status::kHeld) {
    record.status = Status::kReleased;
  } else if (record.status != Status::kQueued) {
    return;  // holds nothing and has nothing parked
  }
  const floorctl::ReleaseResult result = service_.release(member, group);

  // Freed capacity may Media-Resume suspended holders — tell their stations.
  for (const floorctl::Holder& holder : result.resumed) {
    if (const MemberRecord* held = record_in(holder, Status::kHeld)) {
      notify(*held, MsgKind::kResume);
    }
  }

  // Queued requests the release promoted: rewrite each one's stored reply
  // from Queued to the Grant, push it once (the client's poll replays it if
  // the push is lost), and suspend whoever the promotion displaced.
  for (const floorctl::Promotion& promotion : result.promoted) {
    MemberRecord* granted = record_in(promotion.holder, Status::kQueued);
    if (granted == nullptr) continue;
    granted->status = Status::kHeld;
    granted->outcome = promotion.decision.outcome;
    granted->availability = promotion.decision.availability_after;
    ++promotions_sent_;
    ++grants_sent_;
    wire_->server_promotions.add();
    wire_->server_grants.add();
    if (tracer_ != nullptr) {
      // arg=1 marks a promotion push (vs a request's direct Grant reply).
      tracer_->emit(obs::Ev::kGrant, promotion.holder.member.value(), 0, 1);
    }
    send_reply(granted->station, *granted);
    send_suspends(promotion.decision.suspended);
  }

  // Parked requests the releasing member abandoned (it left the group):
  // rewrite the stored reply to a Deny so its polls converge.
  for (const floorctl::Holder& holder : result.dequeued) {
    MemberRecord* denied = record_in(holder, Status::kQueued);
    if (denied == nullptr) continue;
    denied->status = Status::kDenied;
    denied->outcome = floorctl::Outcome::kDenied;
    ++denies_sent_;
    wire_->server_denies.add();
    if (tracer_ != nullptr) {
      // arg=1 marks a dequeue push (the member left; its polls converge).
      tracer_->emit(obs::Ev::kDeny, holder.member.value(), 0, 1);
    }
    send_reply(denied->station, *denied);
  }
}
// dmps-lint: hot-end

void FloorServer::notify(const MemberRecord& holder, MsgKind kind) {
  const std::uint64_t notify_id = next_notify_id_++;
  Notify pending;
  pending.node = holder.station;
  pending.kind = kind;
  pending.ints = kind == MsgKind::kSuspend
                     ? encode(SuspendMsg{notify_id, holder.request_id})
                     : encode(ResumeMsg{notify_id, holder.request_id});
  if (kind == MsgKind::kSuspend) {
    ++suspends_sent_;
    wire_->server_suspends.add();
  } else {
    ++resumes_sent_;
    wire_->server_resumes.add();
  }
  transmit(pending.node, wire_type(kind), pending.ints);
  pending.retry_timer = ep_.schedule_in(
      config_.notify_retry, [this, notify_id] { notify_tick(notify_id); });
  pending_notifies_.emplace(notify_id, std::move(pending));
}

void FloorServer::notify_tick(std::uint64_t notify_id) {
  const auto it = pending_notifies_.find(notify_id);
  if (it == pending_notifies_.end()) return;  // acked in the meantime
  Notify& pending = it->second;
  pending.retry_timer = 0;
  if (pending.tries >= config_.notify_max_tries) {
    ++notifies_abandoned_;
    pending_notifies_.erase(it);
    return;
  }
  ++pending.tries;
  ++notify_retransmits_;
  wire_->server_notify_retransmits.add();
  if (tracer_ != nullptr) {
    tracer_->emit(obs::Ev::kRetransmit, 0, 0, 1,
                  static_cast<std::int64_t>(notify_id));
  }
  transmit(pending.node, wire_type(pending.kind), pending.ints);
  pending.retry_timer = ep_.schedule_in(
      config_.notify_retry, [this, notify_id] { notify_tick(notify_id); });
}

void FloorServer::handle_suspend_ack(const net::Message& msg) {
  const auto ack = decode_suspend_ack(msg);
  if (!ack) return;
  const auto it = pending_notifies_.find(ack->notify_id);
  if (it == pending_notifies_.end()) return;  // duplicate ack
  if (it->second.retry_timer != 0) ep_.cancel(it->second.retry_timer);
  pending_notifies_.erase(it);
}

void FloorServer::handle_resume_ack(const net::Message& msg) {
  const auto ack = decode_resume_ack(msg);
  if (!ack) return;
  const auto it = pending_notifies_.find(ack->notify_id);
  if (it == pending_notifies_.end()) return;
  if (it->second.retry_timer != 0) ep_.cancel(it->second.retry_timer);
  pending_notifies_.erase(it);
}

}  // namespace dmps::fproto
