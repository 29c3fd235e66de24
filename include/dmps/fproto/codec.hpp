#pragma once
// fproto wire codec: floor-control signalling packed into Message::ints.
//
// Fourteen message kinds put the paper's FCM on the wire. The client-driven
// half is request/reply with client retransmission (Join/Leave/Request/
// Release and their acks — the *reply* is the ack for Request: Grant, Deny
// or Queued). The server-driven half is Media-Suspend/Media-Resume
// notifications, retransmitted by the server until the holder's station
// acks. Every kind has its own interned net::MsgType ("fp.request",
// "fp.grant", ...), so a Demux dispatches straight to the right handler;
// the payload is a fixed layout of int64s per kind (doubles travel
// bit-cast).
//
// decode_*() returns nullopt on a malformed payload — wrong wire type,
// wrong lane count (every kind has an exact layout, so a short OR long
// payload is garbage), or a non-finite bit-cast double where a QoS share
// or availability belongs. A lossy, reordering — or, over real UDP,
// hostile — network must never crash an endpoint.

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "floor/types.hpp"
#include "media/media.hpp"
#include "net/endpoint.hpp"
#include "transport/frame.hpp"

namespace dmps::fproto {

enum class MsgKind {
  kJoin,        // c->s: member asks to enter a group
  kJoinAck,     // s->c
  kLeave,       // c->s: member exits a group (releases any held floor)
  kLeaveAck,    // s->c
  kRequest,     // c->s: FloorRequest
  kGrant,       // s->c: FloorGrant (full or degraded)
  kDeny,        // s->c: FloorDeny (denied or abort-arbitrate)
  kQueued,      // s->c: request parked by a queueing group; grant follows
  kRelease,     // c->s: FloorRelease
  kReleaseAck,  // s->c
  kSuspend,     // s->c: MediaSuspend notification (server-reliable)
  kSuspendAck,  // c->s
  kResume,      // s->c: MediaResume notification (server-reliable)
  kResumeAck,   // c->s
};

/// MsgKind is dense, starting at 0; its enum value is the *stable* wire id
/// (transport frames carry it — interned net::MsgType ids are assigned in
/// first-use order and differ across processes).
inline constexpr std::size_t kMsgKindCount = 14;

/// The kind for a stable wire id, nullopt when out of range (an untrusted
/// datagram's kind byte).
std::optional<MsgKind> kind_from_wire(std::uint8_t wire_id);

/// Reverse of wire_type(): the kind behind an interned type, nullopt for
/// non-fproto types.
std::optional<MsgKind> kind_of(net::MsgType type);

/// The fproto framing schema for UDP endpoints: index i is MsgKind i's
/// interned type, so the frame's kind byte is exactly the MsgKind value.
transport::WireSchema wire_schema();

std::string_view to_string(MsgKind kind);

/// The interned wire type for a kind (stable for the whole process).
net::MsgType wire_type(MsgKind kind);

// ---------------------------------------------------------------- payloads

struct JoinMsg {
  floorctl::MemberId member;
  floorctl::GroupId group;
};

struct JoinAckMsg {
  floorctl::MemberId member;
  floorctl::GroupId group;
  bool accepted = false;
};

struct LeaveMsg {
  floorctl::MemberId member;
  floorctl::GroupId group;
};

struct LeaveAckMsg {
  floorctl::MemberId member;
  floorctl::GroupId group;
  bool accepted = false;
};

struct RequestMsg {
  std::uint64_t request_id = 0;  // globally unique: member id << 32 | seq
  floorctl::MemberId member;
  floorctl::GroupId group;
  floorctl::HostId host;
  floorctl::FcmMode mode = floorctl::FcmMode::kFreeAccess;
  media::QosRequirement qos;
};

struct GrantMsg {
  std::uint64_t request_id = 0;
  bool degraded = false;         // kGrantedDegraded vs kGranted
  double availability = 0.0;     // host availability after the grant
};

struct DenyMsg {
  std::uint64_t request_id = 0;
  floorctl::Outcome outcome = floorctl::Outcome::kDenied;  // kDenied | kAborted
};

/// The third possible reply to fp.request: the group runs a QueueingPolicy
/// and parked the request. The client stops treating silence as loss and
/// waits; its periodic request retransmission doubles as a poll, so the
/// eventual promotion Grant (pushed once, then replayed to polls) survives
/// a lossy link without extra reliability machinery.
struct QueuedMsg {
  std::uint64_t request_id = 0;
};

struct ReleaseMsg {
  std::uint64_t request_id = 0;
  floorctl::MemberId member;
  floorctl::GroupId group;
};

struct ReleaseAckMsg {
  std::uint64_t request_id = 0;
};

struct SuspendMsg {
  std::uint64_t notify_id = 0;   // server-side notification cookie
  std::uint64_t request_id = 0;  // the grant being Media-Suspended
};

struct SuspendAckMsg {
  std::uint64_t notify_id = 0;
};

struct ResumeMsg {
  std::uint64_t notify_id = 0;
  std::uint64_t request_id = 0;  // the grant being Media-Resumed
};

struct ResumeAckMsg {
  std::uint64_t notify_id = 0;
};

// ------------------------------------------------------------ encode/decode

net::Payload encode(const JoinMsg& m);
net::Payload encode(const JoinAckMsg& m);
net::Payload encode(const LeaveMsg& m);
net::Payload encode(const LeaveAckMsg& m);
net::Payload encode(const RequestMsg& m);
net::Payload encode(const GrantMsg& m);
net::Payload encode(const DenyMsg& m);
net::Payload encode(const QueuedMsg& m);
net::Payload encode(const ReleaseMsg& m);
net::Payload encode(const ReleaseAckMsg& m);
net::Payload encode(const SuspendMsg& m);
net::Payload encode(const SuspendAckMsg& m);
net::Payload encode(const ResumeMsg& m);
net::Payload encode(const ResumeAckMsg& m);

std::optional<JoinMsg> decode_join(const net::Message& msg);
std::optional<JoinAckMsg> decode_join_ack(const net::Message& msg);
std::optional<LeaveMsg> decode_leave(const net::Message& msg);
std::optional<LeaveAckMsg> decode_leave_ack(const net::Message& msg);
std::optional<RequestMsg> decode_request(const net::Message& msg);
std::optional<GrantMsg> decode_grant(const net::Message& msg);
std::optional<DenyMsg> decode_deny(const net::Message& msg);
std::optional<QueuedMsg> decode_queued(const net::Message& msg);
std::optional<ReleaseMsg> decode_release(const net::Message& msg);
std::optional<ReleaseAckMsg> decode_release_ack(const net::Message& msg);
std::optional<SuspendMsg> decode_suspend(const net::Message& msg);
std::optional<SuspendAckMsg> decode_suspend_ack(const net::Message& msg);
std::optional<ResumeMsg> decode_resume(const net::Message& msg);
std::optional<ResumeAckMsg> decode_resume_ack(const net::Message& msg);

}  // namespace dmps::fproto
