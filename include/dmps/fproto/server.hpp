#pragma once
// Moderating floor server: the fproto endpoint that owns arbitration.
//
// Registers the client->server message types on its transport endpoint
// (SimTransport in scenarios, UdpEndpoint behind dmps_floord), runs
// every FloorRequest through the floorctl::FloorControl seam — a
// ShardedFloorService (dmps_floord's one server), or one shard's
// FloorService (session::Presentation binds a server to each shard via
// shard(host)) — and answers with Grant / Deny / Queued. The server is the
// retransmission-tolerant half of the protocol: request and release
// handling is *idempotent* — a request id that was already decided gets
// its stored reply resent without re-arbitration, a release of an
// already-released grant is re-acked — so client retries under loss can
// never double-allocate or double-free floor resources.
//
// Media-Suspend/Resume are the server-driven, asynchronous half: when an
// arbitration suspends lower-priority holders (or a release re-admits
// them), the server pushes Suspend/Resume notifications to those holders'
// home stations and retransmits each until the station acks it.
//
// Queueing groups add a third leg: a parked request is answered with
// fp.queued, and the client's request retransmission becomes a poll. When a
// release promotes the parked request, the server rewrites the stored reply
// to the Grant and pushes it once — the poll replays it if the push is
// lost, so promotions need no extra reliability machinery.
//
// One record per member (DESIGN §6.5a). The protocol contract — one
// FloorAgent per member, one group, one operation in flight, request ids
// `member << 32 | seq` with a monotonic seq — leaves at most one live
// request per member, so that is all the server keeps: the member's home
// station and its latest decided request (id, group, status, and the
// decision fields its reply is re-encoded from). A retransmission of that
// id replays the reply; an older id was superseded and is refused (a Deny)
// without re-arbitration. decided_records() therefore stays bounded by the
// member count, not by request volume. A frame that breaks the contract is
// refused before it touches any state — no reply, no record, no
// arbitration: a request or release whose id's top half is not its member,
// one from a member the registry does not know, a release naming another
// group than its request, and a new request while the member's latest one
// still holds or is parked.
// Corollary: a MemberId's request-id namespace belongs to ONE FloorAgent
// incarnation. A restarted station must register a fresh member (ids are
// cheap) — re-using the id restarts the seq at 1, below the latest id, and
// those requests are refused.

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "floor/group.hpp"
#include "floor/service.hpp"
#include "fproto/codec.hpp"
#include "net/sim_network.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "transport/endpoint.hpp"

namespace dmps::fproto {

struct ServerConfig {
  util::Duration notify_retry = util::Duration::millis(250);
  int notify_max_tries = 200;  // then the notification is abandoned
  /// Wire instrument pack; nullptr = the process-global pack.
  obs::WireInstruments* obs = nullptr;
  /// Optional event tracer (nullptr = no event stream). Must outlive the
  /// server.
  obs::Tracer* tracer = nullptr;
};

class FloorServer {
 public:
  FloorServer(transport::Endpoint& endpoint, floorctl::GroupRegistry& registry,
              floorctl::FloorControl& service, ServerConfig config);
  ~FloorServer();
  FloorServer(const FloorServer&) = delete;
  FloorServer& operator=(const FloorServer&) = delete;

  /// Every fproto datagram this server put on the wire (replies, acks,
  /// notifications and their retransmissions).
  std::uint64_t messages_sent() const { return sends_; }
  std::uint64_t requests_arbitrated() const { return arbitrated_; }
  std::uint64_t duplicate_requests() const { return duplicate_requests_; }
  std::uint64_t duplicate_releases() const { return duplicate_releases_; }
  std::uint64_t grants_sent() const { return grants_sent_; }
  std::uint64_t denies_sent() const { return denies_sent_; }
  std::uint64_t queued_sent() const { return queued_sent_; }
  std::uint64_t promotions_sent() const { return promotions_sent_; }
  std::uint64_t suspends_sent() const { return suspends_sent_; }
  std::uint64_t resumes_sent() const { return resumes_sent_; }
  std::uint64_t notify_retransmits() const { return notify_retransmits_; }
  std::uint64_t notifies_abandoned() const { return notifies_abandoned_; }
  std::size_t notifies_pending() const { return pending_notifies_.size(); }
  /// Member records: one per member this server heard from (created at
  /// its Join, or at a first Request/Release), each holding only the
  /// latest decided request — bounded by member count, not request volume.
  std::size_t decided_records() const { return records_.size(); }

 private:
  /// Where a member's latest decided request stands.
  enum class Status : std::uint8_t {
    kNone,      // nothing decided yet
    kDenied,    // refused (or dequeued when the member left)
    kQueued,    // parked by a queueing group
    kHeld,      // granted (possibly suspended since)
    kReleased,  // granted, then given back by Release or Leave
  };
  /// Everything the server remembers about one member.
  struct MemberRecord {
    net::NodeId station;  // home station: learned from Join and Request
    std::uint64_t request_id = 0;  // the latest decided request
    floorctl::GroupId group;       // ... and its group
    Status status = Status::kNone;
    // The decision fields the stored reply is re-encoded from.
    floorctl::Outcome outcome = floorctl::Outcome::kDenied;
    double availability = 0.0;
  };

  void handle_join(const net::Message& msg);
  void handle_leave(const net::Message& msg);
  void handle_request(const net::Message& msg);
  void handle_release(const net::Message& msg);
  void handle_suspend_ack(const net::Message& msg);
  void handle_resume_ack(const net::Message& msg);

  /// The member's record, created at first contact; nullptr when the
  /// registry does not know the member.
  MemberRecord* record_of(floorctl::MemberId member);
  /// The record of `holder` while its latest request, in holder.group, is
  /// `status`; nullptr otherwise (e.g. decided by another server).
  MemberRecord* record_in(const floorctl::Holder& holder, Status status);
  /// The stored reply to the record's request: Grant, Queued or Deny.
  void send_reply(net::NodeId node, const MemberRecord& record);
  void release_holder(floorctl::MemberId member, floorctl::GroupId group);
  void send_suspends(const std::vector<floorctl::Holder>& suspended);
  /// One datagram on the wire: member counter, instrument pack, send.
  void transmit(net::NodeId node, net::MsgType type, const net::Payload& ints);
  /// A duplicate answered from stored state (request replay, release
  /// re-ack): the idempotency machinery's hit counter.
  void replay_hit(floorctl::MemberId member, floorctl::HostId host);
  void notify(const MemberRecord& holder, MsgKind kind);
  void notify_tick(std::uint64_t notify_id);

  transport::Endpoint& ep_;
  floorctl::GroupRegistry& registry_;
  floorctl::FloorControl& service_;
  ServerConfig config_;

  std::unordered_map<floorctl::MemberId::value_type, MemberRecord> records_;

  struct Notify {
    net::NodeId node;
    MsgKind kind = MsgKind::kSuspend;
    net::Payload ints;
    int tries = 1;
    transport::TimerId retry_timer = 0;
  };
  std::unordered_map<std::uint64_t, Notify> pending_notifies_;  // by notify id
  std::uint64_t next_notify_id_ = 1;

  std::uint64_t sends_ = 0;
  std::uint64_t arbitrated_ = 0;
  std::uint64_t duplicate_requests_ = 0;
  std::uint64_t duplicate_releases_ = 0;
  std::uint64_t grants_sent_ = 0;
  std::uint64_t denies_sent_ = 0;
  std::uint64_t queued_sent_ = 0;
  std::uint64_t promotions_sent_ = 0;
  std::uint64_t suspends_sent_ = 0;
  std::uint64_t resumes_sent_ = 0;
  std::uint64_t notify_retransmits_ = 0;
  std::uint64_t notifies_abandoned_ = 0;

  obs::WireInstruments* wire_;  // resolved once at construction
  obs::Tracer* tracer_;
};

}  // namespace dmps::fproto
