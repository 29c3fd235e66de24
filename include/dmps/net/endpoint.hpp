#pragma once
// The endpoint seam: the wire vocabulary and how protocol endpoints reach
// the wire.
//
// Message types are *interned*: a protocol interns its type names once
// (msg_type("clk.req") -> dense MsgType id) and every send/dispatch after
// that moves small ints only. Dispatch is a vector index per delivery — no
// per-delivery string hashing — which matters once the floor protocol
// multiplies delivery volume.
//
// fproto::FloorAgent and fproto::FloorServer are written against exactly
// this interface — a peer-addressed datagram sender, a per-message-type
// receive dispatcher, and a cancellable timer service — and never name the
// backend. Two backends exist:
//
//   net::Demux (net/sim_network.hpp) — a node's receive side on a
//   SimNetwork; timers are discrete-event Simulator events and now() is
//   simulation time. Every test and bench scenario runs through it.
//
//   transport::UdpEndpoint (transport/udp.hpp, Linux) — a non-blocking UDP
//   socket on a UdpLoop's epoll; timers live on the loop's hashed timer
//   wheel and now() is wall (steady) time since the loop started.
//
// Seam contract (DESIGN.md §9):
//   - Single-threaded: one thread drives an endpoint's loop (Simulator
//     run_until / UdpLoop poll-run); handlers and timer callbacks fire on
//     that thread only, never re-entrantly from send()/schedule_in().
//   - Peers are dense net::NodeId values minted by the backend (SimNetwork
//     node table / UdpEndpoint peer intern). A received Message's `from` is
//     always a valid reply address for send().
//   - Each message type has one handler owner; on() refuses a taken type.
//     Components must off() every type they registered before destruction.
//   - Timer ids are never recycled while pending; cancel() of an already
//     fired or cancelled timer returns false and is harmless.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "util/duration.hpp"
#include "util/ids.hpp"
#include "util/small_vec.hpp"

namespace dmps::net {

using NodeId = util::StrongId<struct NodeTag>;

/// Interned message-type id, dense from 0. Compare/copy like an int.
using MsgType = util::StrongId<struct MsgTypeTag, std::uint16_t>;

/// Intern `name` into the process-wide type table (idempotent: the same
/// name always returns the same id). Call once at component setup, not per
/// send.
MsgType msg_type(std::string_view name);

/// Reverse lookup, for logs and tests. Throws on an id never interned.
const std::string& msg_type_name(MsgType type);

/// Wire payload: int64 lanes with inline storage. Every control-plane kind
/// this library models fits the inline capacity (clock sync uses <= 3
/// lanes, the largest of the 14 fproto kinds — fp.request — uses 8), so a
/// delivery on the hot path allocates nothing; bigger payloads spill to the
/// heap transparently.
inline constexpr std::size_t kInlinePayloadLanes = 8;
using Payload = util::SmallVec<std::int64_t, kInlinePayloadLanes>;

/// A datagram. `ints` is the wire payload — enough for the control-plane
/// protocols this library models (clock sync, floor signalling).
struct Message {
  NodeId from;
  NodeId to;
  MsgType type;
  Payload ints;
};

/// Pending-timer handle; 0 is "no timer" by convention (real ids start
/// at 1 in both backends).
using TimerId = std::uint64_t;

class Endpoint {
 public:
  using Handler = std::function<void(const Message&)>;

  virtual ~Endpoint() = default;

  /// Register the handler for a message type. Each type has one owner:
  /// returns false (and registers nothing) if the type is already taken.
  [[nodiscard]] virtual bool on(MsgType type, Handler handler) = 0;

  /// Drop the handler for a message type (in-flight datagrams may still
  /// arrive afterwards and are dropped unhandled).
  virtual void off(MsgType type) = 0;

  /// Send one message, best effort like a datagram, to a peer this
  /// endpoint knows (a Message::from it received, or an address registered
  /// with the backend). UdpEndpoint may carry it in one datagram with
  /// other messages for the same peer; per-peer order is send order.
  virtual void send(NodeId to, MsgType type, Payload ints) = 0;

  /// Schedule `cb` after `delay` on this endpoint's timeline. Never 0.
  virtual TimerId schedule_in(util::Duration delay,
                              std::function<void()> cb) = 0;

  /// Drop a pending timer. False if it already fired or was cancelled.
  virtual bool cancel(TimerId id) = 0;

  /// Current instant on this endpoint's timeline (simulation time or wall
  /// time since the loop epoch — comparable within one endpoint only).
  virtual util::TimePoint now() const = 0;
};

}  // namespace dmps::net
