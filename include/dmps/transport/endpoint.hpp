#pragma once
// The transport seam: how protocol endpoints reach the wire.
//
// fproto::FloorAgent and fproto::FloorServer are written against exactly
// this interface — a peer-addressed datagram sender, a per-message-type
// receive dispatcher, and a cancellable timer service — and never name the
// backend. Two backends exist:
//
//   SimTransport (transport/sim_transport.hpp) — adapts a net::Demux on a
//   SimNetwork; timers are discrete-event Simulator events. Every test and
//   bench scenario runs through it unchanged.
//
//   UdpEndpoint (transport/udp.hpp, Linux) — a non-blocking UDP socket on
//   a UdpLoop's epoll; timers live on the loop's hashed timer wheel and
//   now() is wall (steady) time since the loop started.
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

#include "net/sim_network.hpp"
#include "util/duration.hpp"

namespace dmps::transport {

/// Pending-timer handle; 0 is "no timer" by convention (real ids start
/// at 1 in both backends).
using TimerId = std::uint64_t;

class Endpoint {
 public:
  using Handler = std::function<void(const net::Message&)>;

  virtual ~Endpoint() = default;

  /// Register the handler for a message type. Each type has one owner:
  /// returns false (and registers nothing) if the type is already taken.
  [[nodiscard]] virtual bool on(net::MsgType type, Handler handler) = 0;

  /// Drop the handler for a message type (in-flight datagrams may still
  /// arrive afterwards and are dropped unhandled).
  virtual void off(net::MsgType type) = 0;

  /// Send one message, best effort like a datagram, to a peer this
  /// endpoint knows (a Message::from it received, or an address registered
  /// with the backend). UdpEndpoint may carry it in one datagram with
  /// other messages for the same peer; per-peer order is send order.
  virtual void send(net::NodeId to, net::MsgType type, net::Payload ints) = 0;

  /// Schedule `cb` after `delay` on this endpoint's timeline. Never 0.
  virtual TimerId schedule_in(util::Duration delay,
                              std::function<void()> cb) = 0;

  /// Drop a pending timer. False if it already fired or was cancelled.
  virtual bool cancel(TimerId id) = 0;

  /// Current instant on this endpoint's timeline (simulation time or wall
  /// time since the loop epoch — comparable within one endpoint only).
  virtual util::TimePoint now() const = 0;
};

}  // namespace dmps::transport
