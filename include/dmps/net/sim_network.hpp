#pragma once
// Simulated best-effort network between named nodes.
//
// One SimNetwork carries every message in a scenario. Each link applies a
// LinkQuality model — fixed latency, uniform jitter, independent loss — so
// the clock-sync layer above sees realistic asymmetric delays. A Demux is a
// node's receive side and the endpoint seam's simulated backend
// (net/endpoint.hpp): components (clock server, clock client, floor
// protocol endpoints) register per-message-type handlers on it, send from
// it, and take their timers from its network's Simulator.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "net/endpoint.hpp"
#include "sim/simulator.hpp"
#include "util/duration.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace dmps::net {

/// Per-link delay/loss model: delivery delay = latency + U(0, jitter),
/// independently per message and per direction; each message is dropped
/// with probability `loss`.
struct LinkQuality {
  util::Duration latency = util::Duration::millis(1);
  util::Duration jitter = util::Duration::zero();
  double loss = 0.0;
};

class Demux;

/// Deliveries are target events on the simulator (Simulator::post_in), so
/// the network must outlive every later run_until of its simulator.
class SimNetwork final : private sim::Simulator::Target {
 public:
  SimNetwork(sim::Simulator& sim, std::uint64_t seed, LinkQuality default_link);

  NodeId add_node(std::string name);
  const std::string& node_name(NodeId id) const;
  std::size_t node_count() const { return nodes_.size(); }

  /// Override the link model for the ordered pair (from, to). Throws
  /// std::out_of_range unless both are nodes of this network.
  void set_link(NodeId from, NodeId to, LinkQuality quality);
  const LinkQuality& link(NodeId from, NodeId to) const;

  /// Send `msg` (msg.from/msg.to must be valid nodes). Applies the link
  /// model and delivers through the destination's Demux, if attached.
  void send(Message msg);

  sim::Simulator& sim() { return sim_; }
  std::uint64_t sent() const { return sent_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t delivered() const { return delivered_; }

 private:
  friend class Demux;
  void attach(NodeId node, Demux* demux);
  void detach(NodeId node, Demux* demux);
  void fire(std::uint32_t slot) override;  // a parked message is due
  void deliver_parked(std::uint32_t slot);

  struct Node {
    std::string name;
    Demux* demux = nullptr;
  };

  sim::Simulator& sim_;
  sim::Simulator::TargetId delivery_;  // this network, registered with sim_
  util::Rng rng_;
  LinkQuality default_link_;
  std::vector<Node> nodes_;
  // Link overrides by from << 32 | to (two valid node ids never make
  // FlatMap's empty key).
  util::FlatMap<LinkQuality> links_;
  // In-flight messages wait here; a delivery event carries only the slot.
  std::vector<Message> parked_;
  std::vector<std::uint32_t> parked_free_;
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t delivered_ = 0;
};

/// A node's receive-side dispatcher and the endpoint seam's simulated
/// backend. Handlers are a flat vector indexed by the interned
/// Message::type — one bounds check per delivery. Timers are events on the
/// network's Simulator. `final`, so a caller holding a Demux& (the clock
/// protocol) calls it directly, not through the vtable.
class Demux final : public Endpoint {
 public:
  Demux(SimNetwork& network, NodeId node);
  ~Demux() override;
  Demux(const Demux&) = delete;
  Demux& operator=(const Demux&) = delete;

  NodeId node() const { return node_; }

  /// Register the handler for a message type. Each type has one owner:
  /// returns false (and registers nothing) if the type is already taken,
  /// so two components can't silently clobber each other's protocol.
  [[nodiscard]] bool on(MsgType type, Handler handler) override;

  /// Drop the handler for a message type. Components that registered a
  /// handler capturing `this` must call this before they are destroyed —
  /// in-flight messages may still be delivered afterwards.
  void off(MsgType type) override;

  /// Send from this node.
  void send(NodeId to, MsgType type, Payload ints) override;

  TimerId schedule_in(util::Duration delay, std::function<void()> cb) override {
    return network_.sim().schedule_in(delay, std::move(cb));
  }
  bool cancel(TimerId id) override { return network_.sim().cancel(id); }
  util::TimePoint now() const override { return network_.sim().now(); }

 private:
  friend class SimNetwork;
  void dispatch(const Message& msg);

  SimNetwork& network_;
  NodeId node_;
  std::vector<Handler> handlers_;  // by type id
};

}  // namespace dmps::net
