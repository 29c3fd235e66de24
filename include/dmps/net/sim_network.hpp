#pragma once
// Simulated best-effort network between named nodes.
//
// One SimNetwork carries every message in a scenario. Each link applies a
// LinkQuality model — fixed latency, uniform jitter, independent loss — so
// the clock-sync layer above sees realistic asymmetric delays. A Demux is a
// node's receive side: components (clock server, clock client, floor
// protocol endpoints) register per-message-type handlers on it.
//
// Message types are *interned*: a protocol interns its type names once
// (msg_type("clk.req") -> dense MsgType id) and every send/dispatch after
// that moves small ints only. Dispatch is a vector index per delivery — no
// per-delivery string hashing — which matters once the floor protocol
// multiplies delivery volume.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.hpp"
#include "util/duration.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
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

/// Per-link delay/loss model: delivery delay = latency + U(0, jitter),
/// independently per message and per direction; each message is dropped
/// with probability `loss`.
struct LinkQuality {
  util::Duration latency = util::Duration::millis(1);
  util::Duration jitter = util::Duration::zero();
  double loss = 0.0;
};

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
  std::size_t probe(std::uint64_t key) const;

  struct Node {
    std::string name;
    Demux* demux = nullptr;
  };
  struct LinkSlot {
    std::uint64_t key;  // from << 32 | to; kNoLink when empty
    LinkQuality quality;
  };

  sim::Simulator& sim_;
  sim::Simulator::TargetId delivery_;  // this network, registered with sim_
  util::Rng rng_;
  LinkQuality default_link_;
  std::vector<Node> nodes_;
  // Link overrides: open addressing with linear probing, a power-of-two
  // size and at most half full, so a probe always ends at an empty slot.
  std::vector<LinkSlot> links_;
  std::size_t link_count_ = 0;
  // In-flight messages wait here; a delivery event carries only the slot.
  std::vector<Message> parked_;
  std::vector<std::uint32_t> parked_free_;
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t delivered_ = 0;
};

/// A node's receive-side dispatcher. Handlers are a flat vector indexed by
/// the interned Message::type — one bounds check per delivery.
class Demux {
 public:
  Demux(SimNetwork& network, NodeId node);
  ~Demux();
  Demux(const Demux&) = delete;
  Demux& operator=(const Demux&) = delete;

  NodeId node() const { return node_; }
  SimNetwork& network() { return network_; }
  sim::Simulator& sim() { return network_.sim(); }

  /// Register the handler for a message type. Each type has one owner:
  /// returns false (and registers nothing) if the type is already taken,
  /// so two components can't silently clobber each other's protocol.
  [[nodiscard]] bool on(MsgType type, std::function<void(const Message&)> handler);

  /// Drop the handler for a message type. Components that registered a
  /// handler capturing `this` must call this before they are destroyed —
  /// in-flight messages may still be delivered afterwards.
  void off(MsgType type);

  /// Convenience: send from this node.
  void send(NodeId to, MsgType type, Payload ints);

 private:
  friend class SimNetwork;
  void dispatch(const Message& msg);

  SimNetwork& network_;
  NodeId node_;
  std::vector<std::function<void(const Message&)>> handlers_;  // by type id
};

}  // namespace dmps::net
