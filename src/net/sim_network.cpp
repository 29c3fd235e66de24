#include "net/sim_network.hpp"

#include <cassert>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace dmps::net {

namespace {
std::uint64_t pair_key(NodeId from, NodeId to) {
  return (static_cast<std::uint64_t>(from.value()) << 32) | to.value();
}

// Process-wide intern table. The library is single-threaded (everything
// runs on one simulated timeline), so plain statics suffice.
struct TypeTable {
  std::unordered_map<std::string, MsgType::value_type> by_name;
  std::vector<std::string> names;
};

TypeTable& type_table() {
  static TypeTable table;
  return table;
}
}  // namespace

MsgType msg_type(std::string_view name) {
  TypeTable& table = type_table();
  const auto it = table.by_name.find(std::string(name));
  if (it != table.by_name.end()) return MsgType(it->second);
  const auto id = static_cast<MsgType::value_type>(table.names.size());
  table.names.emplace_back(name);
  table.by_name.emplace(table.names.back(), id);
  return MsgType(id);
}

const std::string& msg_type_name(MsgType type) {
  return type_table().names.at(type.value());
}

SimNetwork::SimNetwork(sim::Simulator& sim, std::uint64_t seed, LinkQuality default_link)
    : sim_(sim),
      delivery_(sim.add_target(*this)),
      rng_(seed),
      default_link_(default_link) {}

NodeId SimNetwork::add_node(std::string name) {
  nodes_.push_back(Node{std::move(name), nullptr});
  return NodeId(static_cast<NodeId::value_type>(nodes_.size() - 1));
}

const std::string& SimNetwork::node_name(NodeId id) const {
  return nodes_.at(id.value()).name;
}

void SimNetwork::set_link(NodeId from, NodeId to, LinkQuality quality) {
  if (from.value() >= nodes_.size() || to.value() >= nodes_.size()) {
    throw std::out_of_range("SimNetwork::set_link: unknown node");
  }
  links_[pair_key(from, to)] = quality;
}

// dmps-lint: hot-begin(sim-deliver) — per send: link lookup, park, post
const LinkQuality& SimNetwork::link(NodeId from, NodeId to) const {
  const LinkQuality* quality = links_.find(pair_key(from, to));
  return quality != nullptr ? *quality : default_link_;
}

void SimNetwork::send(Message msg) {
  assert(msg.from.value() < nodes_.size() && msg.to.value() < nodes_.size());
  ++sent_;
  const LinkQuality& q = link(msg.from, msg.to);
  if (q.loss > 0 && rng_.chance(q.loss)) {
    ++dropped_;
    return;
  }
  util::Duration delay = q.latency;
  if (q.jitter > util::Duration::zero()) {
    delay += util::Duration::from_seconds(rng_.uniform() * q.jitter.to_seconds());
  }
  std::uint32_t slot = 0;
  if (parked_free_.empty()) {
    slot = static_cast<std::uint32_t>(parked_.size());
    parked_.push_back(std::move(msg));
  } else {
    slot = parked_free_.back();
    parked_free_.pop_back();
    parked_[slot] = std::move(msg);
  }
  sim_.post_in(delay, delivery_, slot);
}

void SimNetwork::fire(std::uint32_t slot) { deliver_parked(slot); }

void SimNetwork::deliver_parked(std::uint32_t slot) {
  // Move out first: a handler may send, which can reuse the slot or grow
  // the pool.
  const Message msg = std::move(parked_[slot]);
  parked_free_.push_back(slot);
  Demux* demux = nodes_.at(msg.to.value()).demux;
  if (demux == nullptr) return;  // nobody listening: silently dropped
  ++delivered_;
  demux->dispatch(msg);
}
// dmps-lint: hot-end

void SimNetwork::attach(NodeId node, Demux* demux) {
  nodes_.at(node.value()).demux = demux;
}

void SimNetwork::detach(NodeId node, Demux* demux) {
  Node& n = nodes_.at(node.value());
  if (n.demux == demux) n.demux = nullptr;
}

Demux::Demux(SimNetwork& network, NodeId node) : network_(network), node_(node) {
  network_.attach(node_, this);
}

Demux::~Demux() { network_.detach(node_, this); }

bool Demux::on(MsgType type, Handler handler) {
  if (type.value() >= handlers_.size()) handlers_.resize(type.value() + 1);
  if (handlers_[type.value()]) return false;
  handlers_[type.value()] = std::move(handler);
  return true;
}

void Demux::off(MsgType type) {
  if (type.value() < handlers_.size()) handlers_[type.value()] = nullptr;
}

void Demux::send(NodeId to, MsgType type, Payload ints) {
  network_.send(Message{node_, to, type, std::move(ints)});
}

void Demux::dispatch(const Message& msg) {
  if (msg.type.value() < handlers_.size() && handlers_[msg.type.value()]) {
    handlers_[msg.type.value()](msg);
  }
}

}  // namespace dmps::net
