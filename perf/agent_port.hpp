#pragma once
// Many fproto::FloorAgents on one UDP socket.
//
// A FloorAgent owns the client reply kinds on its transport::Endpoint, so
// one socket per agent is the natural shape — and at hundreds of agents
// the per-socket syscalls make the load generator, not the daemon, the
// bottleneck. An AgentPort is a per-agent Endpoint whose sends and timers
// go straight to a shared UdpEndpoint; a SocketRouter owns the shared
// socket's reply kinds and hands each datagram to the agent it names:
// JoinAck/LeaveAck carry the member in lane 0, every other reply carries a
// request id whose high 32 bits are the member (fproto request ids are
// member << 32 | seq; Suspend/Resume carry it in lane 1).

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fproto/codec.hpp"
#include "transport/udp.hpp"

namespace dmps::perf {

class AgentPort final : public transport::Endpoint {
 public:
  explicit AgentPort(transport::UdpEndpoint& socket) : socket_(socket) {}

  [[nodiscard]] bool on(net::MsgType type, Handler handler) override {
    const auto kind = fproto::kind_of(type);
    if (!kind) return false;
    Handler& slot = handlers_[static_cast<std::size_t>(*kind)];
    if (slot) return false;
    slot = std::move(handler);
    return true;
  }
  void off(net::MsgType type) override {
    if (const auto kind = fproto::kind_of(type)) {
      handlers_[static_cast<std::size_t>(*kind)] = nullptr;
    }
  }
  void send(net::NodeId to, net::MsgType type, net::Payload ints) override {
    socket_.send(to, type, std::move(ints));
  }
  transport::TimerId schedule_in(util::Duration delay,
                                 std::function<void()> cb) override {
    return socket_.schedule_in(delay, std::move(cb));
  }
  bool cancel(transport::TimerId id) override { return socket_.cancel(id); }
  util::TimePoint now() const override { return socket_.now(); }

  /// Hand a routed reply to the agent's handler for `kind`.
  void deliver(fproto::MsgKind kind, const net::Message& msg) const {
    const Handler& handler = handlers_[static_cast<std::size_t>(kind)];
    if (handler) handler(msg);
  }

 private:
  transport::UdpEndpoint& socket_;
  std::array<Handler, fproto::kMsgKindCount> handlers_;
};

/// The member a daemon reply is addressed to; nullopt for a malformed one.
inline std::optional<std::uint32_t> reply_member(fproto::MsgKind kind,
                                                 const net::Message& msg) {
  switch (kind) {
    case fproto::MsgKind::kJoinAck:
    case fproto::MsgKind::kLeaveAck:
      if (msg.ints.empty()) return std::nullopt;
      return static_cast<std::uint32_t>(msg.ints[0]);
    case fproto::MsgKind::kSuspend:
    case fproto::MsgKind::kResume:
      if (msg.ints.size() < 2) return std::nullopt;
      return static_cast<std::uint32_t>(static_cast<std::uint64_t>(msg.ints[1]) >> 32);
    default:
      if (msg.ints.empty()) return std::nullopt;
      return static_cast<std::uint32_t>(static_cast<std::uint64_t>(msg.ints[0]) >> 32);
  }
}

/// Owns the client reply kinds on one shared socket and routes each reply
/// to the AgentPort registered for its member.
class SocketRouter {
 public:
  /// Every reply kind a FloorAgent handles.
  static constexpr std::array<fproto::MsgKind, 8> kReplyKinds = {
      fproto::MsgKind::kJoinAck,    fproto::MsgKind::kLeaveAck,
      fproto::MsgKind::kGrant,      fproto::MsgKind::kDeny,
      fproto::MsgKind::kQueued,     fproto::MsgKind::kReleaseAck,
      fproto::MsgKind::kSuspend,    fproto::MsgKind::kResume};

  explicit SocketRouter(transport::UdpEndpoint& socket) : socket_(socket) {
    for (std::size_t i = 0; i < kReplyKinds.size(); ++i) {
      const fproto::MsgKind kind = kReplyKinds[i];
      if (!socket_.on(fproto::wire_type(kind),
                      [this, kind](const net::Message& msg) { route(kind, msg); })) {
        // Roll back only our own registrations: the destructor will not run.
        for (std::size_t j = 0; j < i; ++j) socket_.off(fproto::wire_type(kReplyKinds[j]));
        throw std::logic_error("reply kind already handled on this socket");
      }
    }
  }
  ~SocketRouter() {
    for (const fproto::MsgKind kind : kReplyKinds) {
      socket_.off(fproto::wire_type(kind));
    }
  }
  SocketRouter(const SocketRouter&) = delete;
  SocketRouter& operator=(const SocketRouter&) = delete;

  void attach(std::uint32_t member, const AgentPort* port) {
    if (member >= ports_.size()) ports_.resize(member + 1, nullptr);
    ports_[member] = port;
  }
  void detach(std::uint32_t member) {
    if (member < ports_.size()) ports_[member] = nullptr;
  }

  /// Replies handed to an agent, and replies whose member has no port here
  /// (malformed or foreign).
  std::uint64_t routed() const { return routed_; }
  std::uint64_t unrouted() const { return unrouted_; }

 private:
  void route(fproto::MsgKind kind, const net::Message& msg) {
    const auto member = reply_member(kind, msg);
    if (!member || *member >= ports_.size() || ports_[*member] == nullptr) {
      ++unrouted_;
      return;
    }
    ++routed_;
    ports_[*member]->deliver(kind, msg);
  }

  transport::UdpEndpoint& socket_;
  std::vector<const AgentPort*> ports_;  // by member id
  std::uint64_t routed_ = 0;
  std::uint64_t unrouted_ = 0;
};

}  // namespace dmps::perf
