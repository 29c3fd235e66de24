#ifdef __linux__

#include "transport/udp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace dmps::transport {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t addr_key(std::uint32_t ip_be, std::uint16_t port_be) {
  return (static_cast<std::uint64_t>(ip_be) << 16) | port_be;
}

}  // namespace

// ----------------------------------------------------------------- UdpLoop

UdpLoop::UdpLoop() : epoch_ns_(steady_ns()) {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw std::runtime_error("epoll_create1 failed");
}

UdpLoop::~UdpLoop() {
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

util::TimePoint UdpLoop::now() const {
  return util::TimePoint::from_nanos(steady_ns() - epoch_ns_);
}

bool UdpLoop::add_fd(int fd, std::function<void()> on_readable) {
  on_loop.assert_held();
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  fd_handlers_[fd] = std::move(on_readable);
  return true;
}

void UdpLoop::remove_fd(int fd) {
  on_loop.assert_held();
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  fd_handlers_.erase(fd);
}

void UdpLoop::poll(util::Duration max_wait) {
  on_loop.assert_held();
  // Turn entry: push anything buffered since the last turn (a join() sent
  // before run_while, a test's direct send) to the kernel before blocking,
  // so a coalesced datagram never waits out an epoll timeout.
  flush_endpoints();

  // Armed timers bound the wait to one wheel tick so a deadline is never
  // late by more than the tick resolution.
  std::int64_t wait_ms = max_wait.raw_nanos() / 1'000'000;
  if (wait_ms < 0) wait_ms = 0;
  constexpr std::int64_t kTickMs = TimerWheel::kTick.raw_nanos() / 1'000'000;
  if (!wheel_.empty() && kTickMs < wait_ms) wait_ms = kTickMs;

  epoll_event events[64];
  const int n = epoll_wait(epoll_fd_, events, 64, static_cast<int>(wait_ms));
  for (int i = 0; i < n; ++i) {
    const auto it = fd_handlers_.find(events[i].data.fd);
    if (it != fd_handlers_.end()) it->second();
  }
  wheel_.advance(now());
  // Turn exit: handler replies and timer-driven sends from this turn go out
  // as one sendmmsg per endpoint.
  flush_endpoints();
}

void UdpLoop::run_while(const std::function<bool()>& keep_going) {
  on_loop.assert_held();
  while (!stopped_ && keep_going()) poll();
}

void UdpLoop::attach(UdpEndpoint* endpoint) { endpoints_.push_back(endpoint); }

void UdpLoop::detach(UdpEndpoint* endpoint) {
  endpoints_.erase(std::remove(endpoints_.begin(), endpoints_.end(), endpoint),
                   endpoints_.end());
}

void UdpLoop::flush_endpoints() {
  for (UdpEndpoint* endpoint : endpoints_) endpoint->flush();
}

// ------------------------------------------------------------- UdpEndpoint

UdpEndpoint::UdpEndpoint(UdpLoop& loop, WireSchema schema, std::uint16_t port,
                         obs::WireInstruments* obs)
    : loop_(loop),
      schema_(std::move(schema)),
      wire_(obs != nullptr ? obs : &obs::WireInstruments::global()) {
  for (std::size_t i = 0; i < schema_.types.size(); ++i) {
    const std::size_t index = schema_.types[i].value();
    if (index >= wire_ids_.size()) wire_ids_.resize(index + 1, -1);
    wire_ids_[index] = static_cast<std::int16_t>(i);
  }

  fd_ = socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("udp socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd_);
    throw std::runtime_error("udp bind failed (port in use?)");
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    local_port_ = ntohs(addr.sin_port);
  }

  // Wire the batch arrays once; per-syscall work is only resetting the
  // fields the kernel overwrites (rx msg_namelen, tx iov_len).
  rx_slots_.resize(kRxBatch);
  rx_iovs_.resize(kRxBatch);
  rx_msgs_.resize(kRxBatch);
  for (std::size_t i = 0; i < kRxBatch; ++i) {
    rx_iovs_[i] = {};
    rx_iovs_[i].iov_base = rx_slots_[i].bytes;
    rx_iovs_[i].iov_len = sizeof(rx_slots_[i].bytes);
    rx_msgs_[i] = {};
    rx_msgs_[i].msg_hdr.msg_iov = &rx_iovs_[i];
    rx_msgs_[i].msg_hdr.msg_iovlen = 1;
    rx_msgs_[i].msg_hdr.msg_name = &rx_slots_[i].from;
    rx_msgs_[i].msg_hdr.msg_namelen = sizeof(rx_slots_[i].from);
  }
  tx_slots_.resize(kTxBatch);
  tx_iovs_.resize(kTxBatch);
  tx_msgs_.resize(kTxBatch);
  for (std::size_t i = 0; i < kTxBatch; ++i) {
    tx_iovs_[i] = {};
    tx_iovs_[i].iov_base = tx_slots_[i].bytes;
    tx_msgs_[i] = {};
    tx_msgs_[i].msg_hdr.msg_iov = &tx_iovs_[i];
    tx_msgs_[i].msg_hdr.msg_iovlen = 1;
    tx_msgs_[i].msg_hdr.msg_name = &tx_slots_[i].to;
    tx_msgs_[i].msg_hdr.msg_namelen = sizeof(tx_slots_[i].to);
  }

  // The readiness callback fires from poll(), i.e. on the loop thread by
  // construction — the assert states that for the analysis.
  if (!loop_.add_fd(fd_, [this] {
        loop_.on_loop.assert_held();
        drain_socket();
      })) {
    close(fd_);
    throw std::runtime_error("epoll add failed for udp socket");
  }
  loop_.on_loop.assert_held();
  loop_.attach(this);
}

UdpEndpoint::~UdpEndpoint() {
  loop_.on_loop.assert_held();
  flush();  // don't strand datagrams buffered this turn
  loop_.detach(this);
  loop_.remove_fd(fd_);
  close(fd_);
}

// dmps-lint: hot-begin(udp-peer-intern) — runs per datagram from
// drain_socket; the warm path is one hash lookup, no mutation.
net::NodeId UdpEndpoint::intern_peer(std::uint32_t ip_be, std::uint16_t port_be) {
  const std::uint64_t key = addr_key(ip_be, port_be);
  if (const std::uint32_t* const known = peer_ids_.find(key)) {
    return net::NodeId{*known};
  }
  const auto index = static_cast<std::uint32_t>(peers_.size());
  peers_.push_back(Peer{ip_be, port_be});
  // First datagram from an address mints its NodeId — once per peer, so
  // the insert is cold by construction.
  // dmps-lint: allow-next(hot-unordered-map)
  peer_ids_[key] = index;
  return net::NodeId{index};
}
// dmps-lint: hot-end

net::NodeId UdpEndpoint::add_peer(const std::string& ipv4, std::uint16_t port) {
  loop_.on_loop.assert_held();
  in_addr parsed{};
  if (inet_pton(AF_INET, ipv4.c_str(), &parsed) != 1) {
    throw std::runtime_error("bad peer address: " + ipv4);
  }
  return intern_peer(parsed.s_addr, htons(port));
}

bool UdpEndpoint::on(net::MsgType type, Handler handler) {
  loop_.on_loop.assert_held();
  const std::size_t index = type.value();
  if (index >= handlers_.size()) handlers_.resize(index + 1);
  if (handlers_[index]) return false;
  handlers_[index] = std::move(handler);
  return true;
}

void UdpEndpoint::off(net::MsgType type) {
  loop_.on_loop.assert_held();
  const std::size_t index = type.value();
  if (index < handlers_.size()) handlers_[index] = nullptr;
}

// dmps-lint: hot-begin(udp-tx) — per-frame send path plus the sendmmsg
// flush; encoding goes straight into the preallocated slot, no copies.
void UdpEndpoint::send(net::NodeId to, net::MsgType type, net::Payload ints) {
  loop_.on_loop.assert_held();
  const std::size_t index = type.value();
  if (index >= wire_ids_.size() || wire_ids_[index] < 0 || !to.valid() ||
      to.value() >= peers_.size() || ints.size() > kFrameMaxLanes) {
    wire_->udp_send_failures.add();  // not in the schema / unknown peer /
    return;                          // too many lanes for one frame
  }
  // The frame is "on the wire" from here: a rejecting send filter is the
  // wire eating it, indistinguishable from real loss to the caller. A
  // filtered frame never reaches a datagram, so it can't be flushed.
  wire_->udp_tx_frames.add();
  if (send_filter_ && !send_filter_(to, type)) return;

  // Join the peer's latest pending datagram if the frame fits, else open
  // the next slot. Never an earlier datagram: that would overtake frames
  // already sent to the peer.
  Peer& peer = peers_[to.value()];
  const std::size_t size = kFrameHeaderBytes + ints.size() * 8;
  if (peer.tx_slot == kNoTxSlot ||
      tx_iovs_[peer.tx_slot].iov_len + size > kDatagramMaxBytes) {
    if (tx_pending_ == kTxBatch) flush();  // buffer full: early flush
    TxSlot& slot = tx_slots_[tx_pending_];
    slot.to = {};
    slot.to.sin_family = AF_INET;
    slot.to.sin_addr.s_addr = peer.ip_be;
    slot.to.sin_port = peer.port_be;
    slot.peer = to.value();
    tx_iovs_[tx_pending_].iov_len = 0;
    peer.tx_slot = static_cast<std::uint32_t>(tx_pending_++);
  }
  std::size_t& len = tx_iovs_[peer.tx_slot].iov_len;
  len += encode_frame(static_cast<std::uint8_t>(wire_ids_[index]), ints,
                      tx_slots_[peer.tx_slot].bytes + len,
                      kDatagramMaxBytes - len);
}

void UdpEndpoint::flush() {
  loop_.on_loop.assert_held();
  std::size_t off = 0;
  while (off < tx_pending_) {
    const int sent = sendmmsg(fd_, &tx_msgs_[off],
                              static_cast<unsigned>(tx_pending_ - off), 0);
    if (sent > 0) {
      wire_->udp_tx_batch.record(sent);
      wire_->udp_tx_datagrams.add(sent);
      off += static_cast<std::size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    // The head datagram is unsendable (or the socket buffer is full — UDP
    // semantics: drop rather than block the loop). Count it, skip it, keep
    // going so one bad peer can't strand the rest of the batch.
    wire_->udp_send_failures.add();
    ++off;
  }
  for (std::size_t i = 0; i < tx_pending_; ++i) {
    peers_[tx_slots_[i].peer].tx_slot = kNoTxSlot;
  }
  tx_pending_ = 0;
}
// dmps-lint: hot-end

net::TimerId UdpEndpoint::schedule_in(util::Duration delay, std::function<void()> cb) {
  return loop_.wheel().schedule_at(loop_.now() + delay, std::move(cb));
}

bool UdpEndpoint::cancel(net::TimerId id) { return loop_.wheel().cancel(id); }

// dmps-lint: hot-begin(udp-rx) — the per-datagram receive path; decode,
// route and dispatch must stay allocation- and rehash-free.
void UdpEndpoint::drain_socket() {
  // Level-triggered epoll still drains the queue: one wakeup, every queued
  // datagram, kRxBatch of them per recvmmsg syscall — a request burst can't
  // starve the timer wheel behind per-poll single reads, and the syscall
  // cost amortizes across the burst.
  for (;;) {
    for (std::size_t i = 0; i < kRxBatch; ++i) {
      // The kernel shrank these to the actual source-address size last call.
      rx_msgs_[i].msg_hdr.msg_namelen = sizeof(rx_slots_[i].from);
    }
    const int n =
        recvmmsg(fd_, rx_msgs_.data(), static_cast<unsigned>(kRxBatch), 0,
                 nullptr);
    if (n <= 0) {
      // EAGAIN/EWOULDBLOCK: drained. EINTR or a transient socket error:
      // level-triggered epoll re-fires if anything is still queued.
      return;
    }
    wire_->udp_rx_batch.record(n);
    wire_->udp_rx_datagrams.add(n);
    for (int i = 0; i < n; ++i) {
      dispatch_datagram(rx_slots_[i].bytes, rx_msgs_[i].msg_len,
                        rx_slots_[i].from);
    }
    // Fewer than a full batch means the queue was empty when we asked;
    // anything that arrived since re-arms epoll.
    if (static_cast<std::size_t>(n) < kRxBatch) return;
  }
}

void UdpEndpoint::dispatch_datagram(const std::uint8_t* bytes, std::size_t len,
                                    const ::sockaddr_in& from) {
  net::Message msg;
  msg.from = net::NodeId::invalid();  // interned at the first dispatch
  msg.to = net::NodeId::invalid();  // "this endpoint"; handlers reply to from
  std::int64_t frames = 0;
  const FrameError error = walk_datagram(bytes, len, [&](Frame& f) {
    loop_.on_loop.assert_held();  // called inline, on this loop's thread
    ++frames;
    if (f.kind >= schema_.types.size()) {
      wire_->udp_drop_unknown_kind.add();
      return;
    }
    const net::MsgType type = schema_.types[f.kind];
    const std::size_t index = type.value();
    if (index >= handlers_.size() || !handlers_[index]) {
      wire_->udp_drop_unhandled.add();
      return;
    }
    if (!msg.from.valid()) {
      msg.from = intern_peer(from.sin_addr.s_addr, from.sin_port);
    }
    msg.type = type;
    msg.ints = std::move(f.ints);
    handlers_[index](msg);
  });
  switch (error) {
    case FrameError::kOk:
      wire_->udp_rx_frames.add(frames);
      break;
    case FrameError::kBadVersion:
      wire_->udp_drop_version.add();
      break;
    case FrameError::kShort:
    case FrameError::kBadMagic:
    case FrameError::kBadLaneCount:
    case FrameError::kTooLong:
      wire_->udp_drop_malformed.add();
      break;
  }
}
// dmps-lint: hot-end

}  // namespace dmps::transport

#endif  // __linux__
