#pragma once
// UdpEndpoint/UdpLoop: the net::Endpoint seam on real sockets (Linux).
//
// A UdpLoop owns an epoll instance, a steady-clock timeline (now() is
// nanoseconds since the loop was built) and a hashed TimerWheel. Any
// number of UdpEndpoints — plus arbitrary extra fds like a signalfd —
// register on one loop; one thread drives it via poll()/run_while().
// Loopback tests put an agent endpoint and a server endpoint on the same
// loop in one process; dmps_floord runs one endpoint and its signalfd on
// one loop.
//
// A UdpEndpoint is one bound, non-blocking UDP socket speaking the
// transport frame (transport/frame.hpp) over a WireSchema. Peers are
// interned into dense net::NodeIds exactly like SimNetwork nodes: the
// first datagram from an address mints its id (how the server learns
// client addresses), and add_peer() pre-interns a known address (how a
// client names its server). A received Message's `from` is therefore
// always a valid reply target, which is all fproto's learn-the-station
// logic needs.
//
// I/O is batch-first (DESIGN.md §9.3a). Receive drains up to kRxBatch
// datagrams per recvmmsg() syscall into arrays preallocated at
// construction; send() appends each outbound frame to the latest pending
// datagram for its peer while it fits in kDatagramMaxBytes, else opens a
// new one, and the pending datagrams go to the kernel in one sendmmsg() —
// when all kTxBatch slots are taken, or at the latest at the end of the
// current loop turn (UdpLoop::poll() flushes every endpoint after
// dispatching handlers and timers, and again before blocking, so a frame
// sent outside the loop never waits out an epoll timeout). A frame only
// ever joins its peer's latest datagram and datagrams leave in the order
// they were opened, so per-peer ordering is exactly send order. Batch sizes
// are recorded in the wire.udp.rx_batch / tx_batch histograms; the steady
// state allocates nothing.
//
// Untrusted bytes never crash the loop: a datagram whose frames do not tile
// it exactly is dropped whole, before any of its frames is dispatched, and
// counted once in its wire.udp.* drop class (obs::WireInstruments); an
// unknown-kind or unhandled frame in a datagram that passed is counted
// and skipped on its own.
//
// set_send_filter() is the deterministic loss hook for tests: a filter
// returning false "loses" the outbound frame after it is counted as
// transmitted — the UDP analogue of SimNetwork's lossy links.

#ifdef __linux__

#include <netinet/in.h>
#include <sys/socket.h>

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "clock/drift_clock.hpp"
#include "util/flat_map.hpp"
#include "util/sync.hpp"
#include "obs/registry.hpp"
#include "net/endpoint.hpp"
#include "transport/frame.hpp"
#include "transport/timer_wheel.hpp"

namespace dmps::transport {

/// perf/ subclasses the seam by these names; they go with its next change
/// (ROADMAP item 5).
using Endpoint = net::Endpoint;
using TimerId = net::TimerId;

class UdpEndpoint;

class UdpLoop {
 public:
  UdpLoop();
  ~UdpLoop();
  UdpLoop(const UdpLoop&) = delete;
  UdpLoop& operator=(const UdpLoop&) = delete;

  /// The single-threaded-loop contract as a checkable capability
  /// (DESIGN.md §10): every mutating entry point asserts this role, so the
  /// timer wheel, fd table and stop flag are unreachable without it —
  /// "one thread drives the loop" is a -Wthread-safety build break to
  /// violate, not a comment. The asserts are static and cost nothing at
  /// run time. Endpoints on this loop guard their own state with the same
  /// role.
  util::ThreadRole on_loop;

  /// Nanoseconds of steady time since this loop was constructed. The one
  /// member safe off-loop: it reads only the construction-time epoch
  /// (LoopClock hands it to arbitration as wall time).
  util::TimePoint now() const;

  /// Watch `fd` for readability; `on_readable` fires from poll(). False if
  /// the kernel refused (bad fd / already registered).
  bool add_fd(int fd, std::function<void()> on_readable);
  void remove_fd(int fd);

  /// One iteration: wait for readiness (bounded by `max_wait`, and by one
  /// timer tick whenever timers are armed), dispatch readable fds, then
  /// fire due timers.
  void poll(util::Duration max_wait = util::Duration::millis(10));

  /// poll() until stop() or `keep_going` says done.
  void run_while(const std::function<bool()>& keep_going);

  void stop() {
    on_loop.assert_held();
    stopped_ = true;
  }
  bool stopped() const {
    on_loop.assert_held();
    return stopped_;
  }

  TimerWheel& wheel() {
    on_loop.assert_held();
    return wheel_;
  }

 private:
  friend class UdpEndpoint;

  /// Endpoints register here at construction so poll() can flush their
  /// coalesced send buffers at the turn boundaries (see flush_endpoints).
  void attach(UdpEndpoint* endpoint) DMPS_REQUIRES(on_loop);
  void detach(UdpEndpoint* endpoint) DMPS_REQUIRES(on_loop);
  void flush_endpoints() DMPS_REQUIRES(on_loop);

  int epoll_fd_ = -1;      // set in the ctor, const after
  std::int64_t epoch_ns_ = 0;  // set in the ctor, const after
  TimerWheel wheel_ DMPS_GUARDED_BY(on_loop);
  std::unordered_map<int, std::function<void()>> fd_handlers_
      DMPS_GUARDED_BY(on_loop);
  std::vector<UdpEndpoint*> endpoints_ DMPS_GUARDED_BY(on_loop);
  bool stopped_ DMPS_GUARDED_BY(on_loop) = false;
};

/// The loop's timeline as a clk::Clock. Arbitration reads no clock, so in
/// a daemon this only fills ShardedFloorService's unused clock argument.
class LoopClock final : public clk::Clock {
 public:
  explicit LoopClock(const UdpLoop& loop) : loop_(loop) {}
  util::TimePoint now() const override { return loop_.now(); }

 private:
  const UdpLoop& loop_;
};

class UdpEndpoint final : public net::Endpoint {
 public:
  /// Datagrams moved per syscall, both directions. Receive drains up to
  /// kRxBatch datagrams per recvmmsg; send fills up to kTxBatch datagrams
  /// before a buffer-full sendmmsg (the loop flushes partial buffers at
  /// every turn boundary). 32 keeps the preallocated buffers at ~64 KiB
  /// rx + ~47 KiB tx per endpoint while covering the daemon's observed
  /// burst sizes.
  static constexpr std::size_t kRxBatch = 32;
  static constexpr std::size_t kTxBatch = 32;

  /// Bind 0.0.0.0:`port` (0 = any free port; read it back with
  /// local_port()). Throws std::runtime_error if the socket can't be
  /// created or bound. `obs` nullptr = the process-global pack.
  UdpEndpoint(UdpLoop& loop, WireSchema schema, std::uint16_t port,
              obs::WireInstruments* obs = nullptr);
  ~UdpEndpoint() override;

  std::uint16_t local_port() const { return local_port_; }

  /// Intern a known peer address (idempotent per address).
  net::NodeId add_peer(const std::string& ipv4, std::uint16_t port);

  /// Peers interned so far: add_peer() addresses and every new source.
  std::size_t peer_count() const {
    loop_.on_loop.assert_held();
    return peers_.size();
  }

  /// Push every pending outbound datagram to the kernel now (one or more
  /// sendmmsg calls). UdpLoop::poll() calls this at turn boundaries;
  /// callers sending outside the loop may force it to bound latency.
  void flush();

  /// Drop outbound frames the filter rejects — after counting them as
  /// transmitted, so retransmit arithmetic matches a real lossy wire. A
  /// rejected frame never enters a datagram.
  void set_send_filter(std::function<bool(net::NodeId, net::MsgType)> filter) {
    loop_.on_loop.assert_held();
    send_filter_ = std::move(filter);
  }

  // Endpoint seam.
  [[nodiscard]] bool on(net::MsgType type, Handler handler) override;
  void off(net::MsgType type) override;
  void send(net::NodeId to, net::MsgType type, net::Payload ints) override;
  net::TimerId schedule_in(util::Duration delay, std::function<void()> cb) override;
  bool cancel(net::TimerId id) override;
  util::TimePoint now() const override { return loop_.now(); }

 private:
  void drain_socket() DMPS_REQUIRES(loop_.on_loop);
  /// One received datagram through walk_datagram(): a framing error is
  /// counted once and drops it whole; otherwise each frame goes to its
  /// handler, or is counted as unknown-kind or unhandled and skipped.
  void dispatch_datagram(const std::uint8_t* bytes, std::size_t len,
                         const ::sockaddr_in& from)
      DMPS_REQUIRES(loop_.on_loop);
  net::NodeId intern_peer(std::uint32_t ip_be, std::uint16_t port_be)
      DMPS_REQUIRES(loop_.on_loop);

  // Endpoint state shares the loop's affinity role: handlers, the peer
  // table and the send filter are only ever touched by the thread driving
  // the loop, and each public entry point asserts it.
  UdpLoop& loop_;
  WireSchema schema_;
  // by interned MsgType value: the kind byte, or -1 = not in the schema
  std::vector<std::int16_t> wire_ids_;
  int fd_ = -1;
  std::uint16_t local_port_ = 0;

  static constexpr std::uint32_t kNoTxSlot = ~std::uint32_t{0};
  struct Peer {
    std::uint32_t ip_be = 0;    // network byte order
    std::uint16_t port_be = 0;  // network byte order
    // The pending tx slot this peer's next frame may join, or kNoTxSlot.
    std::uint32_t tx_slot = kNoTxSlot;
  };
  // NodeId value = index
  std::vector<Peer> peers_ DMPS_GUARDED_BY(loop_.on_loop);
  // addr key (ip << 16 | port, 48 bits: never FlatMap's empty key) -> index
  util::FlatMap<std::uint32_t> peer_ids_ DMPS_GUARDED_BY(loop_.on_loop);

  // by interned MsgType value
  std::vector<Handler> handlers_ DMPS_GUARDED_BY(loop_.on_loop);
  std::function<bool(net::NodeId, net::MsgType)> send_filter_
      DMPS_GUARDED_BY(loop_.on_loop);
  obs::WireInstruments* wire_;

  // --- Batch I/O state, all preallocated in the ctor (steady state is
  // alloc-free). rx: recvmmsg scatters into kRxBatch fixed slots; tx: send()
  // encodes each frame onto its peer's latest pending slot or the next free
  // one, and flush() hands the filled prefix to sendmmsg. The mmsghdr/iovec
  // arrays are wired to the slot storage once, at construction — per-call
  // work is only resetting msg_namelen (rx) and the iovec lengths, which
  // hold each tx datagram's length so far.
  struct RxSlot {
    // > kDatagramMaxBytes: a longer datagram arrives truncated but still
    // longer than any valid one, and is dropped as malformed
    std::uint8_t bytes[2048];
    ::sockaddr_in from;
  };
  struct TxSlot {
    std::uint8_t bytes[kDatagramMaxBytes];
    ::sockaddr_in to;
    std::uint32_t peer = 0;  // NodeId value of `to`
  };
  std::vector<RxSlot> rx_slots_ DMPS_GUARDED_BY(loop_.on_loop);
  std::vector<::mmsghdr> rx_msgs_ DMPS_GUARDED_BY(loop_.on_loop);
  std::vector<::iovec> rx_iovs_ DMPS_GUARDED_BY(loop_.on_loop);
  std::vector<TxSlot> tx_slots_ DMPS_GUARDED_BY(loop_.on_loop);
  std::vector<::mmsghdr> tx_msgs_ DMPS_GUARDED_BY(loop_.on_loop);
  std::vector<::iovec> tx_iovs_ DMPS_GUARDED_BY(loop_.on_loop);
  std::size_t tx_pending_ DMPS_GUARDED_BY(loop_.on_loop) = 0;
};

}  // namespace dmps::transport

#endif  // __linux__
