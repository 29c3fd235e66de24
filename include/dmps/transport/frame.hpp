#pragma once
// The UDP wire frame: a fixed header wrapping the int64-lane codec.
//
// Layout (all multi-byte fields little-endian):
//
//   offset  size  field
//   ------  ----  -----------------------------------------------
//        0     4  magic       0x53504D44 ("DMPS" in byte order)
//        4     1  version     kFrameVersion
//        5     1  kind        *stable* wire id of the message type
//        6     2  lane_count  number of int64 lanes that follow
//        8   8*n  lanes       payload, one little-endian int64 each
//
// A datagram carries one or more frames back to back, all for one peer,
// at most kDatagramMaxBytes in all; nothing else sits between or after
// them.
//
// The kind byte is a schema index, NOT an interned net::MsgType id —
// interned ids are assigned in first-use order and differ across
// processes. A WireSchema pins the index→type table both sides agree on
// (for fproto: MsgKind enum order, see fproto::wire_schema()).
//
// decode_frame() and check_datagram() classify every way untrusted bytes
// can be wrong (short, bad magic, foreign version, oversized or
// inconsistent lane count, oversized datagram) so the endpoint can count
// each drop class separately; they never throw or assert on hostile bytes.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/endpoint.hpp"

namespace dmps::transport {

inline constexpr std::uint32_t kFrameMagic = 0x53504D44u;  // "DMPS" LE
inline constexpr std::uint8_t kFrameVersion = 2;
inline constexpr std::size_t kFrameHeaderBytes = 8;
/// Sanity bound on lanes per frame. The largest fproto kind uses 8;
/// anything past this is garbage, not a bigger message.
inline constexpr std::size_t kFrameMaxLanes = 16;
inline constexpr std::size_t kFrameMaxBytes =
    kFrameHeaderBytes + kFrameMaxLanes * 8;
/// The largest datagram: the UDP payload one 1500-byte Ethernet MTU
/// carries unfragmented (1500 - 20 IPv4 - 8 UDP header bytes).
inline constexpr std::size_t kDatagramMaxBytes = 1472;

/// The stable index→interned-type table a UDP endpoint frames with. The
/// vector index IS the kind byte on the wire; both peers must construct
/// the same schema (same protocol, same order).
struct WireSchema {
  std::vector<net::MsgType> types;
};

enum class FrameError {
  kOk,
  kShort,         // fewer than kFrameHeaderBytes bytes left
  kBadMagic,
  kBadVersion,
  kBadLaneCount,  // over kFrameMaxLanes, or more lanes than bytes left
  kTooLong,       // datagram over kDatagramMaxBytes
};

struct Frame {
  std::uint8_t kind = 0;  // schema index; endpoint validates range
  std::size_t size = 0;   // bytes the frame takes, header included
  net::Payload ints;
};

/// Serialize one frame into `out` (capacity `cap` bytes). Returns the
/// encoded size, or 0 if it does not fit / has too many lanes.
std::size_t encode_frame(std::uint8_t kind, const net::Payload& ints,
                         std::uint8_t* out, std::size_t cap);

/// Parse the frame at the head of untrusted bytes `data[0..len)`. On kOk,
/// `out` holds the kind byte, the decoded lanes and the frame's size;
/// bytes past that size are neither read nor judged. On any error `out`
/// is unspecified.
FrameError decode_frame(const std::uint8_t* data, std::size_t len, Frame& out);

/// Check a whole untrusted datagram: one or more frames back to back that
/// tile `data[0..len)` exactly, at most kDatagramMaxBytes. Returns kOk or
/// the first framing error met walking it from the front.
FrameError check_datagram(const std::uint8_t* data, std::size_t len);

/// The receive side's datagram walker. A datagram with any framing error
/// is dropped whole: `on_frame` is never called and the error is returned.
/// Otherwise `on_frame(Frame&)` sees every frame in order (one Frame,
/// reused; the callee may move its lanes out) and kOk is returned.
template <typename OnFrame>
FrameError walk_datagram(const std::uint8_t* data, std::size_t len,
                         OnFrame&& on_frame) {
  const FrameError error = check_datagram(data, len);
  if (error != FrameError::kOk) return error;
  Frame frame;
  std::size_t offset = 0;
  while (offset < len &&
         decode_frame(data + offset, len - offset, frame) == FrameError::kOk) {
    offset += frame.size;
    on_frame(frame);
  }
  return FrameError::kOk;
}

}  // namespace dmps::transport
