#include "transport/frame.hpp"

namespace dmps::transport {

namespace {

void put_u16(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_i64(std::uint8_t* out, std::int64_t v) {
  auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(u >> (8 * i));
}

std::uint16_t get_u16(const std::uint8_t* in) {
  return static_cast<std::uint16_t>(in[0] | (in[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

std::int64_t get_i64(const std::uint8_t* in) {
  std::uint64_t u = 0;
  for (int i = 0; i < 8; ++i) u |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return static_cast<std::int64_t>(u);
}

/// The header checks shared by decode_frame and check_datagram; on kOk,
/// `lanes` is the declared lane count, and the whole frame is present.
FrameError parse_header(const std::uint8_t* data, std::size_t len,
                        std::uint16_t& lanes) {
  if (len < kFrameHeaderBytes) return FrameError::kShort;
  if (get_u32(data) != kFrameMagic) return FrameError::kBadMagic;
  if (data[4] != kFrameVersion) return FrameError::kBadVersion;
  lanes = get_u16(data + 6);
  // A declared body longer than the bytes present is truncated, whatever
  // follows: the frame cannot be read, and no later boundary can be found.
  if (lanes > kFrameMaxLanes ||
      len - kFrameHeaderBytes < lanes * std::size_t{8}) {
    return FrameError::kBadLaneCount;
  }
  return FrameError::kOk;
}

}  // namespace

std::size_t encode_frame(std::uint8_t kind, const net::Payload& ints,
                         std::uint8_t* out, std::size_t cap) {
  const std::size_t need = kFrameHeaderBytes + ints.size() * 8;
  if (ints.size() > kFrameMaxLanes || cap < need) return 0;
  put_u32(out, kFrameMagic);
  out[4] = kFrameVersion;
  out[5] = kind;
  put_u16(out + 6, static_cast<std::uint16_t>(ints.size()));
  for (std::size_t i = 0; i < ints.size(); ++i) {
    put_i64(out + kFrameHeaderBytes + i * 8, ints[i]);
  }
  return need;
}

FrameError decode_frame(const std::uint8_t* data, std::size_t len, Frame& out) {
  std::uint16_t lanes = 0;
  const FrameError error = parse_header(data, len, lanes);
  if (error != FrameError::kOk) return error;
  out.kind = data[5];
  out.size = kFrameHeaderBytes + lanes * std::size_t{8};
  out.ints.clear();
  for (std::uint16_t i = 0; i < lanes; ++i) {
    out.ints.push_back(get_i64(data + kFrameHeaderBytes + i * std::size_t{8}));
  }
  return FrameError::kOk;
}

FrameError check_datagram(const std::uint8_t* data, std::size_t len) {
  if (len > kDatagramMaxBytes) return FrameError::kTooLong;
  std::size_t offset = 0;
  do {
    std::uint16_t lanes = 0;
    const FrameError error = parse_header(data + offset, len - offset, lanes);
    if (error != FrameError::kOk) return error;
    offset += kFrameHeaderBytes + lanes * std::size_t{8};
  } while (offset < len);
  return FrameError::kOk;
}

}  // namespace dmps::transport
