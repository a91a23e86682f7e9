// The one frame shape the closed loop sends: Ethernet + IPv4 + TCP with
// the timestamps option, followed by a zero payload. Data segments and
// ACKs differ only in field values, so both are written here in one
// allocation, the way OSNT's generator rewrites a few fields of a fixed
// template instead of crafting every frame layer by layer. A test pins
// the output byte for byte against net::PacketBuilder.
#pragma once

#include <cstddef>
#include <cstdint>

#include "osnt/common/time.hpp"
#include "osnt/net/headers.hpp"
#include "osnt/net/packet.hpp"

namespace osnt::tcp {

/// Header bytes in front of the payload: Ethernet 14 + IPv4 20 + TCP 20
/// + the 10-byte timestamps option padded to 12.
inline constexpr std::size_t kSegmentHeaderLen = 66;

/// Largest payload whose frame still fits kEthMaxFrame: 1518 − 4 − 66.
inline constexpr std::uint32_t kMaxMss = static_cast<std::uint32_t>(
    net::kEthMaxFrame - net::kEthFcsLen - kSegmentHeaderLen);

/// The fields that vary between closed-loop frames.
struct SegmentFields {
  net::MacAddr src_mac;
  net::MacAddr dst_mac;
  net::Ipv4Addr src_ip;
  net::Ipv4Addr dst_ip;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = net::TcpFlags::kAck;
  std::uint8_t dscp = 0;
  std::uint32_t tsval = 0;
  std::uint32_t tsecr = 0;
};

/// Write the frame into one buffer of exactly kSegmentHeaderLen + `len`
/// bytes, with valid IPv4 and TCP checksums. The payload is `len` zero
/// bytes, which add nothing to the TCP checksum, so only the
/// pseudo-header and the 32 TCP header bytes are summed.
[[nodiscard]] net::Packet write_segment(const SegmentFields& f,
                                        std::uint32_t len);

/// Timestamps-option clock: nanoseconds of sim time, coarse enough to
/// fit the 32-bit field for seconds-long sims (wrap-aware subtraction
/// handles longer), fine enough to resolve microsecond RTTs.
[[nodiscard]] constexpr std::uint32_t tsval_at(Picos now) noexcept {
  return static_cast<std::uint32_t>(now / kPicosPerNano);
}

}  // namespace osnt::tcp
