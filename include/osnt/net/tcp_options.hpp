// TCP option parsing and construction: enough for realistic generated
// traffic (SYN with MSS/window-scale/SACK-permitted/timestamps) and for
// analyzing captured handshakes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "osnt/common/types.hpp"
#include "osnt/net/headers.hpp"

namespace osnt::net {

enum class TcpOptionKind : std::uint8_t {
  kEnd = 0,
  kNop = 1,
  kMss = 2,
  kWindowScale = 3,
  kSackPermitted = 4,
  kTimestamps = 8,
};

struct TcpOption {
  TcpOptionKind kind = TcpOptionKind::kNop;
  Bytes data;  ///< option payload (without kind/length bytes)

  friend bool operator==(const TcpOption&, const TcpOption&) = default;
};

/// Parse the options area of a TCP header (`options` = bytes between the
/// 20-byte fixed header and data_offset*4). NOP/END are consumed but not
/// returned. nullopt on malformed lengths.
[[nodiscard]] std::optional<std::vector<TcpOption>> parse_tcp_options(
    ByteSpan options) noexcept;

/// Serialize options (inserting kind/length) and pad with END/NOP to a
/// 4-byte multiple. Returns the encoded area ready to splice after the
/// fixed TCP header.
[[nodiscard]] Bytes encode_tcp_options(const std::vector<TcpOption>& options);

// Typed constructors / accessors for the common options.
[[nodiscard]] TcpOption tcp_option_mss(std::uint16_t mss);
[[nodiscard]] TcpOption tcp_option_window_scale(std::uint8_t shift);
[[nodiscard]] TcpOption tcp_option_sack_permitted();
[[nodiscard]] TcpOption tcp_option_timestamps(std::uint32_t tsval,
                                              std::uint32_t tsecr);

[[nodiscard]] std::optional<std::uint16_t> tcp_mss_of(
    const std::vector<TcpOption>& options) noexcept;
[[nodiscard]] std::optional<std::uint8_t> tcp_window_scale_of(
    const std::vector<TcpOption>& options) noexcept;
/// {tsval, tsecr} of the first timestamps option of length 10, read in
/// place from a raw options area (`options` as for parse_tcp_options,
/// under the same rules: nullopt when the area is malformed anywhere).
[[nodiscard]] std::optional<std::pair<std::uint32_t, std::uint32_t>>
tcp_timestamps_of(ByteSpan options) noexcept;

}  // namespace osnt::net
