// Basic shared types and byte-order helpers used across the OSNT library.
#pragma once

#include <cstdint>
#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

namespace osnt {

using ByteSpan = std::span<const std::uint8_t>;
using MutByteSpan = std::span<std::uint8_t>;
using Bytes = std::vector<std::uint8_t>;

/// A vector holding a copy of `bytes`.
[[nodiscard]] inline Bytes to_bytes(ByteSpan bytes) {
  return {bytes.begin(), bytes.end()};
}

/// Read a big-endian (network order) integer from a raw byte pointer.
[[nodiscard]] constexpr std::uint16_t load_be16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>((std::uint16_t{p[0]} << 8) | p[1]);
}
[[nodiscard]] constexpr std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}
[[nodiscard]] constexpr std::uint64_t load_be64(const std::uint8_t* p) noexcept {
  return (std::uint64_t{load_be32(p)} << 32) | load_be32(p + 4);
}

constexpr void store_be16(std::uint8_t* p, std::uint16_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}
constexpr void store_be32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}
constexpr void store_be64(std::uint8_t* p, std::uint64_t v) noexcept {
  store_be32(p, static_cast<std::uint32_t>(v >> 32));
  store_be32(p + 4, static_cast<std::uint32_t>(v));
}

/// Little-endian loads/stores (PCAP file headers are host/LE on disk).
[[nodiscard]] constexpr std::uint16_t load_le16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>(p[0] | (std::uint16_t{p[1]} << 8));
}
[[nodiscard]] constexpr std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}
constexpr void store_le16(std::uint8_t* p, std::uint16_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}
constexpr void store_le32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

}  // namespace osnt
