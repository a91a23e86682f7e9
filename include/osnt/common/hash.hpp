// Packet hashing primitives modelled on the OSNT monitor's hardware hash
// block: used for packet thinning/sampling and for flow dispatch.
#pragma once

#include <cstdint>

#include "osnt/common/types.hpp"

namespace osnt {

/// FNV-1a 64-bit hash.
[[nodiscard]] std::uint64_t fnv1a64(ByteSpan data) noexcept;

/// 64-bit mix function (splitmix64 finaliser); good for hashing small keys.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace osnt
