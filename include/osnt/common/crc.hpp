// CRC32 (IEEE 802.3 polynomial) used for Ethernet FCS and packet hashing.
#pragma once

#include <cstdint>

#include "osnt/common/types.hpp"

namespace osnt {

/// Incremental CRC32 (reflected, poly 0xEDB88320). Initialise with
/// `Crc32{}`, feed bytes with update(), read with value().
class Crc32 {
 public:
  void update(ByteSpan data) noexcept;
  void update(std::uint8_t byte) noexcept;

  /// Finalised CRC (post-inverted). May be called repeatedly.
  [[nodiscard]] std::uint32_t value() const noexcept { return ~state_; }

  void reset() noexcept { state_ = 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot CRC32 of a buffer.
[[nodiscard]] std::uint32_t crc32(ByteSpan data) noexcept;

}  // namespace osnt
