// Packet cutting ("thinning") + hashing — the monitor's bandwidth-saving
// stage. Truncates each captured frame to a snap length before it crosses
// the loss-limited DMA path, and computes a hash of the *full* frame so
// cut captures can still be matched/deduplicated.
#pragma once

#include <cstdint>

#include "osnt/common/types.hpp"

namespace osnt::mon {

struct CutterConfig {
  /// Bytes to keep per frame; 0 = cutting disabled (full frames).
  std::size_t snap_len = 0;
};

struct CutResult {
  Bytes data;                 ///< snapped frame bytes
  std::uint32_t orig_len = 0; ///< original frame length (without FCS)
  std::uint32_t hash = 0;     ///< CRC32 over the full (pre-cut) frame
};

class PacketCutter {
 public:
  using Config = CutterConfig;

  explicit PacketCutter(Config cfg = Config()) noexcept : cfg_(cfg) {}

  [[nodiscard]] CutResult process(ByteSpan frame) const;

  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  void set_snap_len(std::size_t snap) noexcept { cfg_.snap_len = snap; }

 private:
  Config cfg_;
};

}  // namespace osnt::mon
