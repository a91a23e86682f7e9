// Packet: the value type that flows through every pipeline. Carries the
// frame bytes (destination MAC through payload, *excluding* the 4-byte FCS,
// which the MAC models append/strip) plus simulation metadata.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "osnt/common/time.hpp"
#include "osnt/common/types.hpp"

namespace osnt::net {

/// Ethernet framing constants (10GBASE-R).
inline constexpr std::size_t kEthHeaderLen = 14;
inline constexpr std::size_t kEthFcsLen = 4;
inline constexpr std::size_t kEthMinFrame = 64;    ///< incl. FCS
inline constexpr std::size_t kEthMaxFrame = 1518;  ///< incl. FCS, untagged
inline constexpr std::size_t kEthPreambleLen = 8;  ///< preamble + SFD
inline constexpr std::size_t kEthIfgLen = 12;      ///< inter-frame gap
/// Per-frame overhead on the wire beyond the frame itself.
inline constexpr std::size_t kEthPerFrameOverhead = kEthPreambleLen + kEthIfgLen;

struct Packet {
  Bytes data;  ///< frame bytes without FCS

  // --- simulation metadata (ground truth; not visible to device logic) ---
  std::uint64_t id = 0;           ///< unique per generated packet
  std::uint32_t ingress_port = 0; ///< port index on the receiving device
  /// When the first bit left the source MAC; -1 until a source stamps it
  /// (a frame may leave at sim time 0).
  Picos tx_truth = -1;
  Picos rx_truth = 0;             ///< when the last bit arrived at the sink MAC
  bool fcs_bad = false;           ///< corrupted in flight (FCS mismatch)

  Packet() = default;
  explicit Packet(Bytes bytes) : data(std::move(bytes)) {}

  [[nodiscard]] std::size_t size() const noexcept { return data.size(); }
  [[nodiscard]] bool empty() const noexcept { return data.empty(); }

  /// Frame length on the wire including FCS.
  [[nodiscard]] std::size_t wire_len() const noexcept {
    return data.size() + kEthFcsLen;
  }

  /// Bytes occupied on the medium including preamble/SFD and minimum IFG.
  [[nodiscard]] std::size_t line_len() const noexcept {
    return wire_len() + kEthPerFrameOverhead;
  }

  [[nodiscard]] ByteSpan bytes() const noexcept { return {data.data(), data.size()}; }
  [[nodiscard]] MutByteSpan mut_bytes() noexcept { return {data.data(), data.size()}; }
};

/// One-line human-readable summary of a frame (for CLI tools/examples).
[[nodiscard]] std::string describe(const Packet& pkt);

/// Time for `bytes` to serialize at `gbps` (payload bytes only, no framing).
[[nodiscard]] constexpr Picos serialization_time(std::size_t bytes,
                                                 double gbps) noexcept {
  // bits / (Gb/s) = ns; work in picoseconds to stay integral at 10G.
  return static_cast<Picos>(static_cast<double>(bytes) * 8.0 * 1000.0 / gbps);
}

/// Theoretical max frames/sec at `gbps` for a given wire frame size.
[[nodiscard]] constexpr double max_frame_rate(std::size_t frame_len_with_fcs,
                                              double gbps) noexcept {
  const double bits_per_frame =
      static_cast<double>(frame_len_with_fcs + kEthPerFrameOverhead) * 8.0;
  return gbps * 1e9 / bits_per_frame;
}

}  // namespace osnt::net
