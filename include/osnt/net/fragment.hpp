// IPv4 fragmentation and reassembly: generators use it to produce
// fragmented workloads (a classic DUT stressor — TCAMs can't match L4
// ports on non-first fragments), and capture analysis uses reassembly to
// recover the original datagrams.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "osnt/common/time.hpp"
#include "osnt/net/packet.hpp"
#include "osnt/net/parser.hpp"

namespace osnt::net {

/// Split an IPv4 frame so no fragment's frame exceeds `mtu` bytes of L3
/// datagram (header + payload). Returns {packet} unchanged when it fits.
/// Each fragment is a complete Ethernet frame with correct IP lengths,
/// flags/offsets and checksums. Throws std::invalid_argument on non-IPv4
/// input, DF-marked packets that don't fit, or an MTU too small to make
/// progress (< header + 8).
[[nodiscard]] std::vector<Packet> fragment_ipv4(const Packet& packet,
                                                std::size_t mtu);

/// Reassembles fragment streams back into full datagrams. Fragments may
/// arrive in any order; completed datagrams are returned from add().
struct ReassemblerConfig {
  std::size_t max_pending = 1024;  ///< concurrent partial datagrams
};

class Ipv4Reassembler {
 public:
  using Config = ReassemblerConfig;

  explicit Ipv4Reassembler(Config cfg = Config()) : cfg_(cfg) {}

  /// Feed one frame at time `now`. Unfragmented IPv4 frames come straight
  /// back; a fragment that completes its datagram returns the reassembled
  /// frame; otherwise nullopt.
  [[nodiscard]] std::optional<Packet> add(const Packet& frame, Picos now);

  /// Drop partial datagrams older than 30 s; returns how many.
  std::size_t expire(Picos now);

  [[nodiscard]] std::size_t pending() const noexcept { return pending_.size(); }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t dropped_overflow() const noexcept {
    return dropped_overflow_;
  }

 private:
  struct Key {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint16_t id = 0;
    std::uint8_t proto = 0;
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  struct Partial {
    // offset (bytes) → L3 payload chunk
    std::map<std::uint16_t, Bytes> chunks;
    std::optional<std::size_t> total_payload;  ///< known once last frag seen
    Bytes first_frame_headers;  ///< Ethernet + IP header of offset-0 frag
    Picos first_seen = 0;
  };

  Config cfg_;
  std::map<Key, Partial> pending_;
  std::uint64_t completed_ = 0;
  std::uint64_t dropped_overflow_ = 0;
};

}  // namespace osnt::net
