// OpenFlow 1.0 ofp_match: the 40-byte wildcard match structure, plus the
// cover/overlap algebra the flow table needs for ADD/MODIFY/DELETE
// semantics.
#pragma once

#include <cstdint>
#include <optional>

#include "osnt/common/types.hpp"
#include "osnt/net/flow.hpp"
#include "osnt/net/headers.hpp"
#include "osnt/net/parser.hpp"

namespace osnt::openflow {

/// ofp_flow_wildcards bits (OF 1.0 §5.2.3).
namespace wc {
inline constexpr std::uint32_t kInPort = 1u << 0;
inline constexpr std::uint32_t kDlVlan = 1u << 1;
inline constexpr std::uint32_t kDlSrc = 1u << 2;
inline constexpr std::uint32_t kDlDst = 1u << 3;
inline constexpr std::uint32_t kDlType = 1u << 4;
inline constexpr std::uint32_t kNwProto = 1u << 5;
inline constexpr std::uint32_t kTpSrc = 1u << 6;
inline constexpr std::uint32_t kTpDst = 1u << 7;
inline constexpr std::uint32_t kNwSrcShift = 8;   ///< 6-bit prefix field
inline constexpr std::uint32_t kNwSrcMask = 0x3Fu << kNwSrcShift;
inline constexpr std::uint32_t kNwDstShift = 14;
inline constexpr std::uint32_t kNwDstMask = 0x3Fu << kNwDstShift;
inline constexpr std::uint32_t kDlVlanPcp = 1u << 20;
inline constexpr std::uint32_t kNwTos = 1u << 21;
inline constexpr std::uint32_t kAll = 0x3FFFFFu;
}  // namespace wc

struct OfMatch {
  static constexpr std::size_t kWireSize = 40;

  std::uint32_t wildcards = wc::kAll;
  std::uint16_t in_port = 0;
  net::MacAddr dl_src;
  net::MacAddr dl_dst;
  std::uint16_t dl_vlan = 0xFFFF;  ///< OFP_VLAN_NONE
  std::uint8_t dl_vlan_pcp = 0;
  std::uint16_t dl_type = 0;
  std::uint8_t nw_tos = 0;
  std::uint8_t nw_proto = 0;
  std::uint32_t nw_src = 0;
  std::uint32_t nw_dst = 0;
  std::uint16_t tp_src = 0;
  std::uint16_t tp_dst = 0;

  friend bool operator==(const OfMatch&, const OfMatch&) = default;

  /// nw_src prefix wildcard bits (0 = exact /32, >=32 = fully wild).
  [[nodiscard]] std::uint32_t nw_src_wild_bits() const noexcept {
    return (wildcards & wc::kNwSrcMask) >> wc::kNwSrcShift;
  }
  [[nodiscard]] std::uint32_t nw_dst_wild_bits() const noexcept {
    return (wildcards & wc::kNwDstMask) >> wc::kNwDstShift;
  }
  void set_nw_src_prefix(std::uint32_t addr, std::uint32_t prefix_len) noexcept;
  void set_nw_dst_prefix(std::uint32_t addr, std::uint32_t prefix_len) noexcept;

  /// A fully-wildcarded match.
  [[nodiscard]] static OfMatch any() noexcept { return OfMatch{}; }

  /// Extract the concrete (no-wildcard) match of a packet as seen on
  /// `in_port` — what the switch datapath computes per packet.
  [[nodiscard]] static OfMatch from_packet(const net::ParsedPacket& p,
                                           std::uint16_t in_port) noexcept;

  /// Exact-match-flow convenience: exact on the 5-tuple + dl_type,
  /// wildcard everything else.
  [[nodiscard]] static OfMatch exact_5tuple(std::uint32_t nw_src,
                                            std::uint32_t nw_dst,
                                            std::uint8_t nw_proto,
                                            std::uint16_t tp_src,
                                            std::uint16_t tp_dst) noexcept;
  [[nodiscard]] static OfMatch exact_5tuple(const net::FiveTuple& f) noexcept {
    return exact_5tuple(f.src_ip.v, f.dst_ip.v, f.protocol, f.src_port,
                        f.dst_port);
  }

  /// Does this (possibly wildcarded) match cover the concrete match of a
  /// packet?
  [[nodiscard]] bool matches_packet(const OfMatch& concrete) const noexcept;

  /// Rule-versus-rule: true when every packet matching `other` also
  /// matches `this` (OF 1.0 non-strict DELETE/MODIFY semantics).
  [[nodiscard]] bool covers(const OfMatch& other) const noexcept;

  // --- wire format ---
  void write(MutByteSpan out) const noexcept;  ///< out.size() >= kWireSize
  [[nodiscard]] static std::optional<OfMatch> read(ByteSpan in) noexcept;
};

}  // namespace osnt::openflow
