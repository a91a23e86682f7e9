// Synthetic traffic from a packet template: N concurrent UDP flows with
// configurable addressing, a size distribution, and reserved space for the
// embedded TX timestamp.
#pragma once

#include <cstdint>
#include <memory>

#include "osnt/common/random.hpp"
#include "osnt/gen/models.hpp"
#include "osnt/gen/source.hpp"
#include "osnt/net/flow.hpp"
#include "osnt/net/headers.hpp"

namespace osnt::gen {

struct TemplateConfig {
  net::MacAddr src_mac = net::MacAddr::from_index(1);
  net::MacAddr dst_mac = net::MacAddr::from_index(2);
  net::Ipv4Addr src_ip = net::Ipv4Addr::of(10, 0, 0, 1);
  net::Ipv4Addr dst_ip = net::Ipv4Addr::of(10, 0, 1, 1);
  std::uint16_t src_port = 1024;
  std::uint16_t dst_port = 5001;
  std::uint16_t vlan_id = 0;  ///< 0 = untagged

  /// Flows rotate round-robin; flow i sends from src_port + i, so at most
  /// max_flows() of them fit.
  std::uint32_t flow_count = 1;
  /// Also send flow i to dst_ip + i.
  bool vary_dst_ip = false;

  std::uint64_t count = 0;  ///< frames to produce; 0 = unbounded
  std::uint64_t seed = 1;

  /// Largest flow_count whose last source port is still a valid port.
  [[nodiscard]] constexpr std::uint32_t max_flows() const noexcept {
    return 65536u - src_port;
  }

  /// Flow i's 5-tuple, as TemplateSource writes it.
  [[nodiscard]] net::FiveTuple flow(std::uint32_t i) const noexcept {
    return {src_ip, net::Ipv4Addr{dst_ip.v + (vary_dst_ip ? i : 0u)},
            static_cast<std::uint16_t>(src_port + i), dst_port,
            net::ipproto::kUdp};
  }
};

/// Builds the Ethernet [+ VLAN] + IPv4 + UDP header once; each frame is
/// that header over a zero payload, with only the per-frame fields (source
/// port, destination IP, lengths, checksums) rewritten.
class TemplateSource final : public PacketSource {
 public:
  /// `size_model` must not be null, and `cfg.flow_count` must be in
  /// [1, cfg.max_flows()]; throws std::invalid_argument otherwise.
  TemplateSource(TemplateConfig cfg, std::unique_ptr<SizeModel> size_model);

  [[nodiscard]] std::optional<TimedPacket> next() override;
  void rewind() override { produced_ = 0; }

  [[nodiscard]] std::uint64_t produced() const noexcept { return produced_; }

 private:
  TemplateConfig cfg_;
  std::unique_ptr<SizeModel> size_;
  Rng rng_;
  std::uint64_t produced_ = 0;
  Bytes header_;  ///< Ethernet through UDP, checksum fields zero
  std::size_t ip_off_ = 0;
};

}  // namespace osnt::gen
