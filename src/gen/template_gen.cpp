#include "osnt/gen/template_gen.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "osnt/net/builder.hpp"
#include "osnt/net/checksum.hpp"

namespace osnt::gen {
namespace {

constexpr std::size_t kIpLen = net::Ipv4Header::kMinSize;

}  // namespace

TemplateSource::TemplateSource(TemplateConfig cfg,
                               std::unique_ptr<SizeModel> size_model)
    : cfg_(cfg), size_(std::move(size_model)), rng_(cfg.seed) {
  if (!size_) throw std::invalid_argument("TemplateSource: null size model");
  if (cfg_.flow_count == 0 || cfg_.flow_count > cfg_.max_flows()) {
    throw std::invalid_argument(
        "TemplateSource: flow_count must be in [1, " +
        std::to_string(cfg_.max_flows()) + "], got " +
        std::to_string(cfg_.flow_count));
  }
  net::PacketBuilder b;
  b.eth(cfg_.src_mac, cfg_.dst_mac);
  if (cfg_.vlan_id != 0) b.vlan(cfg_.vlan_id);
  // dst_port stays fixed across flows so one wildcard rule can select the
  // whole probe stream.
  b.ipv4(cfg_.src_ip, cfg_.dst_ip).udp(cfg_.src_port, cfg_.dst_port);
  ip_off_ = net::kEthHeaderLen + (cfg_.vlan_id != 0 ? net::VlanTag::kSize : 0);
  header_ = to_bytes(
      b.build().bytes().first(ip_off_ + kIpLen + net::UdpHeader::kSize));
  // next() sums each header with its checksum field still zero.
  store_be16(header_.data() + ip_off_ + 10, 0);
  store_be16(header_.data() + ip_off_ + kIpLen + 6, 0);
}

std::optional<TimedPacket> TemplateSource::next() {
  if (cfg_.count != 0 && produced_ >= cfg_.count) return std::nullopt;
  const net::FiveTuple flow =
      cfg_.flow(static_cast<std::uint32_t>(produced_ % cfg_.flow_count));

  const std::size_t frame_len = std::clamp(
      size_->sample(rng_), net::kEthMinFrame, std::size_t{net::kEthMaxFrame});

  net::FrameBuf buf(frame_len - net::kEthFcsLen);  // zero-filled payload
  std::uint8_t* const eth = buf.data();
  std::memcpy(eth, header_.data(), header_.size());
  std::uint8_t* const ip = eth + ip_off_;
  std::uint8_t* const udp = ip + kIpLen;
  const auto ip_len = static_cast<std::uint16_t>(buf.size() - ip_off_);
  const auto udp_len = static_cast<std::uint16_t>(ip_len - kIpLen);

  store_be16(ip + 2, ip_len);
  store_be32(ip + 16, flow.dst_ip.v);
  store_be16(ip + 10, net::internet_checksum(ByteSpan{ip, kIpLen}));

  store_be16(udp, flow.src_port);
  store_be16(udp + 4, udp_len);
  // The payload is zero, so it adds nothing to the ones'-complement sum.
  net::InternetChecksum sum;
  sum.add_u32(cfg_.src_ip.v);
  sum.add_u32(flow.dst_ip.v);
  sum.add_u16(net::ipproto::kUdp);
  sum.add_u16(udp_len);
  sum.add(ByteSpan{udp, net::UdpHeader::kSize});
  const std::uint16_t cksum = sum.fold();
  store_be16(udp + 6, cksum == 0 ? 0xFFFF : cksum);  // RFC 768: 0 means "none"

  TimedPacket tp;
  tp.pkt = net::Packet{std::move(buf)};
  tp.pkt.id = produced_;
  ++produced_;
  return tp;
}

}  // namespace osnt::gen
