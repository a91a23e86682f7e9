#include "osnt/net/builder.hpp"

#include <stdexcept>

#include "osnt/common/hash.hpp"
#include "osnt/net/checksum.hpp"

namespace osnt::net {
namespace {

// Reserve space for a header and return its offset.
std::size_t append_zeros(Bytes& buf, std::size_t n) {
  const std::size_t off = buf.size();
  buf.resize(buf.size() + n, 0);
  return off;
}

}  // namespace

PacketBuilder& PacketBuilder::eth(MacAddr src, MacAddr dst,
                                  std::uint16_t ethertype) {
  eth_off_ = append_zeros(buf_, EthHeader::kSize);
  EthHeader h{dst, src, ethertype};
  h.write(MutByteSpan{buf_.data() + *eth_off_, EthHeader::kSize});
  return *this;
}

PacketBuilder& PacketBuilder::vlan(std::uint16_t vid, std::uint8_t pcp) {
  if (!eth_off_) throw std::logic_error("vlan() requires eth() first");
  // The tag is inserted by rewriting the outer ethertype to 0x8100 and
  // appending TCI + placeholder inner ethertype.
  const std::uint16_t outer = load_be16(buf_.data() + *eth_off_ + 12);
  store_be16(buf_.data() + *eth_off_ + 12,
             static_cast<std::uint16_t>(EtherType::kVlan));
  vlan_off_ = append_zeros(buf_, 4);  // TCI (2) + inner ethertype (2)
  const std::uint16_t tci =
      static_cast<std::uint16_t>((std::uint16_t{pcp} << 13) | (vid & 0x0FFF));
  store_be16(buf_.data() + *vlan_off_, tci);
  store_be16(buf_.data() + *vlan_off_ + 2, outer);
  return *this;
}

PacketBuilder& PacketBuilder::ipv4(Ipv4Addr src, Ipv4Addr dst,
                                   std::uint8_t protocol, std::uint8_t ttl,
                                   std::uint8_t dscp) {
  patch_ethertype(static_cast<std::uint16_t>(EtherType::kIpv4));
  ipv4_off_ = append_zeros(buf_, Ipv4Header::kMinSize);
  Ipv4Header h;
  h.src = src;
  h.dst = dst;
  h.protocol = protocol;
  h.ttl = ttl;
  h.dscp = dscp;
  h.write(MutByteSpan{buf_.data() + *ipv4_off_, Ipv4Header::kMinSize});
  return *this;
}

PacketBuilder& PacketBuilder::ipv6(const Ipv6Addr& src, const Ipv6Addr& dst,
                                   std::uint8_t next_header,
                                   std::uint8_t hop_limit) {
  patch_ethertype(static_cast<std::uint16_t>(EtherType::kIpv6));
  ipv6_off_ = append_zeros(buf_, Ipv6Header::kSize);
  Ipv6Header h;
  h.src = src;
  h.dst = dst;
  h.next_header = next_header;
  h.hop_limit = hop_limit;
  h.write(MutByteSpan{buf_.data() + *ipv6_off_, Ipv6Header::kSize});
  return *this;
}

PacketBuilder& PacketBuilder::arp(std::uint16_t opcode, MacAddr sender_mac,
                                  Ipv4Addr sender_ip, MacAddr target_mac,
                                  Ipv4Addr target_ip) {
  patch_ethertype(static_cast<std::uint16_t>(EtherType::kArp));
  const std::size_t off = append_zeros(buf_, ArpHeader::kSize);
  ArpHeader h;
  h.opcode = opcode;
  h.sender_mac = sender_mac;
  h.sender_ip = sender_ip;
  h.target_mac = target_mac;
  h.target_ip = target_ip;
  h.write(MutByteSpan{buf_.data() + off, ArpHeader::kSize});
  return *this;
}

PacketBuilder& PacketBuilder::udp(std::uint16_t src_port,
                                  std::uint16_t dst_port) {
  patch_l3_protocol(ipproto::kUdp);
  udp_off_ = append_zeros(buf_, UdpHeader::kSize);
  UdpHeader h;
  h.src_port = src_port;
  h.dst_port = dst_port;
  h.write(MutByteSpan{buf_.data() + *udp_off_, UdpHeader::kSize});
  return *this;
}

PacketBuilder& PacketBuilder::tcp(std::uint16_t src_port,
                                  std::uint16_t dst_port, std::uint32_t seq,
                                  std::uint32_t ack, std::uint8_t flags) {
  patch_l3_protocol(ipproto::kTcp);
  tcp_off_ = append_zeros(buf_, TcpHeader::kMinSize);
  TcpHeader h;
  h.src_port = src_port;
  h.dst_port = dst_port;
  h.seq = seq;
  h.ack = ack;
  h.flags = flags;
  h.write(MutByteSpan{buf_.data() + *tcp_off_, TcpHeader::kMinSize});
  return *this;
}

PacketBuilder& PacketBuilder::tcp_options(
    const std::vector<TcpOption>& options) {
  if (!tcp_off_ || buf_.size() != *tcp_off_ + TcpHeader::kMinSize)
    throw std::logic_error("tcp_options() must follow tcp() immediately");
  const Bytes encoded = encode_tcp_options(options);
  if (TcpHeader::kMinSize + encoded.size() > 60)
    throw std::invalid_argument("tcp_options: header exceeds 60 bytes");
  buf_.insert(buf_.end(), encoded.begin(), encoded.end());
  const auto words =
      static_cast<std::uint8_t>((TcpHeader::kMinSize + encoded.size()) / 4);
  buf_[*tcp_off_ + 12] = static_cast<std::uint8_t>(words << 4);
  return *this;
}

PacketBuilder& PacketBuilder::icmp_echo(std::uint16_t identifier,
                                        std::uint16_t sequence, bool reply) {
  patch_l3_protocol(ipproto::kIcmp);
  icmp_off_ = append_zeros(buf_, IcmpHeader::kSize);
  IcmpHeader h;
  h.type = reply ? 0 : 8;
  h.identifier = identifier;
  h.sequence = sequence;
  h.write(MutByteSpan{buf_.data() + *icmp_off_, IcmpHeader::kSize});
  return *this;
}

PacketBuilder& PacketBuilder::payload(ByteSpan data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
  return *this;
}

PacketBuilder& PacketBuilder::payload_random(std::size_t n,
                                             std::uint64_t seed) {
  buf_.reserve(buf_.size() + n);
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 8 == 0) state = mix64(state + i);
    buf_.push_back(static_cast<std::uint8_t>(state >> ((i % 8) * 8)));
  }
  return *this;
}

PacketBuilder& PacketBuilder::pad_to_frame(std::size_t frame_len_with_fcs) {
  if (frame_len_with_fcs < kEthMinFrame || frame_len_with_fcs > 9022)
    throw std::invalid_argument("pad_to_frame: frame length out of range");
  const std::size_t target = frame_len_with_fcs - kEthFcsLen;
  if (buf_.size() < target) buf_.resize(target, 0);
  return *this;
}

void PacketBuilder::patch_ethertype(std::uint16_t ethertype) {
  if (vlan_off_) {
    store_be16(buf_.data() + *vlan_off_ + 2, ethertype);
  } else if (eth_off_) {
    store_be16(buf_.data() + *eth_off_ + 12, ethertype);
  } else {
    throw std::logic_error("L3 layer requires eth() first");
  }
}

void PacketBuilder::patch_l3_protocol(std::uint8_t proto) {
  l4_proto_ = proto;
  if (ipv4_off_) {
    buf_[*ipv4_off_ + 9] = proto;
  } else if (ipv6_off_) {
    buf_[*ipv6_off_ + 6] = proto;
  } else {
    throw std::logic_error("L4 layer requires ipv4()/ipv6() first");
  }
}

Packet PacketBuilder::build() {
  if (!eth_off_) throw std::logic_error("build() requires eth()");
  // Enforce the Ethernet minimum (64 B with FCS → 60 B of frame data).
  if (buf_.size() < kEthMinFrame - kEthFcsLen)
    buf_.resize(kEthMinFrame - kEthFcsLen, 0);

  // --- back-patch lengths, outermost first ---
  if (ipv4_off_) {
    const std::uint16_t total =
        static_cast<std::uint16_t>(buf_.size() - *ipv4_off_);
    store_be16(buf_.data() + *ipv4_off_ + 2, total);
  }
  if (ipv6_off_) {
    const std::uint16_t payload = static_cast<std::uint16_t>(
        buf_.size() - *ipv6_off_ - Ipv6Header::kSize);
    store_be16(buf_.data() + *ipv6_off_ + 4, payload);
  }
  if (udp_off_) {
    const std::uint16_t len =
        static_cast<std::uint16_t>(buf_.size() - *udp_off_);
    store_be16(buf_.data() + *udp_off_ + 4, len);
  }

  // --- checksums, innermost first ---
  const std::size_t l4_off =
      udp_off_ ? *udp_off_ : tcp_off_ ? *tcp_off_ : icmp_off_ ? *icmp_off_ : 0;
  if (l4_off != 0) {
    const std::size_t cksum_at = icmp_off_ ? l4_off + 2
                                 : udp_off_ ? l4_off + 6
                                            : l4_off + 16;
    store_be16(buf_.data() + cksum_at, 0);
    const ByteSpan l4{buf_.data() + l4_off, buf_.size() - l4_off};
    std::uint16_t cksum = 0;
    if (icmp_off_) {
      cksum = internet_checksum(l4);
    } else if (ipv4_off_) {
      const std::uint32_t src = load_be32(buf_.data() + *ipv4_off_ + 12);
      const std::uint32_t dst = load_be32(buf_.data() + *ipv4_off_ + 16);
      cksum = l4_checksum_v4(Ipv4Addr{src}, Ipv4Addr{dst}, l4_proto_, l4);
      if (udp_off_ && cksum == 0) cksum = 0xFFFF;  // RFC 768: 0 means "none"
    } else if (ipv6_off_) {
      Ipv6Addr src, dst;
      std::memcpy(src.b.data(), buf_.data() + *ipv6_off_ + 8, 16);
      std::memcpy(dst.b.data(), buf_.data() + *ipv6_off_ + 24, 16);
      cksum = l4_checksum_v6(src, dst, l4_proto_, l4);
      if (udp_off_ && cksum == 0) cksum = 0xFFFF;
    }
    store_be16(buf_.data() + cksum_at, cksum);
  }
  if (ipv4_off_) {
    store_be16(buf_.data() + *ipv4_off_ + 10, 0);
    const std::size_t hlen = std::size_t{buf_[*ipv4_off_]} % 16 * 4;
    const std::uint16_t cksum =
        internet_checksum(ByteSpan{buf_.data() + *ipv4_off_, hlen});
    store_be16(buf_.data() + *ipv4_off_ + 10, cksum);
  }

  Packet pkt{ByteSpan{buf_}};
  *this = PacketBuilder{};
  return pkt;
}

}  // namespace osnt::net
