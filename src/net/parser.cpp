#include "osnt/net/parser.hpp"

namespace osnt::net {

std::optional<ParsedPacket> parse_packet(ByteSpan frame) noexcept {
  // Built in place and returned by name on every path, so the ~200 B
  // result is never copied into the optional.
  std::optional<ParsedPacket> out;
  auto eth = EthHeader::read(frame);
  if (!eth) return out;

  ParsedPacket& p = out.emplace();
  p.eth = *eth;
  p.frame_len = frame.size();
  std::size_t off = EthHeader::kSize;
  p.payload_offset = off;

  std::uint16_t ethertype = p.eth.ethertype;
  if (ethertype == static_cast<std::uint16_t>(EtherType::kVlan)) {
    // VlanTag::read expects the span to start at the TPID (offset 12).
    if (auto tag = VlanTag::read(frame.subspan(EthHeader::kSize - 2))) {
      p.vlan = *tag;
      ethertype = tag->inner_ethertype;
      off += VlanTag::kSize;
      p.payload_offset = off;
    } else {
      return out;  // tagged but truncated: stop at L2
    }
  }

  std::uint8_t l4_proto = 0;
  switch (static_cast<EtherType>(ethertype)) {
    case EtherType::kIpv4: {
      auto ip = Ipv4Header::read(frame.subspan(off));
      if (!ip) return out;
      p.l3 = L3Kind::kIpv4;
      p.ipv4 = *ip;
      p.l3_offset = off;
      off += ip->header_len();
      p.payload_offset = off;
      l4_proto = ip->protocol;
      break;
    }
    case EtherType::kIpv6: {
      auto ip = Ipv6Header::read(frame.subspan(off));
      if (!ip) return out;
      p.l3 = L3Kind::kIpv6;
      p.ipv6 = *ip;
      p.l3_offset = off;
      off += Ipv6Header::kSize;
      p.payload_offset = off;
      l4_proto = ip->next_header;
      break;
    }
    case EtherType::kArp: {
      auto arp = ArpHeader::read(frame.subspan(off));
      if (!arp) return out;
      p.l3 = L3Kind::kArp;
      p.arp = *arp;
      p.l3_offset = off;
      p.payload_offset = off + ArpHeader::kSize;
      return out;  // ARP has no L4
    }
    default:
      return out;  // unknown L3
  }

  switch (l4_proto) {
    case ipproto::kTcp:
      if (auto tcp = TcpHeader::read(frame.subspan(off))) {
        p.l4 = L4Kind::kTcp;
        p.tcp = *tcp;
        p.l4_offset = off;
        p.payload_offset = off + tcp->header_len();
      }
      break;
    case ipproto::kUdp:
      if (auto udp = UdpHeader::read(frame.subspan(off))) {
        p.l4 = L4Kind::kUdp;
        p.udp = *udp;
        p.l4_offset = off;
        p.payload_offset = off + UdpHeader::kSize;
      }
      break;
    case ipproto::kIcmp:
      if (auto icmp = IcmpHeader::read(frame.subspan(off))) {
        p.l4 = L4Kind::kIcmp;
        p.icmp = *icmp;
        p.l4_offset = off;
        p.payload_offset = off + IcmpHeader::kSize;
      }
      break;
    default:
      break;
  }
  return out;
}

}  // namespace osnt::net
