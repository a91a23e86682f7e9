#include "osnt/net/packet.hpp"

#include <cstdio>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>

#include "osnt/net/parser.hpp"

namespace osnt::net {

FrameBuf::Block* FrameBuf::allocate(std::size_t n) {
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("FrameBuf: " + std::to_string(n) +
                            " bytes exceed the 4 GiB frame limit");
  }
  return new (::operator new(sizeof(Block) + n))
      Block{{1}, static_cast<std::uint32_t>(n)};
}

/// One-line human-readable summary of a frame (used by CLI tools/examples).
std::string describe(const Packet& pkt) {
  auto parsed = parse_packet(pkt.bytes());
  char buf[256];
  if (!parsed) {
    std::snprintf(buf, sizeof buf, "[%zu B] <short frame>", pkt.size());
    return buf;
  }
  const auto& p = *parsed;
  std::string l3;
  switch (p.l3) {
    case L3Kind::kIpv4:
      l3 = p.ipv4.src.to_string() + " > " + p.ipv4.dst.to_string();
      break;
    case L3Kind::kIpv6:
      l3 = p.ipv6.src.to_string() + " > " + p.ipv6.dst.to_string();
      break;
    case L3Kind::kArp:
      l3 = "arp op=" + std::to_string(p.arp.opcode);
      break;
    case L3Kind::kNone:
      l3 = p.eth.src.to_string() + " > " + p.eth.dst.to_string();
      break;
  }
  const char* l4 = p.l4 == L4Kind::kTcp    ? "tcp"
                   : p.l4 == L4Kind::kUdp  ? "udp"
                   : p.l4 == L4Kind::kIcmp ? "icmp"
                                           : "-";
  std::uint16_t sport = 0, dport = 0;
  if (p.l4 == L4Kind::kTcp) {
    sport = p.tcp.src_port;
    dport = p.tcp.dst_port;
  } else if (p.l4 == L4Kind::kUdp) {
    sport = p.udp.src_port;
    dport = p.udp.dst_port;
  }
  std::snprintf(buf, sizeof buf, "[%4zu B] %s %s %u>%u", pkt.wire_len(),
                l3.c_str(), l4, sport, dport);
  return buf;
}

}  // namespace osnt::net
