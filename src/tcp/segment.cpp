#include "osnt/tcp/segment.hpp"

#include <cstring>
#include <utility>

#include "osnt/net/checksum.hpp"
#include "osnt/net/tcp_options.hpp"

namespace osnt::tcp {
namespace {

constexpr std::size_t kIpOff = net::EthHeader::kSize;
constexpr std::size_t kTcpOff = kIpOff + net::Ipv4Header::kMinSize;
constexpr std::size_t kTcpHeaderLen = kSegmentHeaderLen - kTcpOff;
static_assert(kTcpHeaderLen == net::TcpHeader::kMinSize + 12);

}  // namespace

net::Packet write_segment(const SegmentFields& f, std::uint32_t len) {
  net::FrameBuf buf(kSegmentHeaderLen + len);  // zero-filled, payload included
  std::uint8_t* const eth = buf.data();
  std::memcpy(eth, f.dst_mac.b.data(), 6);
  std::memcpy(eth + 6, f.src_mac.b.data(), 6);
  store_be16(eth + 12, static_cast<std::uint16_t>(net::EtherType::kIpv4));

  // IPv4: no options, identification and fragment fields 0, TTL 64.
  std::uint8_t* const ip = eth + kIpOff;
  ip[0] = 0x45;
  ip[1] = static_cast<std::uint8_t>(f.dscp << 2);
  store_be16(ip + 2, static_cast<std::uint16_t>(buf.size() - kIpOff));
  ip[8] = 64;
  ip[9] = net::ipproto::kTcp;
  store_be32(ip + 12, f.src_ip.v);
  store_be32(ip + 16, f.dst_ip.v);
  store_be16(ip + 10, net::internet_checksum(
                          ByteSpan{ip, net::Ipv4Header::kMinSize}));

  // TCP: 8-word header, full window, no urgent data; the timestamps
  // option padded with END then NOP, as net::encode_tcp_options pads it.
  std::uint8_t* const tcp = eth + kTcpOff;
  store_be16(tcp, f.src_port);
  store_be16(tcp + 2, f.dst_port);
  store_be32(tcp + 4, f.seq);
  store_be32(tcp + 8, f.ack);
  tcp[12] = static_cast<std::uint8_t>((kTcpHeaderLen / 4) << 4);
  tcp[13] = f.flags;
  store_be16(tcp + 14, 0xFFFF);
  tcp[20] = static_cast<std::uint8_t>(net::TcpOptionKind::kTimestamps);
  tcp[21] = 10;
  store_be32(tcp + 22, f.tsval);
  store_be32(tcp + 26, f.tsecr);
  tcp[30] = static_cast<std::uint8_t>(net::TcpOptionKind::kEnd);
  tcp[31] = static_cast<std::uint8_t>(net::TcpOptionKind::kNop);

  net::InternetChecksum sum;
  sum.add_u32(f.src_ip.v);
  sum.add_u32(f.dst_ip.v);
  sum.add_u16(net::ipproto::kTcp);
  sum.add_u16(static_cast<std::uint16_t>(kTcpHeaderLen + len));
  sum.add(ByteSpan{tcp, kTcpHeaderLen});
  store_be16(tcp + 16, sum.fold());
  return net::Packet{std::move(buf)};
}

}  // namespace osnt::tcp
