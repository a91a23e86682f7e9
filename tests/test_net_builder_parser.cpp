// PacketBuilder ↔ parse_packet round trips, length/checksum fixups,
// minimum-frame padding and parameterized size sweeps.
#include <gtest/gtest.h>

#include "osnt/net/builder.hpp"
#include "osnt/net/checksum.hpp"
#include "osnt/net/packet.hpp"
#include "osnt/net/parser.hpp"

namespace osnt::net {
namespace {

Packet udp_frame(std::size_t frame_len) {
  PacketBuilder b;
  return b.eth(MacAddr::from_index(1), MacAddr::from_index(2))
      .ipv4(Ipv4Addr::of(10, 0, 0, 1), Ipv4Addr::of(10, 0, 1, 1),
            ipproto::kUdp)
      .udp(1024, 5001)
      .pad_to_frame(frame_len)
      .build();
}

TEST(Builder, MinimumFrameEnforced) {
  PacketBuilder b;
  const Packet p = b.eth(MacAddr::from_index(1), MacAddr::from_index(2))
                       .ipv4(Ipv4Addr::of(1, 1, 1, 1), Ipv4Addr::of(2, 2, 2, 2),
                             ipproto::kUdp)
                       .udp(1, 2)
                       .build();
  EXPECT_EQ(p.wire_len(), kEthMinFrame);
}

TEST(Builder, UdpRoundTrip) {
  const Packet p = udp_frame(128);
  EXPECT_EQ(p.wire_len(), 128u);
  const auto parsed = parse_packet(p.bytes());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->l3, L3Kind::kIpv4);
  EXPECT_EQ(parsed->l4, L4Kind::kUdp);
  EXPECT_EQ(parsed->udp.src_port, 1024);
  EXPECT_EQ(parsed->udp.dst_port, 5001);
  // IP total length covers everything after Ethernet.
  EXPECT_EQ(parsed->ipv4.total_length, 128 - kEthFcsLen - EthHeader::kSize);
}

TEST(Builder, Ipv4ChecksumValid) {
  const Packet p = udp_frame(256);
  const auto parsed = parse_packet(p.bytes());
  ASSERT_TRUE(parsed);
  // Recomputing over the received header (checksum field included) = 0.
  const ByteSpan hdr{p.data.data() + parsed->l3_offset,
                     parsed->ipv4.header_len()};
  EXPECT_EQ(internet_checksum(hdr), 0u);
}

TEST(Builder, UdpChecksumValidatesAgainstPseudoHeader) {
  const Packet p = udp_frame(200);
  const auto parsed = parse_packet(p.bytes());
  ASSERT_TRUE(parsed);
  // Verify by recomputing over the L4 segment with the stored checksum
  // zeroed: the result must equal the stored value.
  Bytes l4 = to_bytes(p.bytes().subspan(parsed->l4_offset));
  const std::uint16_t stored = load_be16(l4.data() + 6);
  store_be16(l4.data() + 6, 0);
  const std::uint16_t computed =
      l4_checksum_v4(parsed->ipv4.src, parsed->ipv4.dst, ipproto::kUdp,
                     ByteSpan{l4.data(), l4.size()});
  EXPECT_EQ(stored, computed == 0 ? 0xFFFF : computed);
}

TEST(Builder, TcpRoundTrip) {
  PacketBuilder b;
  const Packet p =
      b.eth(MacAddr::from_index(1), MacAddr::from_index(2))
          .ipv4(Ipv4Addr::of(10, 0, 0, 1), Ipv4Addr::of(10, 0, 0, 2),
                ipproto::kTcp)
          .tcp(80, 54321, 1000, 2000, TcpFlags::kPsh | TcpFlags::kAck)
          .payload_random(64, 42)
          .build();
  const auto parsed = parse_packet(p.bytes());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->l4, L4Kind::kTcp);
  EXPECT_EQ(parsed->tcp.src_port, 80);
  EXPECT_EQ(parsed->tcp.seq, 1000u);
  EXPECT_EQ(parsed->tcp.flags, TcpFlags::kPsh | TcpFlags::kAck);
}

TEST(Builder, VlanTagged) {
  PacketBuilder b;
  const Packet p = b.eth(MacAddr::from_index(1), MacAddr::from_index(2))
                       .vlan(100, 3)
                       .ipv4(Ipv4Addr::of(1, 2, 3, 4), Ipv4Addr::of(5, 6, 7, 8),
                             ipproto::kUdp)
                       .udp(10, 20)
                       .build();
  const auto parsed = parse_packet(p.bytes());
  ASSERT_TRUE(parsed);
  ASSERT_TRUE(parsed->vlan);
  EXPECT_EQ(parsed->vlan->vid, 100);
  EXPECT_EQ(parsed->vlan->pcp, 3);
  EXPECT_EQ(parsed->effective_ethertype(), 0x0800);
  EXPECT_EQ(parsed->l4, L4Kind::kUdp);
}

TEST(Builder, ArpRoundTrip) {
  PacketBuilder b;
  const Packet p = b.eth(MacAddr::from_index(1), MacAddr::broadcast())
                       .arp(1, MacAddr::from_index(1), Ipv4Addr::of(10, 0, 0, 1),
                            MacAddr{}, Ipv4Addr::of(10, 0, 0, 2))
                       .build();
  const auto parsed = parse_packet(p.bytes());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->l3, L3Kind::kArp);
  EXPECT_EQ(parsed->arp.opcode, 1);
  EXPECT_EQ(parsed->arp.target_ip, Ipv4Addr::of(10, 0, 0, 2));
}

TEST(Builder, IcmpEcho) {
  PacketBuilder b;
  const Packet p =
      b.eth(MacAddr::from_index(1), MacAddr::from_index(2))
          .ipv4(Ipv4Addr::of(1, 1, 1, 1), Ipv4Addr::of(8, 8, 8, 8),
                ipproto::kIcmp)
          .icmp_echo(0x77, 3)
          .payload_random(32, 5)
          .build();
  const auto parsed = parse_packet(p.bytes());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->l4, L4Kind::kIcmp);
  EXPECT_EQ(parsed->icmp.type, 8);
  EXPECT_EQ(parsed->icmp.identifier, 0x77);
  // ICMP checksum must validate over the whole ICMP part.
  EXPECT_EQ(internet_checksum(ByteSpan{p.data.data() + parsed->l4_offset,
                                       p.data.size() - parsed->l4_offset}),
            0u);
}

TEST(Builder, Ipv6Udp) {
  Ipv6Addr src, dst;
  src.b[15] = 1;
  dst.b[15] = 2;
  PacketBuilder b;
  const Packet p = b.eth(MacAddr::from_index(1), MacAddr::from_index(2))
                       .ipv6(src, dst, ipproto::kUdp)
                       .udp(9999, 8888)
                       .payload_random(40, 6)
                       .build();
  const auto parsed = parse_packet(p.bytes());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->l3, L3Kind::kIpv6);
  EXPECT_EQ(parsed->l4, L4Kind::kUdp);
  EXPECT_EQ(parsed->ipv6.payload_length,
            p.size() - EthHeader::kSize - Ipv6Header::kSize);
}

TEST(Builder, LayeringErrors) {
  PacketBuilder b;
  EXPECT_THROW(b.udp(1, 2), std::logic_error);
  PacketBuilder b2;
  EXPECT_THROW(b2.vlan(5), std::logic_error);
  PacketBuilder b3;
  EXPECT_THROW(b3.build(), std::logic_error);
}

TEST(Builder, PadToFrameRejectsOutOfRange) {
  PacketBuilder b;
  b.eth(MacAddr::from_index(1), MacAddr::from_index(2));
  EXPECT_THROW(b.pad_to_frame(32), std::invalid_argument);
  EXPECT_THROW(b.pad_to_frame(100000), std::invalid_argument);
}

TEST(Parser, ShortFrameRejected) {
  std::uint8_t buf[10] = {};
  EXPECT_FALSE(parse_packet(ByteSpan{buf, sizeof buf}));
}

TEST(Parser, TruncatedIpStopsAtL2) {
  Packet p = udp_frame(128);
  const auto parsed = parse_packet(ByteSpan{p.data.data(), 20});
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->l3, L3Kind::kNone);
  EXPECT_EQ(parsed->l4, L4Kind::kNone);
}

TEST(Parser, UnknownEthertype) {
  PacketBuilder b;
  Packet p = b.eth(MacAddr::from_index(1), MacAddr::from_index(2), 0x88B5)
                 .payload_random(60, 1)
                 .build();
  const auto parsed = parse_packet(p.bytes());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->l3, L3Kind::kNone);
  EXPECT_EQ(parsed->payload_offset, EthHeader::kSize);
}

TEST(Packet, Describe) {
  const Packet p = udp_frame(128);
  const std::string d = describe(p);
  EXPECT_NE(d.find("10.0.0.1"), std::string::npos);
  EXPECT_NE(d.find("udp"), std::string::npos);
}

// Parameterized sweep: every legal frame size builds + parses + checksums.
class FrameSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FrameSizeSweep, BuildsConsistentFrame) {
  const std::size_t size = GetParam();
  const Packet p = udp_frame(size);
  EXPECT_EQ(p.wire_len(), size);
  const auto parsed = parse_packet(p.bytes());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->l4, L4Kind::kUdp);
  EXPECT_EQ(parsed->ipv4.total_length,
            size - kEthFcsLen - EthHeader::kSize);
  const ByteSpan hdr{p.data.data() + parsed->l3_offset,
                     parsed->ipv4.header_len()};
  EXPECT_EQ(internet_checksum(hdr), 0u);
}

INSTANTIATE_TEST_SUITE_P(Rfc2544Sizes, FrameSizeSweep,
                         ::testing::Values(64, 65, 128, 256, 512, 1024, 1280,
                                           1518));

TEST(Packet, LineLenIncludesOverheads) {
  const Packet p = udp_frame(64);
  EXPECT_EQ(p.wire_len(), 64u);
  EXPECT_EQ(p.line_len(), 64u + 20u);
}

TEST(Packet, MaxFrameRateMath) {
  // 64 B frames @10G: 10e9 / (84*8) = 14.88 Mpps.
  EXPECT_NEAR(max_frame_rate(64, 10.0), 14'880'952.0, 1.0);
  EXPECT_NEAR(max_frame_rate(1518, 10.0), 812'743.8, 0.5);
}

}  // namespace
}  // namespace osnt::net
