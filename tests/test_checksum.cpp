// RFC 1071 checksum properties and known vectors.
#include <gtest/gtest.h>

#include "osnt/common/random.hpp"
#include "osnt/net/builder.hpp"
#include "osnt/net/checksum.hpp"
#include "osnt/net/parser.hpp"
#include "osnt/net/tcp_options.hpp"
#include "osnt/tcp/segment.hpp"

namespace osnt::net {
namespace {

TEST(InternetChecksum, Rfc1071Example) {
  // The worked example from RFC 1071 §3: bytes 00 01 f2 03 f4 f5 f6 f7
  // sum to ddf2 (before inversion).
  const std::uint8_t data[] = {0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7};
  EXPECT_EQ(internet_checksum(ByteSpan{data, 8}),
            static_cast<std::uint16_t>(~0xDDF2 & 0xFFFF));
}

TEST(InternetChecksum, OddLengthPadsWithZero) {
  const std::uint8_t even[] = {0x12, 0x34, 0xAB, 0x00};
  const std::uint8_t odd[] = {0x12, 0x34, 0xAB};
  EXPECT_EQ(internet_checksum(ByteSpan{even, 4}),
            internet_checksum(ByteSpan{odd, 3}));
}

TEST(InternetChecksum, VerificationYieldsZero) {
  // Appending the computed checksum makes the whole sum validate to 0.
  Rng rng{1};
  for (int trial = 0; trial < 50; ++trial) {
    Bytes data;
    const auto n = 2 * rng.uniform_int(4, 50);
    for (std::uint64_t i = 0; i < n; ++i)
      data.push_back(static_cast<std::uint8_t>(rng()));
    const std::uint16_t ck = internet_checksum(ByteSpan{data.data(), data.size()});
    data.push_back(static_cast<std::uint8_t>(ck >> 8));
    data.push_back(static_cast<std::uint8_t>(ck));
    EXPECT_EQ(internet_checksum(ByteSpan{data.data(), data.size()}), 0u);
  }
}

TEST(InternetChecksum, IncrementalAdditionsMatch) {
  const std::uint8_t part1[] = {0xDE, 0xAD};
  const std::uint8_t part2[] = {0xBE, 0xEF};
  InternetChecksum inc;
  inc.add(ByteSpan{part1, 2});
  inc.add(ByteSpan{part2, 2});
  const std::uint8_t all[] = {0xDE, 0xAD, 0xBE, 0xEF};
  EXPECT_EQ(inc.fold(), internet_checksum(ByteSpan{all, 4}));
}

TEST(L4Checksum, PseudoHeaderAffectsResult) {
  const std::uint8_t seg[] = {0x00, 0x35, 0x00, 0x35, 0x00, 0x08, 0x00, 0x00};
  const auto a = l4_checksum_v4(Ipv4Addr::of(1, 1, 1, 1),
                                Ipv4Addr::of(2, 2, 2, 2), 17, ByteSpan{seg, 8});
  const auto b = l4_checksum_v4(Ipv4Addr::of(1, 1, 1, 2),
                                Ipv4Addr::of(2, 2, 2, 2), 17, ByteSpan{seg, 8});
  EXPECT_NE(a, b);
}

TEST(L4Checksum, V6DiffersFromV4) {
  // Note: addresses are chosen so the ones-complement sums genuinely
  // differ (v6 ::1/::2 would alias v4 0.0.0.1/0.0.0.2 bit-for-bit).
  const std::uint8_t seg[] = {0x00, 0x35, 0x00, 0x35, 0x00, 0x08, 0x00, 0x00};
  Ipv6Addr s6, d6;
  s6.b[0] = 0x20;
  s6.b[15] = 1;
  d6.b[0] = 0xFE;
  d6.b[15] = 2;
  const auto v6 = l4_checksum_v6(s6, d6, 17, ByteSpan{seg, 8});
  const auto v4 = l4_checksum_v4(Ipv4Addr{1}, Ipv4Addr{2}, 17, ByteSpan{seg, 8});
  EXPECT_NE(v6, v4);
}

TEST(InternetChecksum, AddU32MatchesBytes) {
  InternetChecksum a;
  a.add_u32(0x0A000001);
  const std::uint8_t bytes[] = {0x0A, 0x00, 0x00, 0x01};
  InternetChecksum b;
  b.add(ByteSpan{bytes, 4});
  EXPECT_EQ(a.fold(), b.fold());
}

// ----------------------------------- TCP/IPv4 frames with header options

/// Build a TCP/IPv4 data frame carrying timestamps (+ optionally MSS)
/// options, as the tcp:: closed-loop workload emits them.
Packet tcp_frame_with_options(bool with_mss, std::size_t payload_len) {
  PacketBuilder b;
  b.eth(MacAddr::from_index(1), MacAddr::from_index(2))
      .ipv4(Ipv4Addr::of(10, 0, 0, 1), Ipv4Addr::of(10, 0, 1, 1),
            ipproto::kTcp)
      .tcp(40000, 50000, 0x01020304, 0x0a0b0c0d, TcpFlags::kAck | TcpFlags::kPsh);
  std::vector<TcpOption> opts{tcp_option_timestamps(123456, 654321)};
  if (with_mss) opts.push_back(tcp_option_mss(1448));
  b.tcp_options(opts);
  Bytes payload(payload_len);
  for (std::size_t i = 0; i < payload_len; ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  b.payload(payload);
  return b.build();
}

/// Fold the frame's TCP segment (header + options + payload, as bounded
/// by the IP total length) through the pseudo-header checksum; a frame
/// with a correct embedded checksum folds to zero.
std::uint16_t tcp_segment_residual(const Packet& pkt) {
  const auto parsed = parse_packet(pkt.bytes());
  EXPECT_TRUE(parsed);
  EXPECT_EQ(parsed->l4, L4Kind::kTcp);
  const std::size_t seg_len =
      parsed->ipv4.total_length - parsed->ipv4.header_len();
  return l4_checksum_v4(parsed->ipv4.src, parsed->ipv4.dst, ipproto::kTcp,
                        pkt.bytes().subspan(parsed->l4_offset, seg_len));
}

TEST(TcpChecksum, TimestampOptionFrameValidates) {
  const auto pkt = tcp_frame_with_options(/*with_mss=*/false, 64);
  EXPECT_EQ(tcp_segment_residual(pkt), 0u);
  const auto parsed = parse_packet(pkt.bytes());
  ASSERT_TRUE(parsed);
  // Timestamps pad 10 -> 12 bytes: a 32-byte header, offset 8 words.
  EXPECT_EQ(parsed->tcp.header_len(), 32u);
}

TEST(TcpChecksum, TimestampPlusMssFrameValidates) {
  const auto pkt = tcp_frame_with_options(/*with_mss=*/true, 1448);
  EXPECT_EQ(tcp_segment_residual(pkt), 0u);
  const auto parsed = parse_packet(pkt.bytes());
  ASSERT_TRUE(parsed);
  const ByteSpan area = pkt.bytes().subspan(
      parsed->l4_offset + TcpHeader::kMinSize,
      parsed->tcp.header_len() - TcpHeader::kMinSize);
  const auto opts = parse_tcp_options(area);
  ASSERT_TRUE(opts);
  EXPECT_EQ(tcp_mss_of(*opts), 1448);
  const auto ts = tcp_timestamps_of(area);
  ASSERT_TRUE(ts);
  EXPECT_EQ(ts->first, 123456u);
  EXPECT_EQ(ts->second, 654321u);
}

TEST(TcpChecksum, CorruptedOptionByteFailsValidation) {
  // The options live between the fixed header and the payload — a bit
  // error there must be caught by the checksum like any payload error.
  auto pkt = tcp_frame_with_options(/*with_mss=*/true, 256);
  const auto parsed = parse_packet(pkt.bytes());
  ASSERT_TRUE(parsed);
  pkt.data[parsed->l4_offset + TcpHeader::kMinSize + 2] ^= 0x40;
  EXPECT_NE(tcp_segment_residual(pkt), 0u);
}

TEST(TcpChecksum, CorruptedPayloadByteFailsValidation) {
  auto pkt = tcp_frame_with_options(/*with_mss=*/false, 512);
  const auto parsed = parse_packet(pkt.bytes());
  ASSERT_TRUE(parsed);
  pkt.data[parsed->payload_offset + 100] ^= 0x01;
  EXPECT_NE(tcp_segment_residual(pkt), 0u);
}

TEST(TcpChecksum, MinFramePaddingStaysOutsideTheSegment) {
  // A short TCP frame is padded to the 64-byte Ethernet minimum; the pad
  // bytes sit beyond the IP total length and must not disturb the
  // checksum bound to the segment.
  const auto pkt = tcp_frame_with_options(/*with_mss=*/false, 1);
  EXPECT_GE(pkt.size(), 64u);
  EXPECT_EQ(tcp_segment_residual(pkt), 0u);
}

// --------------------------- the closed loop's segment writer and reader

/// The PacketBuilder chain tcp::write_segment replaced.
Packet built_segment(const tcp::SegmentFields& f, std::uint32_t len) {
  PacketBuilder b;
  b.eth(f.src_mac, f.dst_mac)
      .ipv4(f.src_ip, f.dst_ip, ipproto::kTcp, /*ttl=*/64, f.dscp)
      .tcp(f.src_port, f.dst_port, f.seq, f.ack, f.flags)
      .tcp_options({tcp_option_timestamps(f.tsval, f.tsecr)});
  const Bytes payload(len, 0);
  b.payload(payload);
  return b.build();
}

TEST(TcpSegmentWriter, MatchesPacketBuilderByteForByte) {
  Rng rng{0x5E6};
  const auto u32 = [&rng] { return static_cast<std::uint32_t>(rng()); };
  const auto u16 = [&rng] { return static_cast<std::uint16_t>(rng()); };
  for (int i = 0; i < 12000; ++i) {
    tcp::SegmentFields f;
    for (auto& byte : f.src_mac.b) byte = static_cast<std::uint8_t>(rng());
    for (auto& byte : f.dst_mac.b) byte = static_cast<std::uint8_t>(rng());
    f.src_ip = Ipv4Addr{u32()};
    f.dst_ip = Ipv4Addr{u32()};
    f.src_port = u16();
    f.dst_port = u16();
    f.seq = u32();
    f.ack = u32();
    f.flags = rng.chance(0.5) ? TcpFlags::kAck
                              : TcpFlags::kAck | TcpFlags::kPsh;
    f.dscp = static_cast<std::uint8_t>(rng.uniform_int(0, 63));
    f.tsval = u32();
    f.tsecr = u32();
    // Pure ACKs, the MSS edges, and everything between.
    const std::uint32_t len =
        i % 6 == 0   ? 0
        : i % 6 == 1 ? (i % 12 == 1 ? 1 : tcp::kMaxMss)
                     : static_cast<std::uint32_t>(
                           rng.uniform_int(1, tcp::kMaxMss));
    const Packet got = tcp::write_segment(f, len);
    ASSERT_EQ(got.size(), tcp::kSegmentHeaderLen + len) << "case " << i;
    ASSERT_EQ(got.data, built_segment(f, len).data) << "case " << i;
    ASSERT_EQ(tcp_segment_residual(got), 0u) << "case " << i;
  }
  // A full-MSS segment is exactly a maximum-size Ethernet frame.
  EXPECT_EQ(tcp::write_segment({}, tcp::kMaxMss).wire_len(), kEthMaxFrame);
}

/// What the closed loop read before the in-place reader: the whole area
/// through parse_tcp_options, then the first 8-byte timestamps payload.
std::optional<std::pair<std::uint32_t, std::uint32_t>> parsed_timestamps(
    ByteSpan area) {
  const auto opts = parse_tcp_options(area);
  if (!opts) return std::nullopt;
  for (const auto& o : *opts) {
    if (o.kind == TcpOptionKind::kTimestamps && o.data.size() == 8) {
      return std::make_pair(load_be32(o.data.data()),
                            load_be32(o.data.data() + 4));
    }
  }
  return std::nullopt;
}

/// Append one option: kind, length byte, then `len - 2` bytes drawn from
/// `rng` (or whatever fits when `len` lies about the size).
void append_option(Bytes& area, std::uint8_t kind, std::uint8_t len,
                   Rng& rng) {
  area.push_back(kind);
  area.push_back(len);
  for (int i = 2; i < len; ++i) {
    area.push_back(static_cast<std::uint8_t>(rng()));
  }
}

TEST(TcpTimestampsReader, MatchesParseTcpOptionsOnEveryArea) {
  using Area = std::vector<std::uint8_t>;
  const auto ts = [](std::uint32_t tsval, std::uint32_t tsecr) {
    Area a{8, 10, 0, 0, 0, 0, 0, 0, 0, 0};
    store_be32(a.data() + 2, tsval);
    store_be32(a.data() + 6, tsecr);
    return a;
  };
  const auto cat = [](std::initializer_list<Area> parts) {
    Area out;
    for (const Area& p : parts) out.insert(out.end(), p.begin(), p.end());
    return out;
  };
  using Ts = std::optional<std::pair<std::uint32_t, std::uint32_t>>;
  const std::vector<std::pair<Area, Ts>> named = {
      {{}, std::nullopt},
      {ts(1, 2), std::make_pair(1u, 2u)},
      {cat({ts(1, 2), {0, 1}}), std::make_pair(1u, 2u)},  // END + NOP pad
      {{8}, std::nullopt},                                // truncated length
      {cat({ts(1, 2), {2}}), std::nullopt},               // ... after a hit
      {{8, 1, 0, 0}, std::nullopt},                       // length below 2
      {{8, 0}, std::nullopt},
      {{8, 10, 0, 0, 0, 1}, std::nullopt},                // runs past the end
      {cat({ts(1, 2), {3, 4, 0}}), std::nullopt},         // ... after a hit
      {cat({{0}, ts(1, 2)}), std::nullopt},               // END first
      {cat({ts(1, 2), ts(3, 4)}), std::make_pair(1u, 2u)},  // first wins
      {cat({{8, 6, 9, 9, 9, 9}, ts(3, 4)}), std::make_pair(3u, 4u)},
      {{8, 12, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0}, std::nullopt},  // not 10
      {cat({{1, 1, 1, 1, 1}, ts(5, 6), {1, 1}}), std::make_pair(5u, 6u)},
      {cat({{2, 4, 5, 0xB4}, {4, 2}, {3, 3, 7}, ts(7, 8)}),
       std::make_pair(7u, 8u)},
  };
  for (std::size_t i = 0; i < named.size(); ++i) {
    const ByteSpan area{named[i].first.data(), named[i].first.size()};
    EXPECT_EQ(tcp_timestamps_of(area), named[i].second) << "named case " << i;
    EXPECT_EQ(tcp_timestamps_of(area), parsed_timestamps(area))
        << "named case " << i;
  }

  // Random areas: sequences of NOP/END runs, well-formed and mis-sized
  // timestamps, other kinds with honest or lying lengths, a truncated
  // tail, and the odd flipped byte.
  Rng rng{0x7157};
  std::size_t hits = 0, misses = 0, malformed = 0;
  for (int i = 0; i < 20000; ++i) {
    Area area;
    const auto parts = rng.uniform_int(0, 6);
    for (std::uint64_t p = 0; p < parts; ++p) {
      switch (rng.uniform_int(0, 6)) {
        case 0:
          area.insert(area.end(), rng.uniform_int(1, 4), 1);
          break;
        case 1:
          area.push_back(0);
          break;
        case 2:
        case 3:
          append_option(area, 8, 10, rng);
          break;
        case 4:
          append_option(area, 8,
                        static_cast<std::uint8_t>(rng.uniform_int(0, 14)),
                        rng);
          break;
        case 5:
          append_option(area, static_cast<std::uint8_t>(rng.uniform_int(2, 30)),
                        static_cast<std::uint8_t>(rng.uniform_int(0, 12)),
                        rng);
          break;
        default:
          area.push_back(static_cast<std::uint8_t>(rng.uniform_int(2, 9)));
          break;
      }
    }
    if (!area.empty() && rng.chance(0.1)) {
      area.resize(rng.uniform_int(0, area.size() - 1));
    }
    if (!area.empty() && rng.chance(0.1)) {
      area[rng.uniform_int(0, area.size() - 1)] =
          static_cast<std::uint8_t>(rng());
    }
    const ByteSpan span{area.data(), area.size()};
    const Ts got = tcp_timestamps_of(span);
    ASSERT_EQ(got, parsed_timestamps(span)) << "random case " << i;
    if (got) {
      ++hits;
    } else if (parse_tcp_options(span)) {
      ++misses;
    } else {
      ++malformed;
    }
  }
  // Each outcome is well represented.
  EXPECT_GT(hits, 2000u);
  EXPECT_GT(misses, 2000u);
  EXPECT_GT(malformed, 2000u);
}

}  // namespace
}  // namespace osnt::net
