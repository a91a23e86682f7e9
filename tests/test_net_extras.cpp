// TCP options, trace synthesis, jumbo frames.
#include <gtest/gtest.h>

#include "osnt/core/device.hpp"
#include "osnt/gen/synth.hpp"
#include "osnt/gen/template_gen.hpp"
#include "osnt/net/builder.hpp"
#include "osnt/net/checksum.hpp"
#include "osnt/net/parser.hpp"
#include "osnt/net/tcp_options.hpp"

namespace osnt {
namespace {

using namespace osnt::net;

// ------------------------------------------------------------ tcp options

TEST(TcpOptions, EncodeParseRoundTrip) {
  const std::vector<TcpOption> opts = {
      tcp_option_mss(1460), tcp_option_sack_permitted(),
      tcp_option_window_scale(7), tcp_option_timestamps(0xAABB, 0xCCDD)};
  const Bytes wire = encode_tcp_options(opts);
  EXPECT_EQ(wire.size() % 4, 0u);
  const auto back = parse_tcp_options(ByteSpan{wire.data(), wire.size()});
  ASSERT_TRUE(back);
  EXPECT_EQ(*back, opts);
}

TEST(TcpOptions, TypedAccessors) {
  const std::vector<TcpOption> opts = {tcp_option_mss(1400),
                                       tcp_option_window_scale(3),
                                       tcp_option_timestamps(1, 2)};
  EXPECT_EQ(tcp_mss_of(opts), 1400);
  EXPECT_EQ(tcp_window_scale_of(opts), 3);
  const Bytes wire = encode_tcp_options(opts);
  const auto ts = tcp_timestamps_of(wire);
  ASSERT_TRUE(ts);
  EXPECT_EQ(ts->first, 1u);
  EXPECT_EQ(ts->second, 2u);
  EXPECT_FALSE(tcp_mss_of({}));
}

TEST(TcpOptions, ParseHandlesNopAndEnd) {
  // NOP NOP MSS END
  const std::uint8_t raw[] = {1, 1, 2, 4, 0x05, 0xB4, 0};
  const auto opts = parse_tcp_options(ByteSpan{raw, sizeof raw});
  ASSERT_TRUE(opts);
  ASSERT_EQ(opts->size(), 1u);
  EXPECT_EQ(tcp_mss_of(*opts), 1460);
}

TEST(TcpOptions, ParseRejectsMalformed) {
  const std::uint8_t bad_len[] = {2, 1};  // MSS with length 1
  EXPECT_FALSE(parse_tcp_options(ByteSpan{bad_len, 2}));
  const std::uint8_t overrun[] = {2, 10, 0, 0};  // length past buffer
  EXPECT_FALSE(parse_tcp_options(ByteSpan{overrun, 4}));
  const std::uint8_t no_len[] = {2};  // kind with nothing after
  EXPECT_FALSE(parse_tcp_options(ByteSpan{no_len, 1}));
}

TEST(TcpOptions, BuilderProducesParseableSyn) {
  PacketBuilder b;
  const Packet p =
      b.eth(MacAddr::from_index(1), MacAddr::from_index(2))
          .ipv4(Ipv4Addr::of(10, 0, 0, 1), Ipv4Addr::of(10, 0, 0, 2),
                ipproto::kTcp)
          .tcp(40000, 443, 1000, 0, TcpFlags::kSyn)
          .tcp_options({tcp_option_mss(1460), tcp_option_sack_permitted(),
                        tcp_option_window_scale(7)})
          .build();
  const auto parsed = parse_packet(p.bytes());
  ASSERT_TRUE(parsed);
  ASSERT_EQ(parsed->l4, L4Kind::kTcp);
  EXPECT_GT(parsed->tcp.header_len(), TcpHeader::kMinSize);
  const ByteSpan area{
      p.data.data() + parsed->l4_offset + TcpHeader::kMinSize,
      parsed->tcp.header_len() - TcpHeader::kMinSize};
  const auto opts = parse_tcp_options(area);
  ASSERT_TRUE(opts);
  EXPECT_EQ(tcp_mss_of(*opts), 1460);
  EXPECT_EQ(tcp_window_scale_of(*opts), 7);
  // L4 checksum still validates over the extended header.
  Bytes l4 = to_bytes(p.bytes().subspan(parsed->l4_offset));
  const std::uint16_t stored = load_be16(l4.data() + 16);
  store_be16(l4.data() + 16, 0);
  EXPECT_EQ(stored,
            l4_checksum_v4(parsed->ipv4.src, parsed->ipv4.dst, ipproto::kTcp,
                           ByteSpan{l4.data(), l4.size()}));
}

TEST(TcpOptions, BuilderRejectsMisuse) {
  PacketBuilder b;
  EXPECT_THROW(b.tcp_options({tcp_option_mss(1)}), std::logic_error);
  PacketBuilder b2;
  b2.eth(MacAddr::from_index(1), MacAddr::from_index(2))
      .ipv4(Ipv4Addr::of(1, 1, 1, 1), Ipv4Addr::of(2, 2, 2, 2), ipproto::kTcp)
      .tcp(1, 2);
  std::vector<TcpOption> too_many(12, tcp_option_mss(1));
  EXPECT_THROW(b2.tcp_options(too_many), std::invalid_argument);
}

// --------------------------------------------------------- trace synth

TEST(Synth, ProducesRequestedFramesAndTiming) {
  gen::TemplateConfig tc;
  gen::TemplateSource src{tc, std::make_unique<gen::FixedSize>(256)};
  gen::ConstantGap gaps;
  gen::SynthSpec spec;
  spec.frames = 100;
  spec.mean_gap_ns = 500;
  spec.start_ns = 10'000;
  const auto trace = gen::synthesize_trace(src, gaps, spec);
  ASSERT_EQ(trace.size(), 100u);
  EXPECT_EQ(trace[0].ts_nanos, 10'000u);
  EXPECT_EQ(trace[1].ts_nanos - trace[0].ts_nanos, 500u);
  EXPECT_EQ(trace.back().ts_nanos, 10'000u + 99u * 500u);
}

TEST(Synth, ThrowsWhenSourceRunsDry) {
  gen::TemplateConfig tc;
  tc.count = 5;
  gen::TemplateSource src{tc, std::make_unique<gen::FixedSize>(64)};
  gen::ConstantGap gaps;
  gen::SynthSpec spec;
  spec.frames = 10;
  EXPECT_THROW((void)gen::synthesize_trace(src, gaps, spec),
               std::invalid_argument);
}

TEST(Synth, FileRoundTrip) {
  const std::string path =
      "/tmp/osnt_synth_" + std::to_string(::getpid()) + ".pcap";
  gen::TemplateConfig tc;
  gen::TemplateSource src{tc, std::make_unique<gen::ImixSize>()};
  gen::PoissonGap gaps;
  gen::SynthSpec spec;
  spec.frames = 50;
  EXPECT_EQ(gen::synthesize_trace_file(path, src, gaps, spec), 50u);
  EXPECT_EQ(net::PcapReader::read_all(path).size(), 50u);
  std::remove(path.c_str());
}

// -------------------------------------------------------------- jumbo

TEST(Jumbo, EndToEndWithOversizeEnabled) {
  sim::Engine eng;
  core::DeviceConfig cfg;
  cfg.port.rx.accept_oversize = true;
  core::OsntDevice dev{eng, cfg};
  hw::connect(dev.port(0), dev.port(1));
  net::PacketBuilder b;
  auto jumbo = b.eth(MacAddr::from_index(1), MacAddr::from_index(2))
                   .ipv4(Ipv4Addr::of(10, 0, 0, 1), Ipv4Addr::of(10, 0, 1, 1),
                         ipproto::kUdp)
                   .udp(1024, 5001)
                   .pad_to_frame(9000)
                   .build();
  (void)dev.port(0).tx().transmit(std::move(jumbo));
  eng.run();
  EXPECT_EQ(dev.rx(1).seen(), 1u);
  ASSERT_EQ(dev.capture().size(), 1u);
  EXPECT_EQ(dev.capture().records()[0].orig_len, 8996u);
}

TEST(Jumbo, DefaultMacRejects) {
  sim::Engine eng;
  core::OsntDevice dev{eng};
  hw::connect(dev.port(0), dev.port(1));
  net::PacketBuilder b;
  auto jumbo = b.eth(MacAddr::from_index(1), MacAddr::from_index(2))
                   .ipv4(Ipv4Addr::of(10, 0, 0, 1), Ipv4Addr::of(10, 0, 1, 1),
                         ipproto::kUdp)
                   .udp(1024, 5001)
                   .pad_to_frame(9000)
                   .build();
  (void)dev.port(0).tx().transmit(std::move(jumbo));
  eng.run();
  EXPECT_EQ(dev.rx(1).seen(), 0u);
  EXPECT_EQ(dev.port(1).rx().giants(), 1u);
}

}  // namespace
}  // namespace osnt
