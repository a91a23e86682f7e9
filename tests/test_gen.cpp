// Traffic generation: rate math, gap/size models, template source, PCAP
// replay, and the TX pipeline driving a real MAC.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "osnt/gen/models.hpp"
#include "osnt/gen/rate.hpp"
#include "osnt/gen/replay.hpp"
#include "osnt/gen/template_gen.hpp"
#include "osnt/gen/tx_pipeline.hpp"
#include "osnt/hw/port.hpp"
#include "osnt/net/builder.hpp"
#include "osnt/net/checksum.hpp"
#include "osnt/net/parser.hpp"
#include "osnt/tstamp/clock.hpp"

namespace osnt::gen {
namespace {

// ------------------------------------------------------------------ rate

TEST(RateController, FullLineRateEqualsAirTime) {
  RateController rc{RateSpec::line_rate(1.0)};
  // 64 B frame → 84 B line → 67.2 ns.
  EXPECT_EQ(rc.departure_interval(84), 67'200);
  EXPECT_NEAR(rc.offered_gbps(84), 10.0, 1e-9);
}

TEST(RateController, HalfLineRateDoublesInterval) {
  RateController rc{RateSpec::line_rate(0.5)};
  EXPECT_EQ(rc.departure_interval(84), 134'400);
  EXPECT_NEAR(rc.offered_gbps(84), 5.0, 1e-9);
}

TEST(RateController, GbpsMode) {
  RateController rc{RateSpec::gbps(1.0)};
  EXPECT_NEAR(rc.offered_gbps(84), 1.0, 1e-9);
}

TEST(RateController, PpsMode) {
  RateController rc{RateSpec::pps(1'000'000)};
  EXPECT_EQ(rc.departure_interval(84), kPicosPerMicro);
}

TEST(RateController, GapMode) {
  RateController rc{RateSpec::gap_ns(100)};
  EXPECT_EQ(rc.departure_interval(84), 67'200 + 100'000);
}

TEST(RateController, NeverExceedsLineRate) {
  RateController rc{RateSpec::pps(100'000'000)};  // absurd pps
  EXPECT_GE(rc.departure_interval(84), 67'200);
}

// ------------------------------------------------------------- gap models

TEST(GapModels, ConstantIsExact) {
  Rng rng{1};
  ConstantGap g;
  EXPECT_EQ(g.sample(rng, 1000, 10), 1000);
  EXPECT_EQ(g.sample(rng, 5, 10), 10);  // clamped to air time
}

TEST(GapModels, PoissonPreservesMean) {
  Rng rng{2};
  PoissonGap g;
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    sum += static_cast<double>(g.sample(rng, 1'000'000, 1));
  EXPECT_NEAR(sum / n, 1e6, 1e4);
}

TEST(GapModels, BurstAlternatesLineRateAndIdle) {
  Rng rng{3};
  BurstGap g{4};
  const Picos mean = 1000, air = 100;
  Picos total = 0;
  int line_rate_gaps = 0;
  for (int i = 0; i < 4; ++i) {
    const Picos s = g.sample(rng, mean, air);
    total += s;
    if (s == air) ++line_rate_gaps;
  }
  EXPECT_EQ(line_rate_gaps, 3);       // 3 back-to-back + 1 idle
  EXPECT_EQ(total, 4 * mean);         // long-run mean preserved
}

// ------------------------------------------------------------ size models

TEST(SizeModels, FixedAlwaysSame) {
  Rng rng{1};
  FixedSize s{512};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(s.sample(rng), 512u);
}

TEST(SizeModels, ImixMixtureRatios) {
  Rng rng{4};
  ImixSize s;
  int small = 0, mid = 0, big = 0;
  const int n = 120000;
  for (int i = 0; i < n; ++i) {
    switch (s.sample(rng)) {
      case 64: ++small; break;
      case 594: ++mid; break;
      case 1518: ++big; break;
      default: FAIL() << "unexpected IMIX size";
    }
  }
  EXPECT_NEAR(static_cast<double>(small) / n, 7.0 / 12, 0.01);
  EXPECT_NEAR(static_cast<double>(mid) / n, 4.0 / 12, 0.01);
  EXPECT_NEAR(static_cast<double>(big) / n, 1.0 / 12, 0.01);
}

// -------------------------------------------------------- template source

TEST(TemplateSource, ProducesRequestedCount) {
  TemplateConfig tc;
  tc.count = 5;
  TemplateSource src{tc, std::make_unique<FixedSize>(64)};
  int n = 0;
  while (src.next()) ++n;
  EXPECT_EQ(n, 5);
  src.rewind();
  EXPECT_TRUE(src.next());
}

TEST(TemplateSource, FramesAreValidUdp) {
  TemplateConfig tc;
  tc.count = 3;
  TemplateSource src{tc, std::make_unique<FixedSize>(256)};
  while (auto tp = src.next()) {
    EXPECT_EQ(tp->pkt.wire_len(), 256u);
    const auto parsed = net::parse_packet(tp->pkt.bytes());
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->l4, net::L4Kind::kUdp);
    EXPECT_FALSE(tp->gap_hint);  // synthetic: rate controller paces
  }
}

TEST(TemplateSource, FlowsRotate) {
  TemplateConfig tc;
  tc.count = 4;
  tc.flow_count = 2;
  tc.vary_dst_ip = true;
  TemplateSource src{tc, std::make_unique<FixedSize>(128)};
  std::vector<std::uint32_t> dsts;
  while (auto tp = src.next()) {
    const auto parsed = net::parse_packet(tp->pkt.bytes());
    dsts.push_back(parsed->ipv4.dst.v);
  }
  ASSERT_EQ(dsts.size(), 4u);
  EXPECT_EQ(dsts[0], dsts[2]);
  EXPECT_EQ(dsts[1], dsts[3]);
  EXPECT_EQ(dsts[1], dsts[0] + 1);
}

TEST(TemplateSource, VlanTagging) {
  TemplateConfig tc;
  tc.count = 1;
  tc.vlan_id = 42;
  TemplateSource src{tc, std::make_unique<FixedSize>(128)};
  const auto tp = src.next();
  ASSERT_TRUE(tp);
  const auto parsed = net::parse_packet(tp->pkt.bytes());
  ASSERT_TRUE(parsed && parsed->vlan);
  EXPECT_EQ(parsed->vlan->vid, 42);
}

TEST(TemplateSource, NullSizeModelThrows) {
  EXPECT_THROW(TemplateSource(TemplateConfig{}, nullptr),
               std::invalid_argument);
}

TEST(TemplateSource, FlowCountMustFitThePortRange) {
  const auto make = [](std::uint32_t flows, std::uint16_t src_port) {
    TemplateConfig tc;
    tc.flow_count = flows;
    tc.src_port = src_port;
    return TemplateSource{tc, std::make_unique<FixedSize>(64)};
  };
  EXPECT_EQ(TemplateConfig{}.max_flows(), 64512u);
  EXPECT_NO_THROW(make(64512, 1024));
  EXPECT_NO_THROW(make(65536, 0));
  EXPECT_NO_THROW(make(1, 65535));
  EXPECT_THROW(make(0, 1024), std::invalid_argument);
  EXPECT_THROW(make(64513, 1024), std::invalid_argument);
  EXPECT_THROW(make(2, 65535), std::invalid_argument);
}

TEST(TemplateSource, EveryFlowHasItsOwnSourcePort) {
  // Flows past 1024 once wrapped back onto the first 1024 ports.
  TemplateConfig tc;
  tc.flow_count = 2000;
  tc.count = 2000;
  TemplateSource src{tc, std::make_unique<FixedSize>(64)};
  std::set<std::uint16_t> ports;
  while (auto tp = src.next()) {
    ports.insert(net::parse_packet(tp->pkt.bytes())->udp.src_port);
  }
  ASSERT_EQ(ports.size(), 2000u);
  EXPECT_EQ(*ports.begin(), 1024u);
  EXPECT_EQ(*ports.rbegin(), 1024u + 1999u);
}

TEST(TemplateSource, EveryFrameCarriesItsFlowsTuple) {
  for (const bool vary_dst_ip : {false, true}) {
    TemplateConfig tc;
    tc.flow_count = 8;
    tc.count = 16;
    tc.vary_dst_ip = vary_dst_ip;
    TemplateSource src{tc, std::make_unique<FixedSize>(128)};
    for (std::uint32_t i = 0; auto tp = src.next(); ++i) {
      const auto tuple = net::extract_flow(tp->pkt.bytes());
      ASSERT_TRUE(tuple);
      EXPECT_EQ(*tuple, tc.flow(i % 8)) << "frame " << i;
    }
  }
}

/// The per-frame PacketBuilder chain TemplateSource replaced, kept as the
/// reference its header template must match byte for byte.
net::Packet reference_frame(const TemplateConfig& tc, std::uint32_t flow,
                            std::size_t frame_len) {
  net::PacketBuilder b;
  b.eth(tc.src_mac, tc.dst_mac);
  if (tc.vlan_id != 0) b.vlan(tc.vlan_id);
  net::Ipv4Addr dst = tc.dst_ip;
  if (tc.vary_dst_ip) dst.v += flow;
  b.ipv4(tc.src_ip, dst, net::ipproto::kUdp);
  b.udp(static_cast<std::uint16_t>(tc.src_port + flow), tc.dst_port);
  b.pad_to_frame(frame_len);
  return b.build();
}

/// Uniform sizes in [lo, hi]: they change per frame and, drawn from a
/// wide enough range, cross both of TemplateSource's clamps.
class UniformSize final : public SizeModel {
 public:
  UniformSize(std::size_t lo, std::size_t hi) noexcept : lo_(lo), hi_(hi) {}
  [[nodiscard]] std::size_t sample(Rng& rng) override {
    return static_cast<std::size_t>(rng.uniform_int(lo_, hi_));
  }

 private:
  std::size_t lo_, hi_;
};

std::unique_ptr<SizeModel> size_model(int kind, std::size_t a, std::size_t b) {
  switch (kind) {
    case 0:
      return std::make_unique<FixedSize>(a);
    case 1:
      return std::make_unique<ImixSize>();
    default:
      return std::make_unique<UniformSize>(std::min(a, b), std::max(a, b));
  }
}

TEST(TemplateSource, MatchesTheBuilderChainOnRandomConfigs) {
  Rng rng{20261017};
  std::size_t frames = 0;
  for (int i = 0; i < 48; ++i) {
    TemplateConfig tc;
    for (auto& byte : tc.src_mac.b) byte = static_cast<std::uint8_t>(rng());
    for (auto& byte : tc.dst_mac.b) byte = static_cast<std::uint8_t>(rng());
    tc.src_ip = net::Ipv4Addr{static_cast<std::uint32_t>(rng())};
    tc.dst_ip = net::Ipv4Addr{static_cast<std::uint32_t>(rng())};
    tc.vlan_id = (i & 1) ? static_cast<std::uint16_t>(rng.uniform_int(1, 4095))
                         : 0;
    tc.vary_dst_ip = (i & 2) != 0;
    tc.flow_count = static_cast<std::uint32_t>(rng.uniform_int(1, 3000));
    tc.src_port = static_cast<std::uint16_t>(
        rng.uniform_int(0, 65536 - tc.flow_count));
    tc.dst_port = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    tc.seed = rng();
    // Sizes below 64 and above 1518 exercise the clamp.
    const int kind = i / 4 % 3;
    const std::size_t a = rng.uniform_int(1, 1600);
    const std::size_t b = rng.uniform_int(1, 1600);
    TemplateSource src{tc, size_model(kind, a, b)};
    // A second copy of the size model, on its own rng, predicts lengths.
    auto sizes = size_model(kind, a, b);
    Rng size_rng{tc.seed};

    const std::uint32_t n = std::min(tc.flow_count, 1000u) + 100;
    for (std::uint32_t k = 0; k < n; ++k) {
      const auto tp = src.next();
      ASSERT_TRUE(tp);
      const std::size_t len =
          std::clamp(sizes->sample(size_rng), net::kEthMinFrame,
                     std::size_t{net::kEthMaxFrame});
      const net::Packet want = reference_frame(tc, k % tc.flow_count, len);
      ASSERT_EQ(tp->pkt.data, want.data)
          << "config " << i << " frame " << k << " (" << len << " B)";
      ASSERT_EQ(tp->pkt.id, k);

      const auto p = net::parse_packet(tp->pkt.bytes());
      ASSERT_TRUE(p && p->l4 == net::L4Kind::kUdp);
      const ByteSpan ip{tp->pkt.data.data() + p->l3_offset,
                        net::Ipv4Header::kMinSize};
      EXPECT_EQ(net::internet_checksum(ip), 0u);
      const ByteSpan l4{tp->pkt.data.data() + p->l4_offset,
                        tp->pkt.size() - p->l4_offset};
      EXPECT_EQ(net::l4_checksum_v4(p->ipv4.src, p->ipv4.dst,
                                    net::ipproto::kUdp, l4),
                0u);
      ++frames;
    }
  }
  EXPECT_GE(frames, 10000u);
}

TEST(TemplateSource, ZeroUdpChecksumIsSentAsAllOnes) {
  // RFC 768: a computed 0 goes out as 0xFFFF, since 0 means "none". Pick
  // dst_port so that it completes the rest of the sum to 0xFFFF.
  TemplateConfig tc;
  tc.count = 1;
  const std::uint16_t udp_len = 64 - 4 - 14 - 20;
  net::InternetChecksum rest;
  rest.add_u32(tc.src_ip.v);
  rest.add_u32(tc.dst_ip.v);
  rest.add_u16(net::ipproto::kUdp);
  rest.add_u16(udp_len);
  rest.add_u16(tc.src_port);
  rest.add_u16(udp_len);
  tc.dst_port = rest.fold();
  TemplateSource src{tc, std::make_unique<FixedSize>(64)};
  const auto tp = src.next();
  ASSERT_TRUE(tp);
  EXPECT_EQ(load_be16(tp->pkt.data.data() + 14 + 20 + 6), 0xFFFFu);
  EXPECT_EQ(tp->pkt.data, reference_frame(tc, 0, 64).data);
}

// ------------------------------------------------------------ pcap replay

std::vector<net::PcapRecord> make_trace(std::size_t n, std::uint64_t gap_ns) {
  std::vector<net::PcapRecord> recs;
  TemplateConfig tc;
  tc.count = n;
  TemplateSource src{tc, std::make_unique<FixedSize>(128)};
  std::uint64_t t = 1'000'000;
  while (auto tp = src.next()) {
    net::PcapRecord r;
    r.ts_nanos = t;
    t += gap_ns;
    r.orig_len = static_cast<std::uint32_t>(tp->pkt.size());
    r.data = to_bytes(tp->pkt.bytes());
    recs.push_back(std::move(r));
  }
  return recs;
}

TEST(PcapReplay, AsRecordedGaps) {
  PcapReplaySource src{make_trace(3, 500)};
  const auto a = src.next();
  ASSERT_TRUE(a && a->gap_hint);
  EXPECT_EQ(*a->gap_hint, 500 * kPicosPerNano);
}

TEST(PcapReplay, SpeedupDividesGaps) {
  ReplayConfig cfg;
  cfg.speedup = 2.0;
  PcapReplaySource src{make_trace(3, 500), cfg};
  const auto a = src.next();
  ASSERT_TRUE(a && a->gap_hint);
  EXPECT_EQ(*a->gap_hint, 250 * kPicosPerNano);
}

TEST(PcapReplay, LoopsThroughTrace) {
  ReplayConfig cfg;
  cfg.loops = 3;
  PcapReplaySource src{make_trace(2, 100), cfg};
  int n = 0;
  while (src.next()) ++n;
  EXPECT_EQ(n, 6);
}

TEST(PcapReplay, IgnoreTimingLeavesNoHints) {
  ReplayConfig cfg;
  cfg.timing = ReplayTiming::kIgnore;
  PcapReplaySource src{make_trace(2, 100), cfg};
  EXPECT_FALSE(src.next()->gap_hint);
}

TEST(PcapReplay, EmptyTraceThrows) {
  EXPECT_THROW(PcapReplaySource(std::vector<net::PcapRecord>{}),
               std::invalid_argument);
}

// ------------------------------------------------------------ tx pipeline

struct TxFixture {
  sim::Engine eng;
  hw::EthPort a{eng}, b{eng};
  tstamp::GpsModel gps;
  tstamp::DisciplinedClock clock{gps};
  std::vector<net::Packet> received;

  TxFixture() {
    hw::connect(a, b);
    b.rx().set_handler([this](net::Packet p, Picos, Picos) {
      received.push_back(std::move(p));
    });
  }
};

TEST(TxPipeline, SendsAllFramesAtLineRate) {
  TxFixture f;
  gen::TxConfig cfg;
  cfg.rate = RateSpec::line_rate(1.0);
  TxPipeline tx{f.eng, f.a.tx(), f.clock, cfg};
  TemplateConfig tc;
  tc.count = 100;
  tx.set_source(std::make_unique<TemplateSource>(
      tc, std::make_unique<FixedSize>(64)));
  tx.start();
  f.eng.run();
  EXPECT_EQ(tx.frames_sent(), 100u);
  EXPECT_EQ(f.received.size(), 100u);
  EXPECT_NEAR(tx.achieved_gbps(), 10.0, 0.05);
}

TEST(TxPipeline, RateAccuracyAtFraction) {
  TxFixture f;
  gen::TxConfig cfg;
  cfg.rate = RateSpec::line_rate(0.4);
  TxPipeline tx{f.eng, f.a.tx(), f.clock, cfg};
  TemplateConfig tc;
  tc.count = 1000;
  tx.set_source(std::make_unique<TemplateSource>(
      tc, std::make_unique<FixedSize>(512)));
  tx.start();
  f.eng.run();
  EXPECT_NEAR(tx.achieved_gbps(), 4.0, 0.05);
}

TEST(TxPipeline, EmbedsMonotonicSequence) {
  TxFixture f;
  TxPipeline tx{f.eng, f.a.tx(), f.clock};
  TemplateConfig tc;
  tc.count = 10;
  tx.set_source(std::make_unique<TemplateSource>(
      tc, std::make_unique<FixedSize>(128)));
  tx.start();
  f.eng.run();
  ASSERT_EQ(f.received.size(), 10u);
  std::uint32_t expected = 0;
  for (const auto& p : f.received) {
    const auto stamp =
        tstamp::extract_timestamp(p.bytes(), tstamp::kDefaultEmbedOffset);
    ASSERT_TRUE(stamp);
    EXPECT_EQ(stamp->seq, expected++);
  }
}

TEST(TxPipeline, StopHaltsGeneration) {
  TxFixture f;
  gen::TxConfig cfg;
  cfg.rate = RateSpec::pps(1'000'000);
  TxPipeline tx{f.eng, f.a.tx(), f.clock, cfg};
  TemplateConfig tc;  // unbounded
  tx.set_source(std::make_unique<TemplateSource>(
      tc, std::make_unique<FixedSize>(64)));
  tx.start();
  f.eng.run_until(100 * kPicosPerMicro);
  tx.stop();
  f.eng.run();
  EXPECT_NEAR(static_cast<double>(tx.frames_sent()), 100.0, 2.0);
}

TEST(TxPipeline, StartWithoutSourceThrows) {
  TxFixture f;
  TxPipeline tx{f.eng, f.a.tx(), f.clock};
  EXPECT_THROW(tx.start(), std::logic_error);
}

TEST(TxPipeline, GapHintsOverrideRate) {
  TxFixture f;
  gen::TxConfig cfg;
  cfg.rate = RateSpec::line_rate(1.0);  // would be back-to-back
  TxPipeline tx{f.eng, f.a.tx(), f.clock, cfg};
  auto trace = make_trace(5, 10'000);  // 10 µs recorded gaps
  tx.set_source(std::make_unique<PcapReplaySource>(std::move(trace)));
  tx.start();
  f.eng.run();
  EXPECT_EQ(tx.frames_sent(), 5u);
  // 5 frames with 10 µs spacing → last departure ≈ 40 µs.
  EXPECT_NEAR(static_cast<double>(tx.last_departure()),
              4.0 * 10'000 * 1000.0, 1'000'000.0);
}

}  // namespace
}  // namespace osnt::gen
