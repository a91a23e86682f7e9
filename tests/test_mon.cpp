// Monitor subsystem: filter TCAM semantics, cutter/hash, stats block,
// and the RX pipeline end-to-end with the loss-limited DMA path.
#include <gtest/gtest.h>

#include <algorithm>

#include "osnt/common/crc.hpp"
#include "osnt/hw/port.hpp"
#include "osnt/mon/capture.hpp"
#include "osnt/mon/cutter.hpp"
#include "osnt/mon/filter.hpp"
#include "osnt/mon/rx_pipeline.hpp"
#include "osnt/net/builder.hpp"
#include "osnt/tstamp/clock.hpp"
#include "osnt/tstamp/embed.hpp"

namespace osnt::mon {
namespace {

net::Packet udp_frame(std::uint32_t dst_ip, std::uint16_t dport,
                      std::size_t size = 128) {
  net::PacketBuilder b;
  return b.eth(net::MacAddr::from_index(1), net::MacAddr::from_index(2))
      .ipv4(net::Ipv4Addr::of(10, 0, 0, 1), net::Ipv4Addr{dst_ip},
            net::ipproto::kUdp)
      .udp(1024, dport)
      .pad_to_frame(size)
      .build();
}

net::ParsedPacket parsed(const net::Packet& p) {
  auto r = net::parse_packet(p.bytes());
  EXPECT_TRUE(r);
  return *r;
}

// ---------------------------------------------------------------- filter

TEST(FilterTable, EmptyTableCapturesAll) {
  FilterTable t;
  const auto v = t.classify(parsed(udp_frame(0x0A000101, 53)));
  EXPECT_TRUE(v.capture);
  EXPECT_FALSE(v.rule);
}

TEST(FilterTable, NonEmptyTableDropsMisses) {
  FilterTable t;
  FilterRule r;
  r.dst_port = 53;
  ASSERT_TRUE(t.add(r));
  EXPECT_TRUE(t.classify(parsed(udp_frame(1, 53))).capture);
  EXPECT_FALSE(t.classify(parsed(udp_frame(1, 80))).capture);
  EXPECT_EQ(t.misses(), 1u);
}

TEST(FilterTable, FirstMatchWins) {
  FilterTable t;
  FilterRule drop;
  drop.dst_port = 53;
  drop.action = FilterAction::kDrop;
  FilterRule all;  // matches everything
  t.add(drop);
  t.add(all);
  EXPECT_FALSE(t.classify(parsed(udp_frame(1, 53))).capture);
  EXPECT_TRUE(t.classify(parsed(udp_frame(1, 80))).capture);
  EXPECT_EQ(t.hits(0), 1u);
  EXPECT_EQ(t.hits(1), 1u);
}

TEST(FilterTable, IpPrefixMatch) {
  FilterTable t;
  FilterRule r;
  r.dst_ip = (10u << 24) | (1u << 16);  // 10.1.0.0/16
  r.dst_ip_mask = 0xFFFF0000;
  t.add(r);
  EXPECT_TRUE(t.classify(parsed(udp_frame((10u << 24) | (1u << 16) | 7, 1))).capture);
  EXPECT_FALSE(t.classify(parsed(udp_frame((10u << 24) | (2u << 16) | 7, 1))).capture);
}

TEST(FilterTable, ProtocolMatch) {
  FilterTable t;
  FilterRule r;
  r.protocol = net::ipproto::kTcp;
  t.add(r);
  EXPECT_FALSE(t.classify(parsed(udp_frame(1, 53))).capture);
  net::PacketBuilder b;
  const auto tcp = b.eth(net::MacAddr::from_index(1), net::MacAddr::from_index(2))
                       .ipv4(net::Ipv4Addr::of(1, 1, 1, 1),
                             net::Ipv4Addr::of(2, 2, 2, 2), net::ipproto::kTcp)
                       .tcp(1, 2)
                       .build();
  EXPECT_TRUE(t.classify(parsed(tcp)).capture);
}

TEST(FilterTable, EthertypeAndVlan) {
  FilterTable t;
  FilterRule r;
  r.vlan_id = 42;
  t.add(r);
  net::PacketBuilder b;
  const auto tagged =
      b.eth(net::MacAddr::from_index(1), net::MacAddr::from_index(2))
          .vlan(42)
          .ipv4(net::Ipv4Addr::of(1, 1, 1, 1), net::Ipv4Addr::of(2, 2, 2, 2),
                net::ipproto::kUdp)
          .udp(1, 2)
          .build();
  EXPECT_TRUE(t.classify(parsed(tagged)).capture);
  EXPECT_FALSE(t.classify(parsed(udp_frame(1, 2))).capture);
}

TEST(FilterTable, PortMatchOnPortlessPacketFails) {
  FilterTable t;
  FilterRule r;
  r.src_port = 1024;
  t.add(r);
  net::PacketBuilder b;
  const auto icmp =
      b.eth(net::MacAddr::from_index(1), net::MacAddr::from_index(2))
          .ipv4(net::Ipv4Addr::of(1, 1, 1, 1), net::Ipv4Addr::of(2, 2, 2, 2),
                net::ipproto::kIcmp)
          .icmp_echo(1, 1)
          .build();
  EXPECT_FALSE(t.classify(parsed(icmp)).capture);
}

TEST(FilterTable, CapacityBounded) {
  FilterTable t;
  for (std::size_t i = 0; i < FilterTable::kMaxRules; ++i)
    EXPECT_TRUE(t.add(FilterRule{}));
  EXPECT_FALSE(t.add(FilterRule{}));
  t.clear();
  EXPECT_TRUE(t.add(FilterRule{}));
}

// ---------------------------------------------------------------- cutter

TEST(Cutter, DisabledKeepsFullFrame) {
  PacketCutter c;
  const auto p = udp_frame(1, 1, 512);
  const auto r = c.process(p.bytes());
  EXPECT_EQ(r.data.size(), p.size());
  EXPECT_EQ(r.orig_len, p.size());
}

TEST(Cutter, SnapsToLength) {
  CutterConfig cfg;
  cfg.snap_len = 64;
  PacketCutter c{cfg};
  const auto p = udp_frame(1, 1, 1518);
  const auto r = c.process(p.bytes());
  EXPECT_EQ(r.data.size(), 64u);
  EXPECT_EQ(r.orig_len, p.size());
}

TEST(Cutter, HashCoversFullFrame) {
  CutterConfig cfg;
  cfg.snap_len = 32;
  PacketCutter c{cfg};
  const auto p = udp_frame(1, 1, 256);
  const auto r = c.process(p.bytes());
  EXPECT_EQ(r.hash, crc32(p.bytes()));  // not the hash of the cut prefix
  EXPECT_NE(r.hash, crc32(ByteSpan{r.data.data(), r.data.size()}));
}

TEST(Cutter, SnapLongerThanFrameIsNoop) {
  CutterConfig cfg;
  cfg.snap_len = 10'000;
  PacketCutter c{cfg};
  const auto p = udp_frame(1, 1, 128);
  EXPECT_EQ(c.process(p.bytes()).data.size(), p.size());
}

// ------------------------------------------------------------ stats block

TEST(StatsBlock, SizeBinsAndProtocols) {
  StatsBlock s;
  s.record(parsed(udp_frame(1, 1, 64)), 64, 0);
  s.record(parsed(udp_frame(1, 1, 100)), 100, 1000);
  s.record(parsed(udp_frame(1, 1, 1518)), 1518, 2000);
  EXPECT_EQ(s.frames(), 3u);
  EXPECT_EQ(s.size_bins().p64, 1u);
  EXPECT_EQ(s.size_bins().p65_127, 1u);
  EXPECT_EQ(s.size_bins().p1024_1518, 1u);
  EXPECT_EQ(s.protocols().ipv4, 3u);
  EXPECT_EQ(s.protocols().udp, 3u);
}

TEST(StatsBlock, MeanRates) {
  StatsBlock s;
  // Two 64 B frames 67.2 ns apart = line rate.
  s.record(parsed(udp_frame(1, 1, 64)), 64, 0);
  s.record(parsed(udp_frame(1, 1, 64)), 64, 67'200);
  EXPECT_NEAR(s.mean_gbps(), 10.0, 0.01);
  EXPECT_NEAR(s.mean_pps(), 14'880'952.0, 100.0);
}

// ------------------------------------------------------------ rx pipeline

struct RxFixture {
  sim::Engine eng;
  hw::EthPort src{eng}, dst{eng};
  tstamp::GpsModel gps;
  tstamp::DisciplinedClock clock{gps};
  hw::DmaEngine dma{eng};
  HostCapture host{dma};
  RxPipeline rx;

  explicit RxFixture(RxConfig cfg = RxConfig())
      : rx(eng, dst.rx(), clock, dma, cfg) {
    hw::connect(src, dst);
  }
};

TEST(RxPipeline, CapturesToHost) {
  RxFixture f;
  (void)f.src.tx().transmit(udp_frame(1, 53));
  f.eng.run();
  EXPECT_EQ(f.rx.seen(), 1u);
  EXPECT_EQ(f.rx.captured(), 1u);
  ASSERT_EQ(f.host.size(), 1u);
  EXPECT_EQ(f.host.records()[0].orig_len, 124u);
}

TEST(RxPipeline, TimestampAtMacReceipt) {
  RxFixture f;
  (void)f.src.tx().transmit(udp_frame(1, 53, 1518));
  f.eng.run();
  ASSERT_EQ(f.host.size(), 1u);
  // Stamp ≈ first-bit arrival = propagation delay (not +1.2 µs of frame).
  const double expect_ns = to_nanos(sim::fiber_delay(2.0));
  EXPECT_NEAR(f.host.records()[0].ts.to_nanos(), expect_ns, 10.0);
}

TEST(RxPipeline, FilterDropsBeforeDma) {
  RxConfig cfg;
  RxFixture f{cfg};
  FilterRule keep;
  keep.dst_port = 53;
  f.rx.filters().add(keep);
  (void)f.src.tx().transmit(udp_frame(1, 53));
  (void)f.src.tx().transmit(udp_frame(1, 80));
  f.eng.run();
  EXPECT_EQ(f.rx.seen(), 2u);
  EXPECT_EQ(f.rx.captured(), 1u);
  EXPECT_EQ(f.rx.filtered_out(), 1u);
  EXPECT_EQ(f.host.size(), 1u);
}

TEST(RxPipeline, CutterAppliesSnap) {
  RxConfig cfg;
  cfg.cutter.snap_len = 48;
  RxFixture f{cfg};
  (void)f.src.tx().transmit(udp_frame(1, 53, 512));
  f.eng.run();
  ASSERT_EQ(f.host.size(), 1u);
  EXPECT_EQ(f.host.records()[0].data.size(), 48u);
  EXPECT_EQ(f.host.records()[0].orig_len, 508u);
}

TEST(RxPipeline, CaptureDisabledStillCounts) {
  RxConfig cfg;
  cfg.capture_enabled = false;
  RxFixture f{cfg};
  (void)f.src.tx().transmit(udp_frame(1, 53));
  f.eng.run();
  EXPECT_EQ(f.rx.seen(), 1u);
  EXPECT_EQ(f.rx.captured(), 0u);
  EXPECT_EQ(f.host.size(), 0u);
  EXPECT_EQ(f.rx.stats().frames(), 1u);
}

TEST(RxPipeline, DmaOverloadDropsNotBackpressures) {
  sim::Engine eng;
  hw::EthPort src{eng}, dst{eng};
  hw::connect(src, dst);
  tstamp::GpsModel gps;
  tstamp::DisciplinedClock clock{gps};
  hw::DmaConfig dcfg;
  dcfg.gbps = 0.5;  // far below the 10G wire
  dcfg.ring_entries = 8;
  hw::DmaEngine dma{eng, dcfg};
  HostCapture host{dma};
  RxConfig cfg;
  cfg.cutter.snap_len = 64;
  RxPipeline rx{eng, dst.rx(), clock, dma, cfg};
  // Distinct 1518 B frames (dst IP = index, random payload), so every
  // record can be traced back to the frame it was cut from.
  std::vector<Bytes> sent;
  for (std::uint32_t i = 0; i < 200; ++i) {
    net::PacketBuilder b;
    b.eth(net::MacAddr::from_index(1), net::MacAddr::from_index(2))
        .ipv4(net::Ipv4Addr::of(10, 0, 0, 1), net::Ipv4Addr{i},
              net::ipproto::kUdp)
        .udp(1024, 53)
        .payload_random(1518 - 4 - 42, i);
    net::Packet p = b.build();
    sent.push_back(to_bytes(p.bytes()));
    (void)src.tx().transmit(std::move(p));
  }
  eng.run();
  EXPECT_EQ(rx.seen(), 200u);           // the wire never lost a frame
  EXPECT_GT(rx.dma_drops(), 0u);        // but the host path did
  EXPECT_LT(host.size(), 200u);
  EXPECT_EQ(host.size() + rx.dma_drops(), 200u);
  // The ring is asked before the cutter runs: each refusal is counted
  // once on each side, and every admitted record carries the hash of
  // the whole frame it was cut from.
  EXPECT_EQ(rx.dma_drops(), dma.drops_ring_full());
  EXPECT_EQ(rx.captured(), dma.records_delivered());
  ASSERT_EQ(host.size(), rx.captured());
  for (const CaptureRecord& rec : host.records()) {
    ASSERT_EQ(rec.data.size(), 64u);
    const auto parsed = net::parse_packet(rec.data);
    ASSERT_TRUE(parsed);
    const Bytes& frame = sent.at(parsed->ipv4.dst.v);
    EXPECT_EQ(rec.orig_len, frame.size());
    EXPECT_EQ(rec.hash, crc32(frame));
    EXPECT_TRUE(std::equal(rec.data.begin(), rec.data.end(), frame.begin()));
  }
}

// ------------------------------------------------------------ host decode

TEST(HostCapture, SequenceReportFindsLossAndReorder) {
  sim::Engine eng;
  hw::DmaEngine dma{eng};
  HostCapture host{dma};
  auto push = [&](std::uint32_t seq) {
    net::Packet p = udp_frame(1, 53);
    tstamp::embed_timestamp(p.mut_bytes(), tstamp::kDefaultEmbedOffset,
                            {tstamp::Timestamp::from_seconds(1.0), seq});
    CaptureRecord rec;
    rec.data = to_bytes(p.bytes());
    dma.enqueue(std::move(rec).to_dma());
  };
  push(0);
  push(1);
  push(3);  // 2 lost
  push(2);  // reordered
  eng.run();
  const auto rep = host.sequence_report(tstamp::kDefaultEmbedOffset);
  EXPECT_EQ(rep.received, 4u);
  EXPECT_EQ(rep.lost, 0u);  // range 0..3 fully covered after reorder
  EXPECT_EQ(rep.reordered, 1u);
  EXPECT_EQ(rep.max_seq, 3u);
}

TEST(HostCapture, LatencyFromEmbeddedStamps) {
  sim::Engine eng;
  hw::DmaEngine dma{eng};
  HostCapture host{dma};
  net::Packet p = udp_frame(1, 53);
  tstamp::embed_timestamp(p.mut_bytes(), tstamp::kDefaultEmbedOffset,
                          {tstamp::Timestamp::from_seconds(1.0), 0});
  CaptureRecord rec;
  rec.data = to_bytes(p.bytes());
  rec.ts = tstamp::Timestamp::from_seconds(1.000005);  // +5 µs
  dma.enqueue(std::move(rec).to_dma());
  eng.run();
  const auto lat = host.latency_ns(tstamp::kDefaultEmbedOffset);
  ASSERT_EQ(lat.count(), 1u);
  EXPECT_NEAR(lat.samples()[0], 5000.0, 1.0);
}

}  // namespace
}  // namespace osnt::mon
