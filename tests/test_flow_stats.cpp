// Host-side flow statistics collector over (possibly thinned) captures.
#include <gtest/gtest.h>

#include "osnt/core/device.hpp"
#include "osnt/core/measure.hpp"
#include "osnt/mon/flow_stats.hpp"
#include "osnt/net/builder.hpp"

namespace osnt::mon {
namespace {

CaptureRecord make_record(std::uint16_t sport, std::uint32_t orig_len,
                          double ts_seconds) {
  net::PacketBuilder b;
  const auto pkt =
      b.eth(net::MacAddr::from_index(1), net::MacAddr::from_index(2))
          .ipv4(net::Ipv4Addr::of(10, 0, 0, 1), net::Ipv4Addr::of(10, 0, 1, 1),
                net::ipproto::kUdp)
          .udp(sport, 5001)
          .build();
  CaptureRecord rec;
  rec.data = to_bytes(pkt.bytes());
  rec.orig_len = orig_len;
  rec.ts = tstamp::Timestamp::from_seconds(ts_seconds);
  return rec;
}

TEST(FlowStats, AccumulatesPerFlow) {
  FlowStatsCollector c;
  c.add(make_record(1000, 100, 1.0));
  c.add(make_record(1000, 200, 2.0));
  c.add(make_record(2000, 50, 1.5));
  EXPECT_EQ(c.flow_count(), 2u);
  const net::FiveTuple key{net::Ipv4Addr::of(10, 0, 0, 1),
                           net::Ipv4Addr::of(10, 0, 1, 1), 1000, 5001,
                           net::ipproto::kUdp};
  const auto* f = c.find(key);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->packets, 2u);
  EXPECT_EQ(f->bytes, 300u);
  EXPECT_NEAR(f->duration_seconds(), 1.0, 1e-6);
  EXPECT_NEAR(f->mean_rate_bps(), 2400.0, 1.0);
}

TEST(FlowStats, TopByBytesOrdersHeaviestFirst) {
  FlowStatsCollector c;
  c.add(make_record(1000, 100, 1.0));
  c.add(make_record(2000, 500, 1.0));
  c.add(make_record(3000, 300, 1.0));
  const auto top = c.top_by_bytes();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key.src_port, 2000);
  EXPECT_EQ(top[1].key.src_port, 3000);
  EXPECT_EQ(top[2].key.src_port, 1000);
  EXPECT_EQ(c.top_by_bytes(2).size(), 2u);
}

TEST(FlowStats, NonIpCountsUnclassified) {
  FlowStatsCollector c;
  net::PacketBuilder b;
  const auto arp = b.eth(net::MacAddr::from_index(1), net::MacAddr::broadcast())
                       .arp(1, net::MacAddr::from_index(1),
                            net::Ipv4Addr::of(1, 1, 1, 1), net::MacAddr{},
                            net::Ipv4Addr::of(1, 1, 1, 2))
                       .build();
  CaptureRecord rec;
  rec.data = to_bytes(arp.bytes());
  rec.orig_len = static_cast<std::uint32_t>(arp.size());
  c.add(rec);
  EXPECT_EQ(c.flow_count(), 0u);
  EXPECT_EQ(c.unclassified(), 1u);
}

TEST(FlowStats, WorksOnThinnedCaptureEndToEnd) {
  // Snap to 64 B: the 5-tuple survives, and byte counts use orig_len.
  sim::Engine eng;
  core::OsntDevice osnt{eng};
  hw::connect(osnt.port(0), osnt.port(1));
  osnt.rx(1).cutter().set_snap_len(64);

  core::TrafficSpec spec;
  spec.rate = gen::RateSpec::gbps(1.0);
  spec.frame_size = 1024;
  spec.flow_count = 4;
  const auto r = core::run_capture_test(eng, osnt, 0, 1, spec, kPicosPerMilli);
  ASSERT_GT(r.captured, 0u);

  FlowStatsCollector c;
  c.add_all(osnt.capture());
  EXPECT_EQ(c.flow_count(), 4u);
  std::uint64_t total_bytes = 0, total_pkts = 0;
  for (const auto& f : c.top_by_bytes()) {
    total_bytes += f.bytes;
    total_pkts += f.packets;
  }
  EXPECT_EQ(total_pkts, r.captured);
  // Bytes reflect the original 1020 B frames, not the 64 B snaps.
  EXPECT_EQ(total_bytes, r.captured * 1020u);
}

TEST(FlowStats, ClearResets) {
  FlowStatsCollector c;
  c.add(make_record(1000, 100, 1.0));
  c.clear();
  EXPECT_EQ(c.flow_count(), 0u);
  EXPECT_EQ(c.unclassified(), 0u);
}

// ---------------------------------------------- TCP sequence regression

CaptureRecord tcp_record(std::uint32_t seq, double ts_seconds,
                         std::size_t snap = 0) {
  net::PacketBuilder b;
  auto pkt =
      b.eth(net::MacAddr::from_index(1), net::MacAddr::from_index(2))
          .ipv4(net::Ipv4Addr::of(10, 0, 0, 1), net::Ipv4Addr::of(10, 0, 1, 1),
                net::ipproto::kTcp)
          .tcp(1234, 80, seq, 0, net::TcpFlags::kAck)
          .build();
  CaptureRecord rec;
  rec.orig_len = static_cast<std::uint32_t>(pkt.size());
  rec.data = to_bytes(pkt.bytes().first(
      snap != 0 && snap < pkt.size() ? snap : pkt.size()));
  rec.ts = tstamp::Timestamp::from_seconds(ts_seconds);
  return rec;
}

const net::FiveTuple kTcpKey{net::Ipv4Addr::of(10, 0, 0, 1),
                             net::Ipv4Addr::of(10, 0, 1, 1), 1234, 80,
                             net::ipproto::kTcp};

TEST(FlowStats, InOrderTcpShowsNoRegressions) {
  FlowStatsCollector c;
  for (std::uint32_t i = 0; i < 5; ++i) {
    c.add(tcp_record(1000 + i * 100, 1.0 + i));
  }
  const auto* f = c.find(kTcpKey);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->tcp_segments, 5u);
  EXPECT_EQ(f->seq_regressions, 0u);
  EXPECT_FALSE(f->reordering_seen());
  EXPECT_EQ(f->highest_seq, 1400u);
}

TEST(FlowStats, ReorderedAndRetransmittedSegmentsAreCounted) {
  FlowStatsCollector c;
  // 1000, 1300 (jumps a hole), 1100 and 1200 arrive late, then 1400.
  for (const std::uint32_t seq : {1000u, 1300u, 1100u, 1200u, 1400u}) {
    c.add(tcp_record(seq, 1.0));
  }
  const auto* f = c.find(kTcpKey);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->tcp_segments, 5u);
  EXPECT_EQ(f->seq_regressions, 2u);  // 1100 and 1200 are below 1300
  EXPECT_TRUE(f->reordering_seen());
  EXPECT_EQ(f->highest_seq, 1400u);
}

TEST(FlowStats, SequenceTrackingIsWrapAware) {
  FlowStatsCollector c;
  // Forward progress across the 2^32 boundary must not read as a
  // regression; a genuine step back across it must.
  c.add(tcp_record(0xFFFFFF00u, 1.0));
  c.add(tcp_record(0x00000100u, 1.1));  // forward across the wrap
  c.add(tcp_record(0xFFFFFF80u, 1.2));  // genuinely behind
  const auto* f = c.find(kTcpKey);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->seq_regressions, 1u);
  EXPECT_EQ(f->highest_seq, 0x00000100u);
}

TEST(FlowStats, HardSnappedFramesSkipSequenceTracking) {
  FlowStatsCollector c;
  // The parser refuses a truncated TCP header outright, so a 42-byte
  // snap (enough for UDP, 12 bytes short for TCP) cannot even be
  // classified — it lands in `unclassified` rather than producing a
  // flow with bogus sequence state.
  c.add(tcp_record(1000, 1.0, /*snap=*/42));
  c.add(tcp_record(900, 1.1, /*snap=*/42));
  EXPECT_EQ(c.find(kTcpKey), nullptr);
  EXPECT_EQ(c.flow_count(), 0u);
  EXPECT_EQ(c.unclassified(), 2u);

  // A 54-byte snap keeps the full fixed TCP header: classification and
  // sequence tracking both work on the thinned capture.
  c.add(tcp_record(1000, 2.0, /*snap=*/54));
  c.add(tcp_record(900, 2.1, /*snap=*/54));
  const auto* f = c.find(kTcpKey);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->packets, 2u);
  EXPECT_EQ(f->tcp_segments, 2u);
  EXPECT_EQ(f->seq_regressions, 1u);
}

TEST(FlowStats, UdpFlowsNeverTouchSequenceFields) {
  FlowStatsCollector c;
  c.add(make_record(1000, 100, 1.0));
  c.add(make_record(1000, 100, 2.0));
  const net::FiveTuple key{net::Ipv4Addr::of(10, 0, 0, 1),
                           net::Ipv4Addr::of(10, 0, 1, 1), 1000, 5001,
                           net::ipproto::kUdp};
  const auto* f = c.find(key);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->tcp_segments, 0u);
  EXPECT_FALSE(f->reordering_seen());
}

}  // namespace
}  // namespace osnt::mon
