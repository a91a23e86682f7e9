// Hardware models: MAC serialization timing, DMA loss-limits, port
// cabling.
#include <gtest/gtest.h>

#include "osnt/hw/dma.hpp"
#include "osnt/hw/port.hpp"
#include "osnt/net/builder.hpp"

namespace osnt::hw {
namespace {

net::Packet frame(std::size_t size) {
  net::PacketBuilder b;
  return b.eth(net::MacAddr::from_index(1), net::MacAddr::from_index(2))
      .ipv4(net::Ipv4Addr::of(10, 0, 0, 1), net::Ipv4Addr::of(10, 0, 1, 1),
            net::ipproto::kUdp)
      .udp(1, 2)
      .pad_to_frame(size)
      .build();
}

// ------------------------------------------------------------------ TxMac

TEST(TxMac, AirTimeFor64ByteFrame) {
  sim::Engine e;
  TxMac mac{e};
  // 64 B frame occupies 84 B on the line = 672 bits = 67.2 ns at 10G.
  EXPECT_EQ(mac.frame_air_time(frame(64)), 67'200);
}

TEST(TxMac, BackToBackFramesSerialize) {
  sim::Engine e;
  TxMac mac{e};
  const auto s1 = mac.transmit(frame(64));
  const auto s2 = mac.transmit(frame(64));
  ASSERT_TRUE(s1 && s2);
  EXPECT_EQ(*s1, 0);
  EXPECT_EQ(*s2, 67'200);  // second waits for the wire
  EXPECT_EQ(mac.frames_sent(), 2u);
  EXPECT_EQ(mac.bytes_sent(), 128u);
}

TEST(TxMac, QueueLimitDropsWhenSaturated) {
  sim::Engine e;
  TxMacConfig cfg;
  cfg.queue_limit_bytes = 200;  // fits ~3 64B frames of backlog
  TxMac mac{e, cfg};
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (mac.transmit(frame(64))) ++accepted;
  }
  EXPECT_LT(accepted, 10);
  EXPECT_EQ(mac.drops(), 10u - static_cast<unsigned>(accepted));
}

TEST(TxMac, BusyTimeTracksUtilization) {
  sim::Engine e;
  TxMac mac{e};
  (void)mac.transmit(frame(1518));
  EXPECT_EQ(mac.busy_time(), mac.frame_air_time(frame(1518)));
}

TEST(TxMac, SlowerLinkTakesLonger) {
  sim::Engine e;
  TxMacConfig cfg;
  cfg.gbps = 1.0;
  TxMac slow{e, cfg};
  TxMac fast{e};
  EXPECT_EQ(slow.frame_air_time(frame(64)), 10 * fast.frame_air_time(frame(64)));
}

// ----------------------------------------------------------------- RxMac

TEST(RxMac, CountsAndDelivers) {
  sim::Engine e;
  RxMac mac{e};
  int delivered = 0;
  Picos seen_first = -1;
  mac.set_handler([&](net::Packet, Picos first, Picos) {
    ++delivered;
    seen_first = first;
  });
  mac.on_frame(frame(64), 100, 200);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(seen_first, 100);
  EXPECT_EQ(mac.frames_received(), 1u);
  EXPECT_EQ(mac.bytes_received(), 64u);
}

TEST(RxMac, RejectsRunts) {
  sim::Engine e;
  RxMac mac{e};
  int delivered = 0;
  mac.set_handler([&](net::Packet, Picos, Picos) { ++delivered; });
  net::Packet runt;
  runt.data.assign(40, 0);  // wire 44 < 64
  mac.on_frame(std::move(runt), 0, 1);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(mac.runts(), 1u);
}

TEST(RxMac, RejectsGiantsUnlessConfigured) {
  sim::Engine e;
  RxMac strict{e};
  RxMacConfig cfg;
  cfg.accept_oversize = true;
  RxMac jumbo{e, cfg};
  int strict_count = 0, jumbo_count = 0;
  strict.set_handler([&](net::Packet, Picos, Picos) { ++strict_count; });
  jumbo.set_handler([&](net::Packet, Picos, Picos) { ++jumbo_count; });
  net::Packet giant;
  giant.data.assign(3000, 0);
  strict.on_frame(net::Packet{giant}, 0, 1);
  jumbo.on_frame(std::move(giant), 0, 1);
  EXPECT_EQ(strict_count, 0);
  EXPECT_EQ(strict.giants(), 1u);
  EXPECT_EQ(jumbo_count, 1);
}

// ------------------------------------------------------------------- DMA

TEST(Dma, DeliversWithBandwidthDelay) {
  sim::Engine e;
  DmaConfig cfg;
  cfg.gbps = 8.0;
  cfg.per_record_overhead_bytes = 0;
  DmaEngine dma{e, cfg};
  Picos delivered_at = -1;
  dma.set_handler([&](DmaRecord) { delivered_at = e.now(); });
  DmaRecord rec;
  rec.payload.assign(1000, 0);  // 8000 bits at 8 Gb/s = 1 µs
  EXPECT_TRUE(dma.enqueue(std::move(rec)));
  e.run();
  EXPECT_EQ(delivered_at, kPicosPerMicro);
  EXPECT_EQ(dma.records_delivered(), 1u);
}

TEST(Dma, RingFullDrops) {
  sim::Engine e;
  DmaConfig cfg;
  cfg.ring_entries = 4;
  DmaEngine dma{e, cfg};
  dma.set_handler([](DmaRecord) {});
  for (int i = 0; i < 10; ++i) {
    DmaRecord rec;
    rec.payload.assign(100, 0);
    dma.enqueue(std::move(rec));
  }
  EXPECT_EQ(dma.drops_ring_full(), 6u);
  e.run();
  EXPECT_EQ(dma.records_delivered(), 4u);
}

TEST(Dma, RingDrainsOverTime) {
  sim::Engine e;
  DmaConfig cfg;
  cfg.ring_entries = 2;
  DmaEngine dma{e, cfg};
  dma.set_handler([](DmaRecord) {});
  DmaRecord r1;
  r1.payload.assign(100, 0);
  DmaRecord r2 = r1, r3 = r1;
  EXPECT_TRUE(dma.enqueue(std::move(r1)));
  EXPECT_TRUE(dma.enqueue(std::move(r2)));
  EXPECT_FALSE(dma.enqueue(std::move(r3)));  // full now
  e.run();                                   // drain
  DmaRecord r4;
  r4.payload.assign(100, 0);
  EXPECT_TRUE(dma.enqueue(std::move(r4)));  // space again
}

TEST(Dma, MetadataRoundTrips) {
  sim::Engine e;
  DmaEngine dma{e};
  DmaRecord got;
  dma.set_handler([&](DmaRecord r) { got = std::move(r); });
  DmaRecord rec;
  rec.payload = {1, 2, 3};
  rec.meta_a = 0xAAAA;
  rec.meta_b = 0xBBBB;
  rec.meta_c = 3;
  dma.enqueue(std::move(rec));
  e.run();
  EXPECT_EQ(got.meta_a, 0xAAAAu);
  EXPECT_EQ(got.meta_b, 0xBBBBu);
  EXPECT_EQ(got.meta_c, 3u);
  EXPECT_EQ(got.payload.size(), 3u);
}

// ------------------------------------------------------------------ Port

TEST(EthPort, CabledDeliveryEndToEnd) {
  sim::Engine e;
  EthPort a{e}, b{e};
  connect(a, b);
  int received = 0;
  Picos first_bit = -1, last_bit = -1;
  b.rx().set_handler([&](net::Packet, Picos f, Picos l) {
    ++received;
    first_bit = f;
    last_bit = l;
  });
  (void)a.tx().transmit(frame(64));
  e.run();
  EXPECT_EQ(received, 1);
  // first bit = propagation (9.8 ns for 2 m); last = first + air time.
  EXPECT_EQ(first_bit, sim::fiber_delay(2.0));
  EXPECT_EQ(last_bit - first_bit, a.tx().frame_air_time(frame(64)));
}

TEST(EthPort, UncabledIsDarkFiber) {
  sim::Engine e;
  EthPort a{e};
  (void)a.tx().transmit(frame(64));
  e.run();
  EXPECT_EQ(a.out_link().frames_lost_dark(), 1u);
  EXPECT_FALSE(a.cabled());
}

TEST(EthPort, BidirectionalTraffic) {
  sim::Engine e;
  EthPort a{e}, b{e};
  connect(a, b);
  int at_a = 0, at_b = 0;
  a.rx().set_handler([&](net::Packet, Picos, Picos) { ++at_a; });
  b.rx().set_handler([&](net::Packet, Picos, Picos) { ++at_b; });
  (void)a.tx().transmit(frame(64));
  (void)b.tx().transmit(frame(128));
  e.run();
  EXPECT_EQ(at_a, 1);
  EXPECT_EQ(at_b, 1);
}

}  // namespace
}  // namespace osnt::hw
