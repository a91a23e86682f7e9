// Link flap failure injection and the packet_out latency module.
#include <gtest/gtest.h>

#include "osnt/core/device.hpp"
#include "osnt/core/measure.hpp"
#include "osnt/net/builder.hpp"
#include "osnt/oflops/context.hpp"
#include "osnt/oflops/packet_out_latency.hpp"

namespace osnt {
namespace {

// ------------------------------------------------------------- link flap

TEST(LinkFlap, FramesLostWhileDown) {
  sim::Engine eng;
  core::OsntDevice osnt{eng};
  hw::connect(osnt.port(0), osnt.port(1));

  gen::TxConfig txc;
  txc.rate = gen::RateSpec::pps(1'000'000);  // 1 frame/µs
  auto& tx = osnt.configure_tx(0, txc);
  core::TrafficSpec spec;
  tx.set_source(core::make_source(spec));
  tx.start();

  // Pull the fiber from 1 ms to 2 ms.
  eng.schedule_at(kPicosPerMilli, [&] { osnt.port(0).out_link().set_up(false); });
  eng.schedule_at(2 * kPicosPerMilli, [&] { osnt.port(0).out_link().set_up(true); });
  eng.run_until(3 * kPicosPerMilli);
  tx.stop();
  eng.run();

  const auto lost = osnt.port(0).out_link().frames_lost_down();
  EXPECT_NEAR(static_cast<double>(lost), 1000.0, 20.0);  // ~1 ms of frames
  EXPECT_EQ(osnt.rx(1).seen() + lost, tx.frames_sent());
  // Sequence accounting at the host agrees.
  const auto rep =
      osnt.capture().sequence_report(tstamp::kDefaultEmbedOffset, 1);
  EXPECT_EQ(rep.lost, lost);
}

TEST(LinkFlap, RecoversCleanly) {
  sim::Engine eng;
  hw::EthPort a{eng}, b{eng};
  hw::connect(a, b);
  a.out_link().set_up(false);
  net::PacketBuilder pb;
  (void)a.tx().transmit(pb.eth(net::MacAddr::from_index(1),
                               net::MacAddr::from_index(2))
                            .payload_random(60, 1)
                            .build());
  eng.run();
  EXPECT_EQ(b.rx().frames_received(), 0u);
  a.out_link().set_up(true);
  (void)a.tx().transmit(pb.eth(net::MacAddr::from_index(1),
                               net::MacAddr::from_index(2))
                            .payload_random(60, 1)
                            .build());
  eng.run();
  EXPECT_EQ(b.rx().frames_received(), 1u);
}

// ---------------------------------------------------- packet_out module

TEST(PacketOut, ControllerToWireLatency) {
  oflops::Testbed tb;
  oflops::PacketOutLatencyConfig cfg;
  cfg.count = 40;
  oflops::PacketOutLatencyModule mod{cfg};
  const auto rep = tb.ctx.run(mod, 120 * kPicosPerSec);
  double sent = 0, got = 0;
  for (const auto& m : rep.scalars) {
    if (m.name == "packet_outs_sent") sent = m.value;
    if (m.name == "frames_observed") got = m.value;
  }
  EXPECT_EQ(sent, 40);
  EXPECT_EQ(got, 40);
  for (const auto& [name, d] : rep.distributions) {
    if (name != "packet_out_latency_us") continue;
    ASSERT_EQ(d.count(), 40u);
    // Channel (50 µs) + agent (~20 µs) + wire: under a millisecond,
    // over the bare channel latency.
    EXPECT_GT(d.quantile(0.5), 60.0);
    EXPECT_LT(d.quantile(0.5), 1000.0);
  }
}

}  // namespace
}  // namespace osnt
