// OpenFlow QoS: enqueue action wire format and rate-limited egress queues
// in the switch model.
#include <gtest/gtest.h>

#include "osnt/dut/openflow_switch.hpp"
#include "osnt/oflops/queue_delay.hpp"
#include "osnt/net/builder.hpp"

namespace osnt::openflow {
namespace {

TEST(QosWire, EnqueueActionRoundTrip) {
  FlowMod fm;
  fm.actions = {ActionEnqueue{3, 2}, ActionOutput{1}};
  const Bytes wire = encode(fm, 5);
  // 72-byte flow_mod + 16-byte enqueue + 8-byte output.
  EXPECT_EQ(wire.size(), 72u + 16u + 8u);
  const auto back = decode(ByteSpan{wire.data(), wire.size()});
  ASSERT_TRUE(back);
  const auto& fm2 = std::get<FlowMod>(back->msg);
  ASSERT_EQ(fm2.actions.size(), 2u);
  const auto& enq = std::get<ActionEnqueue>(fm2.actions[0]);
  EXPECT_EQ(enq.port, 3);
  EXPECT_EQ(enq.queue_id, 2u);
}

TEST(QosWire, ActionWireSize) {
  EXPECT_EQ(action_wire_size(Action{ActionOutput{}}), 8u);
  EXPECT_EQ(action_wire_size(Action{ActionEnqueue{}}), 16u);
}

}  // namespace
}  // namespace osnt::openflow

namespace osnt::dut {
namespace {

using namespace osnt::openflow;

net::Packet probe(std::uint32_t dst, std::size_t size = 512) {
  net::PacketBuilder b;
  return b.eth(net::MacAddr::from_index(1), net::MacAddr::from_index(2))
      .ipv4(net::Ipv4Addr::of(10, 0, 0, 1), net::Ipv4Addr{dst},
            net::ipproto::kUdp)
      .udp(1024, 5001)
      .pad_to_frame(size)
      .build();
}

struct QosBench {
  sim::Engine eng;
  ControlChannel chan{eng};
  OpenFlowSwitch sw;
  std::vector<std::unique_ptr<hw::EthPort>> hosts;
  std::vector<Picos> rx_times;
  std::vector<Decoded> ctrl_msgs;

  explicit QosBench(OpenFlowSwitchConfig cfg = OpenFlowSwitchConfig())
      : sw(eng, chan, cfg) {
    for (std::size_t i = 0; i < sw.num_ports(); ++i) {
      hosts.push_back(std::make_unique<hw::EthPort>(eng));
      hw::connect(*hosts[i], sw.port(i));
    }
    hosts[2]->rx().set_handler([this](net::Packet, Picos first, Picos) {
      rx_times.push_back(first);
    });
    chan.controller().set_handler(
        [this](Decoded d) { ctrl_msgs.push_back(std::move(d)); });
  }

  void install(std::uint32_t queue_id) {
    FlowMod fm;
    fm.match = OfMatch::exact_5tuple(0x0A000001, 0x0A000102,
                                     net::ipproto::kUdp, 1024, 5001);
    fm.actions = {ActionEnqueue{3, queue_id}};  // OF port 3 = host index 2
    chan.controller().send(fm);
    eng.run();
  }
};

TEST(QosSwitch, Queue0BehavesLikePlainOutput) {
  OpenFlowSwitchConfig cfg;
  cfg.latency_jitter_ns = 0;
  QosBench b{cfg};
  b.install(0);
  FlowMod fm;  // the same port by a plain output
  fm.match = OfMatch::exact_5tuple(0x0A000001, 0x0A000103, net::ipproto::kUdp,
                                   1024, 5001);
  fm.actions = {ActionOutput{3}};
  b.chan.controller().send(fm);
  b.eng.run();
  // The same 10 frames under each rule, sent from an idle switch; an
  // enqueue rewrites no header, so it must not pay a rewrite's latency.
  const auto arrivals = [&b](std::uint32_t dst) {
    b.rx_times.clear();
    const Picos t0 = b.eng.now();
    for (int i = 0; i < 10; ++i) (void)b.hosts[0]->tx().transmit(probe(dst));
    b.eng.run();
    std::vector<Picos> rel;
    for (const Picos t : b.rx_times) rel.push_back(t - t0);
    return rel;
  };
  const std::vector<Picos> queue0 = arrivals(0x0A000102);
  EXPECT_EQ(queue0.size(), 10u);
  EXPECT_EQ(queue0, arrivals(0x0A000103));
  EXPECT_EQ(b.sw.frames_shaped(), 0u);
}

TEST(QosSwitch, LowRateQueueSpacesFrames) {
  OpenFlowSwitchConfig cfg;
  cfg.queue_rates = {1.0, 0.1};  // queue 1 = 1 Gb/s
  cfg.latency_jitter_ns = 0;
  QosBench b{cfg};
  b.install(1);
  // Blast 10 back-to-back 512 B frames; the 1 Gb/s shaper spaces them to
  // ~4.26 µs apart even though the wire could carry them 0.43 µs apart.
  for (int i = 0; i < 10; ++i) (void)b.hosts[0]->tx().transmit(probe(0x0A000102));
  b.eng.run();
  ASSERT_EQ(b.rx_times.size(), 10u);
  EXPECT_EQ(b.sw.frames_shaped(), 10u);
  for (std::size_t i = 1; i < b.rx_times.size(); ++i) {
    const double gap_ns = to_nanos(b.rx_times[i] - b.rx_times[i - 1]);
    EXPECT_NEAR(gap_ns, 4256.0, 50.0) << "frame " << i;
  }
}

TEST(QosSwitch, QueuesAreIndependentPerPort) {
  OpenFlowSwitchConfig cfg;
  cfg.queue_rates = {1.0, 0.1};
  QosBench b{cfg};
  // Flow A → queue 1 on port 3; flow B → queue 1 on port 4: different
  // shapers, so B is not delayed behind A's backlog.
  b.install(1);
  FlowMod fm;
  fm.match = OfMatch::exact_5tuple(0x0A000001, 0x0A000103, net::ipproto::kUdp,
                                   1024, 5001);
  fm.actions = {ActionEnqueue{4, 1}};
  b.chan.controller().send(fm);
  b.eng.run();
  Picos b_first = -1;
  b.hosts[3]->rx().set_handler(
      [&](net::Packet, Picos first, Picos) { b_first = first; });
  const Picos t0 = b.eng.now();
  for (int i = 0; i < 10; ++i) (void)b.hosts[0]->tx().transmit(probe(0x0A000102));
  (void)b.hosts[0]->tx().transmit(probe(0x0A000103));
  b.eng.run();
  ASSERT_GT(b_first, 0);
  // B arrives promptly (~µs after its send), not after A's ~40 µs shaped
  // backlog. B is the 11th frame on the ingress wire (~4.7 µs of
  // serialization), then one switch transit.
  EXPECT_LT(to_nanos(b_first - t0), 10'000.0);
}

TEST(QosSwitch, BadQueueIdDropsFrame) {
  QosBench b;
  FlowMod fm;
  fm.match = OfMatch::exact_5tuple(0x0A000001, 0x0A000102, net::ipproto::kUdp,
                                   1024, 5001);
  fm.actions = {ActionEnqueue{3, 99}};  // queue 99 doesn't exist
  b.chan.controller().send(fm);
  b.eng.run();
  (void)b.hosts[0]->tx().transmit(probe(0x0A000102));
  b.eng.run();
  EXPECT_TRUE(b.rx_times.empty());
}

TEST(QueueDelayModule, MeasuresRateShares) {
  OpenFlowSwitchConfig sw_cfg;
  sw_cfg.queue_rates = {1.0, 0.2};
  sw_cfg.latency_jitter_ns = 0;
  oflops::Testbed tb{sw_cfg};
  oflops::QueueDelayConfig cfg;
  cfg.queue_ids = {0, 1};
  cfg.frames_per_queue = 100;
  cfg.offered_gbps = 4.0;
  oflops::QueueDelayModule mod{cfg};
  const auto rep = tb.ctx.run(mod, 300 * kPicosPerSec);

  double q0 = -1, q1 = -1;
  for (const auto& m : rep.scalars) {
    if (m.name == "q0_achieved_gbps") q0 = m.value;
    if (m.name == "q1_achieved_gbps") q1 = m.value;
  }
  // Queue 0 passes the full 4 Gb/s offer; queue 1 is shaped to ~2 Gb/s.
  EXPECT_NEAR(q0, 4.0, 0.2);
  EXPECT_NEAR(q1, 2.0, 0.15);
  // The shaped queue's latency grows across the burst (queueing ramp).
  for (const auto& [name, d] : rep.distributions) {
    if (name == "q1_latency_us") {
      EXPECT_GT(d.max(), 10.0 * d.min());
    }
    if (name == "q0_latency_us") {
      EXPECT_LT(d.max(), 10.0);  // unshaped: flat ~1 µs
    }
  }
}

}  // namespace
}  // namespace osnt::dut
