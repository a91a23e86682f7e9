// Control channel: delivery, ordering, latency and bandwidth modelling.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "osnt/openflow/channel.hpp"

namespace osnt::openflow {
namespace {

TEST(Channel, DeliversDecodedMessage) {
  sim::Engine eng;
  ControlChannel chan{eng};
  std::vector<Decoded> at_switch;
  chan.switch_end().set_handler(
      [&](Decoded d) { at_switch.push_back(std::move(d)); });
  const std::uint32_t xid = chan.controller().send(BarrierRequest{});
  eng.run();
  ASSERT_EQ(at_switch.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<BarrierRequest>(at_switch[0].msg));
  EXPECT_EQ(at_switch[0].xid, xid);
}

TEST(Channel, LatencyApplied) {
  sim::Engine eng;
  ChannelConfig cfg;
  cfg.latency = 250 * kPicosPerMicro;
  cfg.mbps = 1e9;  // effectively instant serialization
  ControlChannel chan{eng, cfg};
  Picos arrival = -1;
  chan.switch_end().set_handler([&](Decoded) { arrival = eng.now(); });
  chan.controller().send(BarrierRequest{});
  eng.run();
  EXPECT_NEAR(static_cast<double>(arrival), 250e6, 1e6);
}

TEST(Channel, BandwidthSerializesBursts) {
  sim::Engine eng;
  ChannelConfig cfg;
  cfg.latency = 0;
  cfg.mbps = 8.0;  // 1 byte per µs
  ControlChannel chan{eng, cfg};
  std::vector<Picos> arrivals;
  chan.switch_end().set_handler([&](Decoded) { arrivals.push_back(eng.now()); });
  chan.controller().send(BarrierRequest{});  // 8 bytes → 8 µs
  chan.controller().send(BarrierRequest{});
  eng.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 8 * kPicosPerMicro);
  EXPECT_EQ(arrivals[1], 16 * kPicosPerMicro);
}

TEST(Channel, InOrderDelivery) {
  sim::Engine eng;
  ControlChannel chan{eng};
  std::vector<std::uint32_t> xids;
  chan.switch_end().set_handler([&](Decoded d) { xids.push_back(d.xid); });
  for (int i = 0; i < 10; ++i) chan.controller().send(BarrierRequest{});
  eng.run();
  ASSERT_EQ(xids.size(), 10u);
  for (std::size_t i = 1; i < xids.size(); ++i) EXPECT_GT(xids[i], xids[i - 1]);
}

TEST(Channel, BothDirectionsIndependent) {
  sim::Engine eng;
  ControlChannel chan{eng};
  int at_ctrl = 0, at_sw = 0;
  chan.controller().set_handler([&](Decoded) { ++at_ctrl; });
  chan.switch_end().set_handler([&](Decoded) { ++at_sw; });
  chan.controller().send(BarrierRequest{});
  chan.switch_end().send(BarrierRequest{});
  eng.run();
  EXPECT_EQ(at_ctrl, 1);
  EXPECT_EQ(at_sw, 1);
}

TEST(Channel, ExplicitXidPreserved) {
  sim::Engine eng;
  ControlChannel chan{eng};
  std::uint32_t got = 0;
  chan.switch_end().set_handler([&](Decoded d) { got = d.xid; });
  chan.controller().send(EchoRequest{}, 0xCAFEBABE);
  eng.run();
  EXPECT_EQ(got, 0xCAFEBABEu);
}

TEST(Channel, CountsBytes) {
  sim::Engine eng;
  ControlChannel chan{eng};
  chan.switch_end().set_handler([](Decoded) {});
  chan.controller().send(BarrierRequest{});
  EXPECT_EQ(chan.controller().messages_sent(), 1u);
  EXPECT_EQ(chan.controller().bytes_sent(), 8u);
}

TEST(Channel, FlowModSurvivesWireFormat) {
  sim::Engine eng;
  ControlChannel chan{eng};
  FlowMod got;
  chan.switch_end().set_handler([&](Decoded d) {
    ASSERT_TRUE(std::holds_alternative<FlowMod>(d.msg));
    got = std::get<FlowMod>(d.msg);
  });
  FlowMod fm;
  fm.match = OfMatch::exact_5tuple(0x0A000001, 0x0A000002, 17, 1, 2);
  fm.priority = 777;
  fm.actions = {ActionOutput{3}};
  chan.controller().send(fm);
  eng.run();
  EXPECT_EQ(got.priority, 777);
  EXPECT_EQ(got.match, fm.match);
  ASSERT_EQ(got.actions.size(), 1u);
}

TEST(Channel, DisconnectLosesInFlightAndDropsSends) {
  sim::Engine eng;
  ChannelConfig cfg;
  cfg.latency = 100 * kPicosPerMicro;
  ControlChannel chan{eng, cfg};
  std::size_t delivered = 0;
  chan.switch_end().set_handler([&](Decoded) { ++delivered; });
  // On the wire when the session dies.
  chan.controller().send(BarrierRequest{});
  eng.schedule_at(10 * kPicosPerMicro, [&] { chan.set_link_available(false); });
  eng.schedule_at(20 * kPicosPerMicro, [&] {
    // Session down → dropped at source.
    chan.controller().send(BarrierRequest{});
  });
  eng.run();
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(chan.messages_lost_in_flight(), 1u);
  EXPECT_EQ(chan.controller().messages_dropped(), 1u);
  EXPECT_EQ(chan.disconnects(), 1u);
}

TEST(Channel, ReconnectsWithBackoffWhenLinkReturns) {
  sim::Engine eng;
  ControlChannel chan{eng};
  std::vector<bool> transitions;
  Picos reconnected_at = -1;
  chan.controller().set_status_handler([&](bool up) {
    transitions.push_back(up);
    if (up) reconnected_at = eng.now();
  });
  eng.schedule_at(0, [&] { chan.set_link_available(false); });
  // Link heals 7 ms later; probes at +2, +6, +14 ms... → session back at
  // the first probe after 7 ms.
  eng.schedule_at(7 * kPicosPerMilli, [&] { chan.set_link_available(true); });
  eng.run();
  EXPECT_TRUE(chan.connected());
  EXPECT_EQ(chan.disconnects(), 1u);
  EXPECT_EQ(chan.reconnects(), 1u);
  EXPECT_EQ(transitions, (std::vector<bool>{false, true}));
  EXPECT_EQ(reconnected_at, 14 * kPicosPerMilli);
  EXPECT_EQ(chan.reconnect_probes(), 3u);
}

TEST(Channel, SessionUsableAfterReconnect) {
  sim::Engine eng;
  ControlChannel chan{eng};
  std::size_t delivered = 0;
  chan.switch_end().set_handler([&](Decoded) { ++delivered; });
  eng.schedule_at(0, [&] { chan.set_link_available(false); });
  eng.schedule_at(kPicosPerMilli, [&] { chan.set_link_available(true); });
  eng.schedule_at(50 * kPicosPerMilli,
                  [&] { chan.controller().send(BarrierRequest{}); });
  eng.run();
  EXPECT_TRUE(chan.connected());
  EXPECT_EQ(delivered, 1u);
}

TEST(Channel, GivesUpAfterMaxProbesThenDirectKickRestores) {
  sim::Engine eng;
  ChannelConfig cfg;
  cfg.reconnect_max_attempts = 3;
  ControlChannel chan{eng, cfg};
  chan.set_link_available(false);
  eng.run();  // all probes fail; FSM gives up, queue drains
  EXPECT_FALSE(chan.connected());
  EXPECT_EQ(chan.reconnect_probes(), 3u);
  chan.set_link_available(true);  // direct kick after give-up
  eng.run();
  EXPECT_TRUE(chan.connected());
  EXPECT_EQ(chan.reconnects(), 1u);
}

TEST(Channel, FlapStormIsDeterministic) {
  auto run_once = [] {
    sim::Engine eng;
    ControlChannel chan{eng};
    std::size_t delivered = 0;
    chan.switch_end().set_handler([&](Decoded) { ++delivered; });
    for (int i = 0; i < 20; ++i) {
      eng.schedule_at(i * 3 * kPicosPerMilli,
                      [&chan, i] { chan.set_link_available(i % 2 != 0); });
      eng.schedule_at(i * 3 * kPicosPerMilli + kPicosPerMicro,
                      [&chan] { chan.controller().send(BarrierRequest{}); });
    }
    eng.run();
    return std::tuple{delivered, chan.disconnects(), chan.reconnects(),
                      chan.messages_lost_in_flight(),
                      chan.controller().messages_dropped()};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace osnt::openflow
