// OpenFlow switch DUT: echo, flow_mod pipeline, packet_in path, barrier
// semantics, commit delay, flow_mod errors, action execution.
#include <gtest/gtest.h>

#include "osnt/dut/openflow_switch.hpp"
#include "osnt/net/builder.hpp"
#include "osnt/net/parser.hpp"

namespace osnt::dut {
namespace {

using namespace osnt::openflow;

net::Packet probe(std::uint32_t dst = 0x0A000102, std::uint16_t dport = 5001,
                  std::size_t size = 128) {
  net::PacketBuilder b;
  return b.eth(net::MacAddr::from_index(1), net::MacAddr::from_index(2))
      .ipv4(net::Ipv4Addr::of(10, 0, 0, 1), net::Ipv4Addr{dst},
            net::ipproto::kUdp)
      .udp(1024, dport)
      .pad_to_frame(size)
      .build();
}

struct Bench {
  sim::Engine eng;
  ControlChannel chan{eng};
  OpenFlowSwitch sw;
  std::vector<std::unique_ptr<hw::EthPort>> hosts;
  std::vector<int> rx_count;
  std::vector<Decoded> ctrl_msgs;

  explicit Bench(OpenFlowSwitchConfig cfg = OpenFlowSwitchConfig())
      : sw(eng, chan, cfg) {
    rx_count.assign(sw.num_ports(), 0);
    for (std::size_t i = 0; i < sw.num_ports(); ++i) {
      hosts.push_back(std::make_unique<hw::EthPort>(eng));
      hw::connect(*hosts[i], sw.port(i));
      hosts[i]->rx().set_handler(
          [this, i](net::Packet, Picos, Picos) { ++rx_count[i]; });
    }
    chan.controller().set_handler(
        [this](Decoded d) { ctrl_msgs.push_back(std::move(d)); });
  }

  FlowMod rule(std::uint32_t dst, std::uint16_t out_port) {
    FlowMod fm;
    fm.match = OfMatch::exact_5tuple(0x0A000001, dst, net::ipproto::kUdp,
                                     1024, 5001);
    fm.actions = {ActionOutput{out_port}};
    return fm;
  }

  template <typename T>
  [[nodiscard]] int count_msgs() const {
    int n = 0;
    for (const auto& m : ctrl_msgs)
      if (std::holds_alternative<T>(m.msg)) ++n;
    return n;
  }
};

TEST(OpenFlowSwitch, EchoReplyEchoesPayload) {
  Bench b;
  EchoRequest req;
  req.payload = {5, 6, 7};
  b.chan.controller().send(req);
  b.eng.run();
  ASSERT_EQ(b.count_msgs<EchoReply>(), 1);
  const auto& rep = std::get<EchoReply>(b.ctrl_msgs.back().msg);
  EXPECT_EQ(rep.payload, req.payload);
}

TEST(OpenFlowSwitch, TableMissSendsPacketIn) {
  Bench b;
  (void)b.hosts[0]->tx().transmit(probe());
  b.eng.run();
  EXPECT_EQ(b.sw.table_misses(), 1u);
  ASSERT_EQ(b.count_msgs<PacketIn>(), 1);
  const auto& pin = std::get<PacketIn>(b.ctrl_msgs.back().msg);
  EXPECT_EQ(pin.in_port, 1);  // OF ports are 1-based
  EXPECT_EQ(pin.reason, PacketInReason::kNoMatch);
  EXPECT_LE(pin.data.size(), 128u);  // truncated
  EXPECT_EQ(pin.total_len, 124u);
}

TEST(OpenFlowSwitch, InstalledRuleForwards) {
  Bench b;
  b.chan.controller().send(b.rule(0x0A000102, 3));  // → switch port 3
  b.chan.controller().send(BarrierRequest{});
  b.eng.run();  // wait for install + commit
  (void)b.hosts[0]->tx().transmit(probe());
  b.eng.run();
  EXPECT_EQ(b.rx_count[2], 1);  // OF port 3 = index 2
  EXPECT_EQ(b.sw.frames_forwarded(), 1u);
  EXPECT_EQ(b.sw.table_misses(), 0u);
}

TEST(OpenFlowSwitch, CommitDelayWindow) {
  OpenFlowSwitchConfig cfg;
  cfg.commit_base = 5 * kPicosPerMilli;
  Bench b{cfg};
  b.chan.controller().send(b.rule(0x0A000102, 3));
  // Immediately after the flow_mod hits the agent, the rule is NOT yet in
  // hardware: probes still miss.
  b.eng.run_until(kPicosPerMilli);
  (void)b.hosts[0]->tx().transmit(probe());
  b.eng.run_until(2 * kPicosPerMilli);
  EXPECT_EQ(b.sw.table_misses(), 1u);
  EXPECT_EQ(b.sw.flow_mods_committed(), 0u);
  // After the commit completes the same probe forwards.
  b.eng.run_until(10 * kPicosPerMilli);
  EXPECT_EQ(b.sw.flow_mods_committed(), 1u);
  (void)b.hosts[0]->tx().transmit(probe());
  b.eng.run();
  EXPECT_EQ(b.rx_count[2], 1);
}

TEST(OpenFlowSwitch, BarrierBeforeCommitByDefault) {
  OpenFlowSwitchConfig cfg;
  cfg.commit_base = 20 * kPicosPerMilli;
  Bench b{cfg};
  b.chan.controller().send(b.rule(0x0A000102, 3));
  b.chan.controller().send(BarrierRequest{});
  Picos barrier_at = -1;
  b.chan.controller().set_handler([&](Decoded d) {
    if (std::holds_alternative<BarrierReply>(d.msg)) barrier_at = b.eng.now();
  });
  b.eng.run();
  ASSERT_GT(barrier_at, 0);
  // Barrier replied before the 20 ms hardware commit — the classic gap.
  EXPECT_LT(barrier_at, 20 * kPicosPerMilli);
  EXPECT_EQ(b.sw.flow_mods_committed(), 1u);
}

TEST(OpenFlowSwitch, BarrierCoversCommitWhenConfigured) {
  OpenFlowSwitchConfig cfg;
  cfg.commit_base = 20 * kPicosPerMilli;
  cfg.barrier_covers_commit = true;
  Bench b{cfg};
  b.chan.controller().send(b.rule(0x0A000102, 3));
  b.chan.controller().send(BarrierRequest{});
  Picos barrier_at = -1;
  b.chan.controller().set_handler([&](Decoded d) {
    if (std::holds_alternative<BarrierReply>(d.msg)) barrier_at = b.eng.now();
  });
  b.eng.run();
  EXPECT_GE(barrier_at, 20 * kPicosPerMilli);
}

TEST(OpenFlowSwitch, PacketInRateLimited) {
  OpenFlowSwitchConfig cfg;
  cfg.packet_in_limit_pps = 100.0;
  Bench b{cfg};
  for (int i = 0; i < 500; ++i) (void)b.hosts[0]->tx().transmit(probe());
  b.eng.run();
  EXPECT_GT(b.sw.packet_ins_rate_limited(), 0u);
  EXPECT_LT(b.sw.packet_ins_sent(), 500u);
}

TEST(OpenFlowSwitch, PacketOutInjects) {
  Bench b;
  PacketOut po;
  po.actions = {ActionOutput{2}};
  po.data = to_bytes(probe().bytes());
  b.chan.controller().send(po);
  b.eng.run();
  EXPECT_EQ(b.rx_count[1], 1);  // OF port 2 = index 1
}

TEST(OpenFlowSwitch, VlanRewriteActions) {
  Bench b;
  FlowMod fm = b.rule(0x0A000102, 0);
  fm.actions = {ActionSetVlanVid{77}, ActionOutput{3}};
  b.chan.controller().send(fm);
  b.eng.run();
  std::optional<net::ParsedPacket> got;
  b.hosts[2]->rx().set_handler([&](net::Packet p, Picos, Picos) {
    got = net::parse_packet(p.bytes());
  });
  (void)b.hosts[0]->tx().transmit(probe());
  b.eng.run();
  ASSERT_TRUE(got && got->vlan);
  EXPECT_EQ(got->vlan->vid, 77);
}

TEST(OpenFlowSwitch, OutputBeforeSetVlanLeavesThatCopyAsItWas) {
  // The copy sent out port 2 shares the frame's bytes, so set_vlan must
  // give the frame bytes of its own before port 3's output, whether it
  // inserts a tag or rewrites the one already there.
  for (const bool tagged : {false, true}) {
    Bench b;
    FlowMod fm = b.rule(0x0A000102, 0);
    fm.actions = {ActionOutput{2}, ActionSetVlanVid{77}, ActionOutput{3}};
    b.chan.controller().send(fm);
    b.eng.run();
    std::optional<net::ParsedPacket> at2, at3;
    b.hosts[1]->rx().set_handler([&](net::Packet p, Picos, Picos) {
      at2 = net::parse_packet(p.bytes());
    });
    b.hosts[2]->rx().set_handler([&](net::Packet p, Picos, Picos) {
      at3 = net::parse_packet(p.bytes());
    });
    net::PacketBuilder pb;
    pb.eth(net::MacAddr::from_index(1), net::MacAddr::from_index(2));
    if (tagged) pb.vlan(5);
    (void)b.hosts[0]->tx().transmit(
        pb.ipv4(net::Ipv4Addr::of(10, 0, 0, 1), net::Ipv4Addr{0x0A000102},
                net::ipproto::kUdp)
            .udp(1024, 5001)
            .pad_to_frame(128)
            .build());
    b.eng.run();
    ASSERT_TRUE(at2 && at3) << "tagged " << tagged;
    ASSERT_TRUE(at3->vlan) << "tagged " << tagged;
    EXPECT_EQ(at3->vlan->vid, 77);
    EXPECT_EQ(at2->vlan.has_value(), tagged);
    if (tagged) {
      EXPECT_EQ(at2->vlan->vid, 5);
    }
  }
}

TEST(OpenFlowSwitch, EmptyActionsDrop) {
  Bench b;
  FlowMod fm = b.rule(0x0A000102, 0);
  fm.actions.clear();
  b.chan.controller().send(fm);
  b.eng.run();
  (void)b.hosts[0]->tx().transmit(probe());
  b.eng.run();
  EXPECT_EQ(b.rx_count[0] + b.rx_count[1] + b.rx_count[2] + b.rx_count[3], 0);
  EXPECT_EQ(b.sw.table_misses(), 0u);  // matched, then dropped
  EXPECT_EQ(b.count_msgs<PacketIn>(), 0);
}

TEST(OpenFlowSwitch, FlowStatsReplyReflectsCounters) {
  Bench b;
  b.chan.controller().send(b.rule(0x0A000102, 3));
  b.eng.run();
  (void)b.hosts[0]->tx().transmit(probe());
  (void)b.hosts[0]->tx().transmit(probe());
  b.eng.run();
  FlowStatsRequest req;
  req.match = OfMatch::any();
  b.chan.controller().send(req);
  b.eng.run();
  ASSERT_EQ(b.count_msgs<FlowStatsReply>(), 1);
  const auto& rep = std::get<FlowStatsReply>(b.ctrl_msgs.back().msg);
  ASSERT_EQ(rep.flows.size(), 1u);
  EXPECT_EQ(rep.flows[0].packet_count, 2u);
}

TEST(OpenFlowSwitch, LargeFlowStatsReplyComesInParts) {
  // 1024 entries of 96 B do not fit one 64 KiB message: the reply is
  // split, every part but the last flagged OFPSF_REPLY_MORE.
  Bench b;
  for (std::uint32_t i = 0; i < 1024; ++i)
    b.chan.controller().send(b.rule(0x0A010000 + i, 3));
  b.eng.run();
  ASSERT_EQ(b.sw.table().size(), 1024u);
  FlowStatsRequest req;
  req.match = OfMatch::any();
  const std::uint32_t xid = b.chan.controller().send(req);
  b.ctrl_msgs.clear();
  b.eng.run();
  std::vector<const FlowStatsReply*> parts;
  for (const auto& m : b.ctrl_msgs) {
    if (const auto* rep = std::get_if<FlowStatsReply>(&m.msg)) {
      EXPECT_EQ(m.xid, xid);
      parts.push_back(rep);
    }
  }
  ASSERT_GE(parts.size(), 2u);
  std::size_t entries = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(parts[i]->more, i + 1 < parts.size()) << "part " << i;
    entries += parts[i]->flows.size();
  }
  EXPECT_EQ(entries, 1024u);
}

TEST(OpenFlowSwitch, TableFullSendsError) {
  OpenFlowSwitchConfig cfg;
  cfg.table.max_entries = 2;
  Bench b{cfg};
  std::uint32_t last_fm_xid = 0;
  for (std::uint32_t i = 0; i < 3; ++i)
    last_fm_xid = b.chan.controller().send(
        b.rule(0x0A000100 + i, 3));
  b.eng.run();
  ASSERT_EQ(b.count_msgs<ErrorMsg>(), 1);
  const auto& err = std::get<ErrorMsg>(b.ctrl_msgs.back().msg);
  EXPECT_EQ(err.type, 3);  // OFPET_FLOW_MOD_FAILED
  EXPECT_EQ(err.code, 0);  // ALL_TABLES_FULL
  EXPECT_EQ(b.ctrl_msgs.back().xid, last_fm_xid);
  // The offending flow_mod rides in the error body and re-decodes.
  const auto inner = decode(ByteSpan{err.data.data(), err.data.size()});
  ASSERT_TRUE(inner);
  EXPECT_TRUE(std::holds_alternative<FlowMod>(inner->msg));
  EXPECT_EQ(b.sw.table().size(), 2u);
}

TEST(OpenFlowSwitch, RefusedFlowModCarriesBadCommand) {
  // The table carries out only a plain ADD; a DELETE is refused with
  // OF 1.0's OFPFMFC_BAD_COMMAND and leaves the rule in place.
  Bench b;
  b.chan.controller().send(b.rule(0x0A000102, 3));
  FlowMod del = b.rule(0x0A000102, 3);
  del.command = FlowModCommand::kDelete;
  const std::uint32_t xid = b.chan.controller().send(del);
  b.eng.run();
  ASSERT_EQ(b.count_msgs<ErrorMsg>(), 1);
  const auto& err = std::get<ErrorMsg>(b.ctrl_msgs.back().msg);
  EXPECT_EQ(err.type, 3);  // OFPET_FLOW_MOD_FAILED
  EXPECT_EQ(err.code, 4);  // OFPFMFC_BAD_COMMAND
  EXPECT_EQ(b.ctrl_msgs.back().xid, xid);
  const auto inner = decode(ByteSpan{err.data.data(), err.data.size()});
  ASSERT_TRUE(inner);
  const auto* fm = std::get_if<FlowMod>(&inner->msg);
  ASSERT_NE(fm, nullptr);
  EXPECT_EQ(fm->command, FlowModCommand::kDelete);
  EXPECT_EQ(b.sw.table().size(), 1u);
  EXPECT_EQ(b.sw.flow_mods_committed(), 2u);
}

TEST(OpenFlowSwitch, AnInstalledRuleLeavesNothingArmed) {
  // An installed rule must not leave a self-rescheduling event behind.
  Bench b;
  b.chan.controller().send(b.rule(0x0A000102, 3));
  b.eng.run();  // terminates ⇔ no self-rescheduling events
  EXPECT_TRUE(b.eng.empty());
  EXPECT_EQ(b.sw.table().size(), 1u);
}

TEST(OpenFlowSwitch, ActionModifyLatencyApplied) {
  OpenFlowSwitchConfig cfg;
  cfg.action_modify_latency = 10 * kPicosPerMicro;
  cfg.latency_jitter_ns = 0;
  Bench b{cfg};
  FlowMod plain = b.rule(0x0A000102, 3);
  FlowMod rewrite = b.rule(0x0A000103, 3);
  rewrite.actions = {ActionSetVlanVid{7}, ActionOutput{3}};
  b.chan.controller().send(plain);
  b.chan.controller().send(rewrite);
  b.eng.run();

  Picos t_plain = -1, t_rewrite = -1;
  b.hosts[2]->rx().set_handler([&](net::Packet p, Picos first, Picos) {
    const auto parsed = net::parse_packet(p.bytes());
    if (parsed && parsed->vlan) t_rewrite = first;
    else t_plain = first;
  });
  const Picos t0 = b.eng.now();
  (void)b.hosts[0]->tx().transmit(probe(0x0A000102));
  b.eng.run();
  const Picos plain_lat = t_plain - t0;
  const Picos t1 = b.eng.now();
  (void)b.hosts[0]->tx().transmit(probe(0x0A000103));
  b.eng.run();
  const Picos rewrite_lat = t_rewrite - t1;
  // VLAN-tagged frame is 4 B longer (longer serialization), plus the
  // 10 µs modify cost dominates.
  EXPECT_NEAR(static_cast<double>(rewrite_lat - plain_lat),
              10e6 + 4 * 800.0, 5'000.0);
}

}  // namespace
}  // namespace osnt::dut
