// OFLOPS modules under control-channel outages: a disconnect that eats
// flow_mods/barriers mid-flight must degrade the measurement, not hang
// or crash it. Channel latency is raised to 10 ms so the in-flight
// window is wide and the injected outage deterministically lands inside
// it; the modules' reconnect re-drives then complete the run.
#include <gtest/gtest.h>

#include "osnt/fault/injector.hpp"
#include "osnt/fault/plan.hpp"
#include "osnt/oflops/consistency.hpp"
#include "osnt/oflops/context.hpp"
#include "osnt/oflops/flowmod_latency.hpp"

namespace osnt::oflops {
namespace {

openflow::ChannelConfig slow_channel() {
  openflow::ChannelConfig cfg;
  cfg.latency = 10 * kPicosPerMilli;  // each message spends 10 ms in flight
  return cfg;
}

dut::OpenFlowSwitchConfig switch_config() {
  dut::OpenFlowSwitchConfig cfg;
  cfg.commit_base = 2 * kPicosPerMilli;
  cfg.table.max_entries = 16384;
  return cfg;
}

TEST(OflopsFaults, FlowModLatencySurvivesMidRoundDisconnect) {
  Testbed tb{switch_config(), core::DeviceConfig(), slow_channel()};

  FlowModLatencyConfig cfg;
  cfg.table_size = 8;
  cfg.rounds = 5;
  cfg.settle = 30 * kPicosPerMilli;
  FlowModLatencyModule mod{cfg};

  // Timeline: fill barrier returns at ~20 ms; the table wait's first
  // SNMP poll there reads a snapshot without all 8 rules, and its second,
  // one agent refresh later, is answered at ~1033 ms. The probe starts
  // then, the first redirect goes out at ~1063 ms and its flow_mod +
  // barrier are in flight until ~1073 ms. An outage at 1068 ms eats both
  // mid-flight.
  fault::FaultPlan plan;
  plan.ctrl_disconnect(1068 * kPicosPerMilli, 2 * kPicosPerMilli);
  fault::Injector inj{tb.eng, plan};
  inj.attach_channel(tb.chan);
  inj.arm();

  const Report r = tb.ctx.run(mod, 60 * kPicosPerSec);
  EXPECT_TRUE(mod.finished());  // degraded but complete — no hang
  EXPECT_EQ(inj.injected_total(), 1u);
  EXPECT_GE(tb.chan.messages_lost_in_flight(), 2u);  // flow_mod + barrier

  const auto scalar = [&r](const std::string& name) {
    for (const auto& s : r.scalars)
      if (s.name == name) return s.value;
    ADD_FAILURE() << "missing scalar " << name;
    return -1.0;
  };
  EXPECT_EQ(scalar("rounds_completed"), 5.0);  // every round measured
  EXPECT_EQ(scalar("channel_disconnects"), 1.0);
  EXPECT_GE(scalar("degraded_rounds"), 1.0);  // the hit round was re-driven
}

TEST(OflopsFaults, ConsistencySurvivesDisconnectDuringUpdateBurst) {
  Testbed tb{switch_config(), core::DeviceConfig(), slow_channel()};

  ConsistencyConfig cfg;
  cfg.rule_count = 16;
  cfg.warmup = 100 * kPicosPerMilli;
  cfg.drain = 50 * kPicosPerMilli;
  ConsistencyModule mod{cfg};

  // Install barrier returns at ~20 ms, the table wait sees all 16 rules
  // at its second SNMP poll (~1033 ms), the update burst fires after the
  // 100 ms warmup at ~1133 ms and its 16 flow_mods + barrier are in
  // flight until ~1143 ms. The outage at 1138 ms loses the whole burst;
  // without the reconnect re-drive no flow would ever switch and the
  // module would hang.
  fault::FaultPlan plan;
  plan.ctrl_disconnect(1138 * kPicosPerMilli, 3 * kPicosPerMilli);
  fault::Injector inj{tb.eng, plan};
  inj.attach_channel(tb.chan);
  inj.arm();

  const Report r = tb.ctx.run(mod, 60 * kPicosPerSec);
  EXPECT_TRUE(mod.finished());
  EXPECT_GE(tb.chan.messages_lost_in_flight(), 16u);

  const auto scalar = [&r](const std::string& name) {
    for (const auto& s : r.scalars)
      if (s.name == name) return s.value;
    ADD_FAILURE() << "missing scalar " << name;
    return -1.0;
  };
  EXPECT_EQ(scalar("flows_switched"), 16.0);  // measurement completed
  EXPECT_EQ(scalar("channel_disconnects"), 1.0);
  EXPECT_EQ(scalar("rules_resent"), 16.0);
}

TEST(OflopsFaults, CleanRunReportsNoDegradation) {
  Testbed tb{switch_config(), core::DeviceConfig(), slow_channel()};
  FlowModLatencyConfig cfg;
  cfg.table_size = 8;
  cfg.rounds = 3;
  cfg.settle = 30 * kPicosPerMilli;
  FlowModLatencyModule mod{cfg};
  const Report r = tb.ctx.run(mod, 60 * kPicosPerSec);
  EXPECT_TRUE(mod.finished());
  for (const auto& s : r.scalars) {
    if (s.name == "channel_disconnects" || s.name == "degraded_rounds") {
      EXPECT_EQ(s.value, 0.0) << s.name;
    }
  }
}

}  // namespace
}  // namespace osnt::oflops
