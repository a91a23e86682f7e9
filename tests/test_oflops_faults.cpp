// OFLOPS modules under control-channel outages: a disconnect that eats
// flow_mods/barriers mid-flight must degrade the measurement, not hang
// or crash it. Channel latency is raised to 10 ms so the in-flight
// window is wide and the injected outage deterministically lands inside
// it; the context's reconnect re-sends then complete the run.
#include <gtest/gtest.h>

#include <optional>

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
  fault::Injector inj{tb.eng, plan, fault::Targets{.channel = &tb.chan}};

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
  fault::Injector inj{tb.eng, plan, fault::Targets{.channel = &tb.chan}};

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
  EXPECT_EQ(scalar("degraded_rounds"), 1.0);  // the burst went again once
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

/// The value of scalar `name` in `r`; nullopt when the report lacks it.
std::optional<double> find_scalar(const Report& r, const std::string& name) {
  for (const auto& s : r.scalars)
    if (s.name == name) return s.value;
  return std::nullopt;
}

/// Installs kRules rules through the context at `send_at`, then runs one
/// simulated second more, so a second acknowledgement would show.
class InstallOnce final : public MeasurementModule {
 public:
  static constexpr std::uint32_t kRules = 8;

  explicit InstallOnce(Picos send_at) : send_at_(send_at) {}

  [[nodiscard]] std::string name() const override { return "install_once"; }
  void start(OflopsContext& ctx) override {
    ctx.timer_in(send_at_, kTimerSend);
  }
  void on_timer(OflopsContext& ctx, std::uint64_t timer_id) override {
    if (timer_id == kTimerSend) {
      std::vector<openflow::FlowMod> rules(kRules);
      for (std::uint32_t i = 0; i < kRules; ++i) {
        rules[i].match = openflow::OfMatch::exact_5tuple(
            0x0A000001, 0x0A000100 + i, net::ipproto::kUdp, 1024, 5001);
        rules[i].actions = {openflow::ActionOutput{2}};
      }
      ctx.install(std::move(rules), kTimerInstalled);
    } else if (timer_id == kTimerInstalled) {
      ++acks;
      acked_at = ctx.now();
      ctx.timer_in(kPicosPerSec, kTimerDone);
    } else if (timer_id == kTimerDone) {
      done_ = true;
    }
  }
  [[nodiscard]] bool finished() const override { return done_; }
  [[nodiscard]] Report report() const override {
    Report r;
    r.module = name();
    return r;
  }

  int acks = 0;
  Picos acked_at = -1;

 private:
  enum : std::uint64_t { kTimerSend = 1, kTimerInstalled, kTimerDone };
  Picos send_at_;
  bool done_ = false;
};

TEST(OflopsFaults, InstallLostInFlightIsSentAgainAndAcknowledgedOnce) {
  Testbed tb{switch_config(), core::DeviceConfig(), slow_channel()};
  InstallOnce mod{0};
  // The rules and their barrier are in flight until about 10 ms; the
  // session goes down at 5 ms and comes back at 7 ms at the earliest.
  fault::FaultPlan plan;
  plan.ctrl_disconnect(5 * kPicosPerMilli, 2 * kPicosPerMilli);
  fault::Injector inj{tb.eng, plan, fault::Targets{.channel = &tb.chan}};

  const Report r = tb.ctx.run(mod, 60 * kPicosPerSec);
  EXPECT_TRUE(mod.finished());
  EXPECT_EQ(tb.chan.reconnects(), 1u);
  EXPECT_GE(tb.chan.messages_lost_in_flight(), InstallOnce::kRules + 1);
  EXPECT_EQ(mod.acks, 1);
  // The re-sent barrier left at 7 ms or later and took two 10 ms hops.
  EXPECT_GE(mod.acked_at, 27 * kPicosPerMilli);
  EXPECT_EQ(tb.sw.table().size(), InstallOnce::kRules);
  EXPECT_EQ(find_scalar(r, "channel_disconnects"), 1.0);
  EXPECT_EQ(find_scalar(r, "degraded_rounds"), 1.0);
}

TEST(OflopsFaults, AnsweredInstallIsNotSentAgain) {
  Testbed tb{switch_config(), core::DeviceConfig(), slow_channel()};
  InstallOnce mod{0};
  // The barrier reply lands at about 20 ms; the outage comes after it.
  fault::FaultPlan plan;
  plan.ctrl_disconnect(30 * kPicosPerMilli, 2 * kPicosPerMilli);
  fault::Injector inj{tb.eng, plan, fault::Targets{.channel = &tb.chan}};

  const Report r = tb.ctx.run(mod, 60 * kPicosPerSec);
  EXPECT_TRUE(mod.finished());
  EXPECT_EQ(tb.chan.reconnects(), 1u);
  EXPECT_EQ(mod.acks, 1);
  EXPECT_LT(mod.acked_at, 30 * kPicosPerMilli);
  // The rules and one barrier, and nothing at the reconnect.
  EXPECT_EQ(tb.chan.controller().messages_sent(), InstallOnce::kRules + 1);
  EXPECT_EQ(find_scalar(r, "channel_disconnects"), 1.0);
  EXPECT_EQ(find_scalar(r, "degraded_rounds"), std::nullopt);
}

TEST(OflopsFaults, InstallSentWhileTheSessionIsDownGoesAtTheReconnect) {
  Testbed tb{switch_config(), core::DeviceConfig(), slow_channel()};
  InstallOnce mod{6 * kPicosPerMilli};  // inside the 5–7 ms outage
  fault::FaultPlan plan;
  plan.ctrl_disconnect(5 * kPicosPerMilli, 2 * kPicosPerMilli);
  fault::Injector inj{tb.eng, plan, fault::Targets{.channel = &tb.chan}};

  const Report r = tb.ctx.run(mod, 60 * kPicosPerSec);
  EXPECT_TRUE(mod.finished());
  EXPECT_EQ(tb.chan.controller().messages_dropped(), InstallOnce::kRules + 1);
  EXPECT_EQ(tb.chan.controller().messages_sent(), InstallOnce::kRules + 1);
  EXPECT_EQ(mod.acks, 1);
  EXPECT_EQ(tb.sw.table().size(), InstallOnce::kRules);
  EXPECT_EQ(find_scalar(r, "channel_disconnects"), 1.0);
  EXPECT_EQ(find_scalar(r, "degraded_rounds"), 1.0);
}

}  // namespace
}  // namespace osnt::oflops
