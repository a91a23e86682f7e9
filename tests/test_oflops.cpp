// OFLOPS-turbo framework + modules running against the full Testbed.
#include <gtest/gtest.h>

#include "osnt/fault/injector.hpp"
#include "osnt/fault/plan.hpp"
#include "osnt/oflops/action_latency.hpp"
#include "osnt/oflops/consistency.hpp"
#include "osnt/oflops/context.hpp"
#include "osnt/oflops/echo_rtt.hpp"
#include "osnt/oflops/flowmod_latency.hpp"
#include "osnt/oflops/packet_in_latency.hpp"
#include "osnt/oflops/interaction.hpp"
#include "osnt/oflops/stats_poll.hpp"

namespace osnt::oflops {
namespace {

double scalar(const Report& r, const std::string& name) {
  for (const auto& m : r.scalars)
    if (m.name == name) return m.value;
  ADD_FAILURE() << "missing scalar " << name;
  return -1;
}

const SampleSet& dist(const Report& r, const std::string& name) {
  for (const auto& [n, d] : r.distributions)
    if (n == name) return d;
  static SampleSet empty;
  ADD_FAILURE() << "missing distribution " << name;
  return empty;
}

TEST(Testbed, WiresFourCables) {
  Testbed tb;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(tb.osnt.port(i).cabled());
    EXPECT_TRUE(tb.sw.port(i).cabled());
  }
}

TEST(EchoRtt, MeasuresChannelPlusAgent) {
  Testbed tb;
  EchoRttConfig cfg;
  cfg.count = 20;
  EchoRttModule mod{cfg};
  const auto rep = tb.ctx.run(mod);
  EXPECT_EQ(scalar(rep, "echo_replies"), 20);
  const auto& rtt = dist(rep, "rtt_us");
  ASSERT_EQ(rtt.count(), 20u);
  // 2× channel latency (50 µs) + agent service (~20 µs) ⇒ ~120 µs.
  EXPECT_GT(rtt.quantile(0.5), 100.0);
  EXPECT_LT(rtt.quantile(0.5), 200.0);
}

TEST(PacketInLatency, StampSurvivesTruncation) {
  Testbed tb;
  PacketInLatencyConfig cfg;
  cfg.probes = 30;
  PacketInLatencyModule mod{cfg};
  const auto rep = tb.ctx.run(mod);
  EXPECT_EQ(scalar(rep, "packet_ins_received"), 30);
  const auto& lat = dist(rep, "packet_in_latency_us");
  ASSERT_EQ(lat.count(), 30u);
  // Data path + agent + channel ⇒ dominated by agent+channel (~70 µs+).
  EXPECT_GT(lat.min(), 50.0);
  EXPECT_LT(lat.quantile(0.5), 1000.0);
}

TEST(FlowModLatency, DataPlaneLagsControlPlane) {
  dut::OpenFlowSwitchConfig sw_cfg;
  sw_cfg.commit_base = 2 * kPicosPerMilli;
  Testbed tb{sw_cfg};
  FlowModLatencyConfig cfg;
  cfg.rounds = 8;
  cfg.table_size = 16;
  FlowModLatencyModule mod{cfg};
  const auto rep = tb.ctx.run(mod, 120 * kPicosPerSec);
  EXPECT_EQ(scalar(rep, "rounds_completed"), 8);
  const auto& ctrl = dist(rep, "control_plane_ms");
  const auto& data = dist(rep, "data_plane_ms");
  ASSERT_GE(ctrl.count(), 8u);
  ASSERT_EQ(data.count(), 8u);
  // The barrier acks before the hardware commit: data > control.
  EXPECT_GT(data.quantile(0.5), ctrl.quantile(0.5));
  // Data-plane install ≈ commit_base (2 ms) + probe spacing.
  EXPECT_GT(data.quantile(0.5), 2.0);
  EXPECT_LT(data.quantile(0.5), 30.0);
}

TEST(FlowModLatency, SpecFaithfulBarrierClosesGap) {
  dut::OpenFlowSwitchConfig sw_cfg;
  sw_cfg.commit_base = 2 * kPicosPerMilli;
  sw_cfg.barrier_covers_commit = true;
  Testbed tb{sw_cfg};
  FlowModLatencyConfig cfg;
  cfg.rounds = 6;
  cfg.table_size = 8;
  FlowModLatencyModule mod{cfg};
  const auto rep = tb.ctx.run(mod, 120 * kPicosPerSec);
  const auto& ctrl = dist(rep, "control_plane_ms");
  ASSERT_GE(ctrl.count(), 6u);
  // Now the barrier itself waits ≥ commit time.
  EXPECT_GT(ctrl.quantile(0.5), 2.0);
}

TEST(FlowModLatency, MeasuresAFullTable) {
  // table_size counts the probe rule, so a full table still forwards the
  // probe and every round completes.
  dut::OpenFlowSwitchConfig sw_cfg;
  sw_cfg.table.max_entries = 64;
  Testbed tb{sw_cfg};
  FlowModLatencyConfig cfg;
  cfg.table_size = 64;
  cfg.rounds = 5;
  FlowModLatencyModule mod{cfg};
  const auto rep = tb.ctx.run(mod, 5 * kPicosPerSec);
  EXPECT_EQ(scalar(rep, "rounds_completed"), 5);
  EXPECT_EQ(dist(rep, "data_plane_ms").count(), 5u);
  EXPECT_EQ(tb.sw.table().size(), 64u);
}

TEST(FlowModLatency, RefusedFillEndsTheRun) {
  // One rule more than the table holds: the switch refuses the last fill
  // rule at its commit, about 70 ms in. The table can never be what the
  // module asked for, so the run ends there and says why.
  dut::OpenFlowSwitchConfig sw_cfg;
  sw_cfg.table.max_entries = 64;
  Testbed tb{sw_cfg};
  FlowModLatencyConfig cfg;
  cfg.table_size = 65;
  FlowModLatencyModule mod{cfg};
  const auto rep = tb.ctx.run(mod, 60 * kPicosPerSec);
  EXPECT_LT(tb.eng.now(), kPicosPerSec);
  EXPECT_FALSE(mod.finished());
  EXPECT_EQ(rep.stopped,
            "the switch refused a flow_mod: OFPFMFC_ALL_TABLES_FULL");
  EXPECT_EQ(tb.sw.table().size(), 64u);
}

/// Installs one rule, then a DELETE of it once the rule is acknowledged,
/// and finishes one simulated second after the DELETE is acknowledged.
/// The barrier answers before the commit, so finishing on the
/// acknowledgement itself could beat the DELETE's refusal.
class InstallThenDelete final : public MeasurementModule {
 public:
  [[nodiscard]] std::string name() const override {
    return "install_then_delete";
  }
  void start(OflopsContext& ctx) override {
    ctx.install({rule(openflow::FlowModCommand::kAdd)}, kTimerInstalled);
  }
  void on_timer(OflopsContext& ctx, std::uint64_t timer_id) override {
    if (timer_id == kTimerInstalled) {
      ctx.install({rule(openflow::FlowModCommand::kDelete)}, kTimerDeleted);
    } else if (timer_id == kTimerDeleted) {
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

 private:
  enum : std::uint64_t { kTimerInstalled = 1, kTimerDeleted, kTimerDone };
  static openflow::FlowMod rule(openflow::FlowModCommand command) {
    openflow::FlowMod fm;
    fm.command = command;
    fm.match = openflow::OfMatch::exact_5tuple(
        0x0A000001, 0x0A000102, net::ipproto::kUdp, 1024, 5001);
    fm.actions = {openflow::ActionOutput{2}};
    return fm;
  }
  bool done_ = false;
};

TEST(Context, RefusedFlowModEndsTheRun) {
  // The switch carries out only a plain ADD: the DELETE is refused at its
  // commit, the run ends there, and the rule stays.
  Testbed tb;
  InstallThenDelete mod;
  const auto rep = tb.ctx.run(mod, 60 * kPicosPerSec);
  EXPECT_EQ(rep.stopped, "the switch refused a flow_mod: OFPFMFC_BAD_COMMAND");
  EXPECT_FALSE(mod.finished());
  EXPECT_LT(tb.eng.now(), kPicosPerSec);
  EXPECT_EQ(tb.sw.table().size(), 1u);
}

TEST(FlowModLatency, ProbeWaitsForASlowFill) {
  // 600 fillers at 10 ms a commit land after 6 s. The rounds must start
  // on the finished table, so each measures one commit, not the backlog.
  dut::OpenFlowSwitchConfig sw_cfg;
  sw_cfg.commit_base = 10 * kPicosPerMilli;
  Testbed tb{sw_cfg};
  FlowModLatencyConfig cfg;
  cfg.table_size = 600;
  cfg.rounds = 4;
  FlowModLatencyModule mod{cfg};
  const auto rep = tb.ctx.run(mod, 60 * kPicosPerSec);
  const auto& data = dist(rep, "data_plane_ms");
  ASSERT_EQ(data.count(), 4u);
  EXPECT_GT(data.min(), 10.0);
  EXPECT_LT(data.max(), 20.0);
}

TEST(Consistency, UpdateWindowAndStaleness) {
  dut::OpenFlowSwitchConfig sw_cfg;
  sw_cfg.commit_base = 500 * kPicosPerMicro;  // 0.5 ms per rule
  Testbed tb{sw_cfg};
  ConsistencyConfig cfg;
  cfg.rule_count = 32;
  cfg.traffic_gbps = 1.0;
  ConsistencyModule mod{cfg};
  const auto rep = tb.ctx.run(mod, 120 * kPicosPerSec);
  EXPECT_EQ(scalar(rep, "flows_switched"), 32);
  // Rules commit serially at ~0.5 ms each ⇒ window ≈ 16 ms, and during
  // it the old path keeps forwarding: stale packets must exist.
  EXPECT_GT(scalar(rep, "stale_packets_after_burst"), 0);
  EXPECT_GT(scalar(rep, "update_window_ms"), 5.0);
  const auto& eff = dist(rep, "rule_effective_ms");
  EXPECT_EQ(eff.count(), 32u);
  EXPECT_GT(eff.max(), eff.min());
}

TEST(Consistency, BurstStartsOnAnInstalledTable) {
  // 128 rules at 2 ms a commit take 256 ms to install, longer than the
  // 100 ms warmup. The burst waits for them, so its first rule takes
  // effect one commit after it is sent.
  dut::OpenFlowSwitchConfig sw_cfg;
  sw_cfg.commit_base = 2 * kPicosPerMilli;
  Testbed tb{sw_cfg};
  ConsistencyModule mod;
  const auto rep = tb.ctx.run(mod, 120 * kPicosPerSec);
  EXPECT_EQ(scalar(rep, "flows_switched"), 128);
  EXPECT_LT(dist(rep, "rule_effective_ms").min(), 3.0);
}

TEST(StatsPoll, RttScalesWithTableAndPacketInsSurvive) {
  // 1024 entries do not fit one 64 KiB reply, so they come in parts.
  for (const double rules : {256.0, 1024.0}) {
    SCOPED_TRACE(rules);
    Testbed tb;
    StatsPollConfig cfg;
    cfg.table_size = static_cast<std::size_t>(rules);
    cfg.probes_per_phase = 40;
    StatsPollModule mod{cfg};
    const auto rep = tb.ctx.run(mod, 300 * kPicosPerSec);
    EXPECT_GT(scalar(rep, "stats_polls_answered"), 0);
    // Every answered poll reported the full table.
    EXPECT_EQ(scalar(rep, "flow_entries_reported"),
              scalar(rep, "stats_polls_answered") * rules);
    const auto& rtt = dist(rep, "stats_rtt_ms");
    ASSERT_GT(rtt.count(), 0u);
    // Scan cost: agent service + 2 µs per entry (≥ 0.5 ms) + channel.
    EXPECT_GT(rtt.quantile(0.5), 0.5);
    const auto& base = dist(rep, "packet_in_baseline_us");
    const auto& poll = dist(rep, "packet_in_while_polling_us");
    EXPECT_EQ(base.count(), 40u);
    EXPECT_EQ(poll.count(), 40u);
    // Polling may inflate the tail but must not break the path.
    EXPECT_GE(poll.quantile(0.5), base.quantile(0.5) * 0.8);
  }
}

TEST(Interaction, StormSlowsRuleInstallation) {
  dut::OpenFlowSwitchConfig sw_cfg;
  sw_cfg.agent_service = 200 * kPicosPerMicro;  // a slow agent CPU
  sw_cfg.agent_jitter_ns = 0;
  Testbed tb{sw_cfg};
  InteractionConfig cfg;
  cfg.rounds_per_phase = 20;
  cfg.storm_pps = 1500.0;  // 30% agent utilization at 200 µs/job
  InteractionModule mod{cfg};
  const auto rep = tb.ctx.run(mod, 300 * kPicosPerSec);

  const auto& idle = dist(rep, "barrier_rtt_idle_us");
  const auto& storm = dist(rep, "barrier_rtt_under_storm_us");
  ASSERT_EQ(idle.count(), 20u);
  ASSERT_EQ(storm.count(), 20u);
  EXPECT_GT(scalar(rep, "packet_ins_during_run"), 0);
  // Queueing behind punt jobs inflates the storm-phase tail.
  EXPECT_GT(storm.quantile(0.9), idle.quantile(0.9));
  double slowdown = 0;
  for (const auto& m : rep.scalars)
    if (m.name == "storm_slowdown_x") slowdown = m.value;
  EXPECT_GE(slowdown, 1.0);
}

TEST(ActionLatency, SlowPathRewriteShowsUp) {
  dut::OpenFlowSwitchConfig sw_cfg;
  sw_cfg.action_modify_latency = 20 * kPicosPerMicro;  // slow-path switch
  sw_cfg.latency_jitter_ns = 0;
  Testbed tb{sw_cfg};
  ActionLatencyConfig cfg;
  cfg.samples_per_mode = 50;
  ActionLatencyModule mod{cfg};
  const auto rep = tb.ctx.run(mod, 120 * kPicosPerSec);

  const SampleSet* plain = nullptr;
  const SampleSet* rewrite = nullptr;
  double overhead = -1;
  for (const auto& [name, d] : rep.distributions) {
    if (name == "forward_only_ns") plain = &d;
    if (name == "vlan_rewrite_ns") rewrite = &d;
  }
  for (const auto& m : rep.scalars)
    if (m.name == "action_overhead_ns") overhead = m.value;
  ASSERT_NE(plain, nullptr);
  ASSERT_NE(rewrite, nullptr);
  EXPECT_EQ(plain->count(), 50u);
  EXPECT_EQ(rewrite->count(), 50u);
  // The 20 µs slow-path cost dominates the measured overhead.
  EXPECT_NEAR(overhead, 20'000.0, 1'000.0);
}

TEST(ActionLatency, FastRewriteIsCheap) {
  dut::OpenFlowSwitchConfig sw_cfg;
  sw_cfg.action_modify_latency = 50 * kPicosPerNano;  // pipeline rewrite
  sw_cfg.latency_jitter_ns = 0;
  Testbed tb{sw_cfg};
  ActionLatencyConfig cfg;
  cfg.samples_per_mode = 30;
  ActionLatencyModule mod{cfg};
  const auto rep = tb.ctx.run(mod, 120 * kPicosPerSec);
  for (const auto& m : rep.scalars) {
    if (m.name == "action_overhead_ns") {
      EXPECT_LT(m.value, 500.0);
      EXPECT_GT(m.value, 0.0);
    }
  }
}

TEST(ActionLatency, SendsNoFrameWhileItsRuleIsUnanswered) {
  // The control channel goes down before the plain rule's install and
  // stays down past the run's timeout: the probes wait for the rule.
  Testbed tb;
  fault::FaultPlan plan;
  plan.ctrl_disconnect(0, 700 * kPicosPerSec);
  fault::Injector inj{tb.eng, plan, fault::Targets{.channel = &tb.chan}};
  ActionLatencyModule mod;
  const Report rep = tb.ctx.run(mod, 600 * kPicosPerSec);
  EXPECT_FALSE(mod.finished());
  EXPECT_FALSE(rep.stopped.empty());
  EXPECT_EQ(tb.osnt.tx(0).frames_sent(), 0u);
}

TEST(Report, PrintDoesNotCrash) {
  Report r;
  r.module = "demo";
  r.add("x", 1.5, "ms");
  SampleSet s;
  s.add(1);
  s.add(2);
  r.add_distribution("d", s);
  std::FILE* sink = std::fopen("/dev/null", "w");
  ASSERT_NE(sink, nullptr);
  r.print(sink);
  std::fclose(sink);
}

}  // namespace
}  // namespace osnt::oflops
