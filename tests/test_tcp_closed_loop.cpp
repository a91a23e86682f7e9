// Closed-loop acceptance tests: congestion-controlled flows over the
// simulated 4-port dataplane with ACKs returning through the reverse
// link, so injected faults (BER windows) perturb the control loop end to
// end. Trials run through graph::run_topology_trial on the block-less
// topology (device ports 0 and 1 cabled back to back) — the same path
// `osnt_run tcp` takes. Also pins the determinism contract: kSimOnly
// telemetry snapshots of a sharded tcp trial plan are byte-identical at
// any --jobs, and the topology path matches a hand-built workload.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "osnt/core/runner.hpp"
#include "osnt/fault/injector.hpp"
#include "osnt/fault/plan.hpp"
#include "osnt/graph/topology.hpp"
#include "osnt/hw/port.hpp"
#include "osnt/tcp/workload.hpp"
#include "osnt/telemetry/registry.hpp"
#include "osnt/telemetry/series.hpp"

namespace osnt::tcp {
namespace {

// Mirrors examples/faults/ber_tcp.json (tests cannot rely on the cwd):
// a bit-error window in the middle of the run, long and harsh enough at
// 5 Gb/s that multiple 1518 B frames are corrupted even after the ramp.
constexpr const char* kBerPlanJson = R"({
  "seed": 5,
  "events": [
    {"type": "ber_window", "at_ms": 2, "duration_ms": 6, "ber": 5e-6,
     "ramp_us": 500}
  ]
})";

constexpr double kBottleneckGbps = 5.0;

/// The back-to-back cable as a topology: no blocks, a tcp workload.
graph::TopologyFile cable(const std::string& cc, std::size_t flows) {
  graph::TopologyFile t;
  t.workload.kind = graph::WorkloadSpec::Kind::kTcp;
  t.workload.cc = cc;
  t.workload.flows = flows;
  t.workload.bottleneck_gbps = kBottleneckGbps;
  t.workload.queue_segments = 256;
  return t;
}

TcpTrialReport run_cable(const std::string& cc, std::size_t flows,
                         Picos duration,
                         const fault::FaultPlan* plan = nullptr,
                         std::uint64_t seed = 1) {
  return graph::run_topology_trial(cable(cc, flows), seed, duration,
                                   {.plan = plan})
      .tcp;
}

/// The same workload as cable(cc, flows), as a WorkloadConfig.
WorkloadConfig base_cfg(const std::string& cc, std::size_t flows) {
  WorkloadConfig cfg;
  cfg.cc = cc;
  cfg.flows = flows;
  cfg.bottleneck_gbps = kBottleneckGbps;
  cfg.queue_segments = 256;
  cfg.seed = 1;
  return cfg;
}

/// Builds the workload directly on a back-to-back cabled device, for the
/// tests that need a knob WorkloadSpec lacks (bytes_per_flow, max_rto,
/// heap-only timers) or the workload object itself. Series channels are
/// the tcp.* set run_topology_trial samples.
struct HandBuiltTrial {
  sim::Engine eng;
  core::OsntDevice dev{eng};
  std::optional<ClosedLoopWorkload> workload;
  std::optional<fault::Injector> injector;
  std::optional<telemetry::TimeSeries> series;
  telemetry::SeriesData series_data;

  explicit HandBuiltTrial(const WorkloadConfig& cfg,
                          const fault::FaultPlan* plan = nullptr,
                          bool wheel_timers = true) {
    eng.set_wheel_enabled(wheel_timers);
    hw::connect(dev.port(kTxPort), dev.port(kRxPort));
    workload.emplace(eng, dev, cfg);
    if (plan) {
      injector.emplace(eng, *plan, fault::Targets{.device = &dev});
    }
  }

  TcpTrialReport run(Picos duration, Picos series_interval = 0) {
    if (series_interval > 0) {
      const ClosedLoopWorkload& w = *workload;
      series.emplace(series_interval);
      series->add_counter("tcp.bytes_acked",
                          [&w] { return w.total_bytes_acked(); });
      series->add_counter("tcp.acks_sent",
                          [&w] { return w.total_acks_sent(); });
      series->add_counter("tcp.retransmits",
                          [&w] { return w.total_retransmits(); });
      series->add_counter("tcp.queue_drops",
                          [&w] { return w.source().drops(); });
      series->add_histogram("tcp.rtt.ns",
                            [&w] { return w.rtt_probe().merged(); });
      series->attach(eng, duration);
    }
    workload->start();
    eng.run_until(duration);
    if (series) {
      series->finish();
      series_data = series->take();
    }
    return workload->report(duration);
  }
};

/// The bottleneck rate is L1 (preamble + IFG included); application
/// goodput can at best be the TCP-payload share of a 1518 B frame's
/// 1538 B wire footprint.
double payload_share_of(double gbps) {
  return gbps * 1e9 * 1448.0 / 1538.0;
}

TEST(TcpClosedLoop, CleanLinkCompletesByteLimitedTransfers) {
  for (const char* cc : {"newreno", "cubic", "bbr"}) {
    WorkloadConfig cfg = base_cfg(cc, 2);
    cfg.bytes_per_flow = std::uint64_t{120} * 1448;
    HandBuiltTrial trial(cfg);
    const auto r = trial.run(20 * kPicosPerMilli);
    EXPECT_EQ(r.bytes_acked, 2 * cfg.bytes_per_flow) << cc;
    EXPECT_EQ(r.rto_fires, 0u) << cc;
  }
}

TEST(TcpClosedLoop, BbrDeliveryRateTracksBottleneckWithinTenPercent) {
  const auto r = run_cable("bbr", 1, 20 * kPicosPerMilli);
  const double expected = payload_share_of(kBottleneckGbps);
  EXPECT_GE(r.min_flow_rate_bps, 0.9 * expected);
  EXPECT_LE(r.max_flow_rate_bps, 1.1 * expected);
  // A clean link also means BBR should fill the pipe without loss.
  EXPECT_EQ(r.retransmits, 0u);
  EXPECT_GE(r.goodput_bps, 0.85 * expected);
}

TEST(TcpClosedLoop, GoodputFallsMonotonicallyWithBer) {
  // BENCH_tcp.json's goodput_curve gates over BM_GoodputVsBer's trials:
  // 4 BBR flows on the cable for 20 ms, a 6 ms ber_window from 2 ms with
  // a 500 us ramp. The clean point is within 10% of the payload share of
  // the bottleneck, and goodput never rises as the BER does.
  const double bers[] = {0.0, 1e-7, 1e-6, 5e-6, 2e-5};
  std::vector<double> goodput;
  for (const double ber : bers) {
    fault::FaultPlan plan;
    plan.seed = 5;
    plan.ber_window(2 * kPicosPerMilli, 6 * kPicosPerMilli, ber,
                    500 * kPicosPerMicro);
    goodput.push_back(run_cable("bbr", 4, 20 * kPicosPerMilli,
                                ber > 0.0 ? &plan : nullptr)
                          .goodput_bps);
  }
  const double expected = payload_share_of(kBottleneckGbps);
  EXPECT_NEAR(goodput[0], expected, 0.1 * expected);
  for (std::size_t i = 1; i < goodput.size(); ++i) {
    EXPECT_LE(goodput[i], goodput[i - 1]) << "ber " << bers[i];
  }
}

TEST(TcpClosedLoop, FlowsShareTheBottleneck) {
  const auto r = run_cable("newreno", 4, 20 * kPicosPerMilli);
  // Aggregate goodput approaches the pipe; nobody is starved outright.
  EXPECT_GE(r.goodput_bps, 0.6 * payload_share_of(kBottleneckGbps));
  EXPECT_GT(r.min_flow_rate_bps, 0.0);
  EXPECT_GT(r.acks_sent, 0u);
}

TEST(TcpClosedLoop, BerWindowForcesRetransmissionAndCwndReduction) {
  // The headline acceptance: osnt_run tcp --cc bbr --flows 8 with a
  // ber_window plan must produce at least one retransmission and a cwnd
  // reduction reacting to the error window — loss anywhere on the sim
  // path closes the loop.
  const fault::FaultPlan plan = fault::FaultPlan::from_json(kBerPlanJson);
  const auto faulted = run_cable("bbr", 8, 20 * kPicosPerMilli, &plan);
  EXPECT_GE(faulted.retransmits, 1u);
  EXPECT_GE(faulted.cwnd_reductions, 1u);
  EXPECT_GT(faulted.bytes_acked, 0u);
}

TEST(TcpClosedLoop, BerWindowIsTheOnlyLossSourceAtLowFanIn) {
  // At 8 flows the startup burst alone overflows the shared 256-segment
  // queue, so the clean-vs-faulted contrast needs a fan-in the bottleneck
  // buffer can absorb: a single BBR flow is loss-free on a clean link,
  // and every loss signal under the plan is attributable to the window.
  const fault::FaultPlan plan = fault::FaultPlan::from_json(kBerPlanJson);
  const auto clean = run_cable("bbr", 1, 20 * kPicosPerMilli);
  EXPECT_EQ(clean.retransmits + clean.rto_fires, 0u);
  EXPECT_EQ(clean.cwnd_reductions, 0u);

  const auto faulted = run_cable("bbr", 1, 20 * kPicosPerMilli, &plan);
  EXPECT_GE(faulted.retransmits, 1u);
  EXPECT_GE(faulted.cwnd_reductions, 1u);
  EXPECT_LT(faulted.goodput_bps, clean.goodput_bps);
}

TEST(TcpClosedLoop, EveryControllerRecoversThroughTheBerWindow) {
  const fault::FaultPlan plan = fault::FaultPlan::from_json(kBerPlanJson);
  for (const char* cc : {"newreno", "cubic", "bbr"}) {
    WorkloadConfig cfg = base_cfg(cc, 4);
    // Bound the RTO backoff so a flow silenced inside the 6 ms window is
    // back within a couple of milliseconds of it closing.
    cfg.max_rto = 8 * kPicosPerMilli;
    HandBuiltTrial trial(cfg, &plan);
    const auto r = trial.run(30 * kPicosPerMilli);
    EXPECT_GE(r.retransmits, 1u) << cc;
    EXPECT_GE(r.cwnd_reductions, 1u) << cc;
    // Recovery: goodput despite the window (the loop keeps turning).
    EXPECT_GT(r.goodput_bps, 0.2 * payload_share_of(kBottleneckGbps)) << cc;
  }
}

TEST(TcpClosedLoop, ReceiverCountsOutOfOrderSegmentsUnderLoss) {
  const fault::FaultPlan plan = fault::FaultPlan::from_json(kBerPlanJson);
  const auto r = run_cable("newreno", 2, 20 * kPicosPerMilli, &plan);
  // A dropped data frame makes its successors arrive above rcv_nxt.
  EXPECT_GT(r.retransmits, 0u);
}

TEST(TcpClosedLoop, LazyDelayedAckElidesTimerCancels) {
  // The delack timer is armed once and left armed across ACK sends; a
  // cumulative ACK riding on data just clears pending_ack_segs. Every
  // such elision is counted — under steady bidirectional load there must
  // be many, and the engine must see strictly fewer cancels than arms.
  HandBuiltTrial trial(base_cfg("bbr", 2));
  (void)trial.run(10 * kPicosPerMilli);
  EXPECT_GT(trial.workload->delack_cancels_saved(), 0u);
  EXPECT_GT(trial.workload->total_acks_sent(), 0u);
}

TEST(TcpClosedLoop, FlowIndexIsFlowIdAndAddressesAreStable) {
  // The demux maps a frame to a flow index, and flow(i) must be the flow
  // built for that index. Flows are never moved, so a flow's address
  // holds from construction until the workload is destroyed.
  constexpr std::size_t kFlows = 600;
  HandBuiltTrial trial(base_cfg("newreno", kFlows));
  ClosedLoopWorkload& w = *trial.workload;
  ASSERT_EQ(w.num_flows(), kFlows);
  std::vector<const Flow*> addr(kFlows);
  for (std::size_t i = 0; i < kFlows; ++i) {
    const FlowConfig& fc = w.flow(i).config();
    EXPECT_EQ(fc.flow_id, i);
    EXPECT_EQ(fc.dst_port, receiver_port_of(i));
    EXPECT_EQ(flow_index_of_data(fc.dst_ip, fc.dst_port), i);
    EXPECT_EQ(flow_index_of_ack(fc.src_ip, fc.src_port), i);
    addr[i] = &w.flow(i);
  }
  (void)trial.run(2 * kPicosPerMilli);
  EXPECT_GT(w.total_acks_sent(), 0u);
  for (std::size_t i = 0; i < kFlows; ++i) EXPECT_EQ(&w.flow(i), addr[i]);
}

// ------------------------------------------------ one telemetry shard

TEST(TcpClosedLoop, WorkloadFlushesTheSummedFlowStatsOnce) {
  // Every flow records into the workload's one shard; the workload
  // writes the flows' summed stats when it is destroyed. The BER window
  // and 16 flows on a 256-frame queue make every checked counter move.
  auto& reg = telemetry::registry();
  reg.reset();
  const fault::FaultPlan plan = fault::FaultPlan::from_json(kBerPlanJson);
  HandBuiltTrial trial(base_cfg("newreno", 16), &plan);
  (void)trial.run(20 * kPicosPerMilli);
  std::uint64_t segs = 0, retx = 0, rtos = 0, rejects = 0, acked = 0;
  for (std::size_t i = 0; i < trial.workload->num_flows(); ++i) {
    const FlowStats& s = trial.workload->flow(i).stats();
    segs += s.segs_sent;
    retx += s.retransmits;
    rtos += s.rto_fires;
    rejects += s.emit_rejects;
    acked += s.bytes_acked;
  }
  ASSERT_GT(retx, 0u);
  ASSERT_GT(rtos, 0u);
  ASSERT_GT(rejects, 0u);
  trial.workload.reset();
  EXPECT_EQ(reg.counter("tcp.segs_sent").value(), segs);
  EXPECT_EQ(reg.counter("tcp.retransmits").value(), retx);
  EXPECT_EQ(reg.counter("tcp.rto_fires").value(), rtos);
  EXPECT_EQ(reg.counter("tcp.emit_rejects").value(), rejects);
  EXPECT_EQ(reg.counter("tcp.bytes_acked").value(), acked);
  EXPECT_GT(reg.histogram("tcp.cwnd_bytes").snapshot().count(), 0u);
}

TEST(TcpClosedLoop, UnstartedWorkloadFlushesNothing) {
  // No flow ever sent a segment, so destroying the workload must leave
  // the registry exactly as it was: no tcp.segs_sent, no tcp.cwnd_bytes
  // (in a fresh process neither name exists before or after).
  auto& reg = telemetry::registry();
  reg.reset();
  HandBuiltTrial trial(base_cfg("newreno", 4));
  const std::string before = reg.to_json(telemetry::Snapshot::kAll);
  trial.workload.reset();
  EXPECT_EQ(reg.to_json(telemetry::Snapshot::kAll), before);
}

// ------------------------------------------------------- one trial path

TEST(TcpClosedLoop, TopologyPathMatchesHandBuiltWorkload) {
  // run_topology_trial on the block-less topology is the cable pair: the
  // same trial built by hand on a cabled device must agree byte for byte
  // — the kSimOnly snapshot, every report field, and the series.
  auto& reg = telemetry::registry();
  const fault::FaultPlan ber = fault::FaultPlan::from_json(kBerPlanJson);
  const fault::FaultPlan* plans[] = {nullptr, &ber};
  const Picos duration = 10 * kPicosPerMilli;
  for (const char* cc : {"newreno", "cubic", "bbr"}) {
    for (const fault::FaultPlan* plan : plans) {
      for (const Picos interval : {Picos{0}, kPicosPerMilli}) {
        const std::string what = std::string(cc) + (plan ? " ber" : " clean") +
                                 (interval ? " series" : "");
        reg.reset();
        const graph::TopologyTrialReport via_topo = graph::run_topology_trial(
            cable(cc, 8), 1, duration,
            {.plan = plan, .series_interval = interval});
        const std::string topo_snapshot =
            reg.to_json(telemetry::Snapshot::kSimOnly);

        reg.reset();
        TcpTrialReport by_hand;
        std::string hand_series;
        {
          HandBuiltTrial trial(base_cfg(cc, 8), plan);
          by_hand = trial.run(duration, interval);
          hand_series = trial.series_data.to_json();
        }
        EXPECT_EQ(topo_snapshot, reg.to_json(telemetry::Snapshot::kSimOnly))
            << what;
        EXPECT_TRUE(via_topo.tcp == by_hand) << what;
        EXPECT_GT(by_hand.bytes_acked, 0u) << what;
        EXPECT_EQ(via_topo.series.to_json(), hand_series) << what;
        if (interval > 0) {
          EXPECT_EQ(via_topo.series.channels.count("tcp.bytes_acked"), 1u)
              << what;
        }
      }
    }
  }
}

// ------------------------------------------------------- determinism

/// kSimOnly snapshot of a 4-trial plan. The default arm runs through
/// run_topology_trial; the heap arm builds the workload by hand with the
/// engine's timing wheel off (the topology path has no timer knob, and
/// TopologyPathMatchesHandBuiltWorkload pins the two builds together).
std::string tcp_sim_snapshot_for_jobs(std::size_t jobs,
                                      bool wheel_timers = true) {
  auto& reg = telemetry::registry();
  reg.reset();
  const fault::FaultPlan plan = fault::FaultPlan::from_json(kBerPlanJson);
  core::TrialPlan trial_plan;
  trial_plan.points.resize(4);
  for (std::size_t i = 0; i < trial_plan.points.size(); ++i) {
    trial_plan.points[i].seed = 100 + i;
  }
  trial_plan.run = [&plan, wheel_timers](const core::TrialPoint& pt) {
    const char* cc = pt.index % 2 == 0 ? "bbr" : "cubic";
    const Picos duration = 5 * kPicosPerMilli;
    TcpTrialReport r;
    if (wheel_timers) {
      r = run_cable(cc, 2, duration, &plan, pt.seed);
    } else {
      WorkloadConfig cfg = base_cfg(cc, 2);
      cfg.seed = pt.seed;
      HandBuiltTrial trial(cfg, &plan, /*wheel_timers=*/false);
      r = trial.run(duration);
    }
    core::TrialStats s;
    s.tx_frames = r.segs_sent;
    s.rx_frames = r.acks_sent;
    return s;
  };
  core::RunnerConfig rcfg;
  rcfg.jobs = jobs;
  for (const auto& r : core::Runner{rcfg}.run_resilient(trial_plan))
    EXPECT_TRUE(r.ok()) << r.error;
  return reg.to_json(telemetry::Snapshot::kSimOnly);
}

TEST(TcpClosedLoop, SimSnapshotsByteIdenticalAcrossJobs) {
  const std::string serial = tcp_sim_snapshot_for_jobs(1);
  EXPECT_GT(serial.size(), 0u);
  EXPECT_NE(serial.find("tcp.segs_sent"), std::string::npos);
  EXPECT_NE(serial.find("tcp.cwnd_bytes"), std::string::npos);
  EXPECT_NE(serial.find("tcp.acks_sent"), std::string::npos);
  EXPECT_EQ(serial, tcp_sim_snapshot_for_jobs(4));
}

TEST(TcpClosedLoop, SimSnapshotsByteIdenticalWheelVsHeap) {
  // The timing-wheel determinism contract end to end: routing RTO/delack/
  // pacing timers through the timing wheel instead of the heap must not
  // change a single byte of kSimOnly telemetry — implementation-detail
  // gauges carry the "impl" token and are filtered out, and the wheel
  // drains entries into the heap with their exact arm-time keys.
  const std::string wheel = tcp_sim_snapshot_for_jobs(1, true);
  EXPECT_GT(wheel.size(), 0u);
  EXPECT_EQ(wheel, tcp_sim_snapshot_for_jobs(1, false));
}

TEST(TcpClosedLoop, TrialReportsIdenticalWheelVsHeap) {
  const fault::FaultPlan plan = fault::FaultPlan::from_json(kBerPlanJson);
  for (const char* cc : {"newreno", "bbr"}) {
    WorkloadConfig cfg = base_cfg(cc, 4);
    cfg.seed = 9;
    HandBuiltTrial wheel(cfg, &plan, /*wheel_timers=*/true);
    HandBuiltTrial heap(cfg, &plan, /*wheel_timers=*/false);
    const auto a = wheel.run(10 * kPicosPerMilli);
    const auto b = heap.run(10 * kPicosPerMilli);
    EXPECT_GT(a.bytes_acked, 0u) << cc;
    EXPECT_TRUE(a == b) << cc;
  }
}

TEST(TcpClosedLoop, RerunsAreByteIdenticalForFixedSeed) {
  const fault::FaultPlan plan = fault::FaultPlan::from_json(kBerPlanJson);
  const auto a = run_cable("bbr", 3, 10 * kPicosPerMilli, &plan, 77);
  const auto b = run_cable("bbr", 3, 10 * kPicosPerMilli, &plan, 77);
  EXPECT_GT(a.bytes_acked, 0u);
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace osnt::tcp
