// Closed-loop transport cost + fidelity gate: (a) how many
// congestion-controlled flows the simulator can turn per wall second,
// measured with manual timing so items/sec is flows simulated per wall
// second of *simulation* — testbed construction (building N flow state
// machines, the device, the cable) happens outside the timed region;
// (b) the same at scale in a timer-dominated regime (gated >= 2x at 10k
// flows against a frozen pre-timing-wheel baseline); and (c) the
// goodput-vs-BER curve, the headline experiment of the tcp subsystem.
// BENCH_tcp.json (tools/bench_engine_snapshot.sh) snapshots all three.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
#include <string>

#include "osnt/core/device.hpp"
#include "osnt/fault/plan.hpp"
#include "osnt/graph/blocks.hpp"
#include "osnt/graph/graph.hpp"
#include "osnt/graph/topology.hpp"
#include "osnt/hw/port.hpp"
#include "osnt/tcp/workload.hpp"

namespace {

using namespace osnt;

tcp::WorkloadConfig bench_cfg(const char* cc, std::size_t flows) {
  tcp::WorkloadConfig cfg;
  cfg.cc = cc;
  cfg.flows = flows;
  cfg.bottleneck_gbps = 5.0;
  cfg.queue_segments = 256;
  cfg.seed = 1;
  return cfg;
}

/// Run one trial over a back-to-back cable, timing only the simulation.
/// Returns the report for counter bookkeeping.
tcp::TcpTrialReport timed_trial(benchmark::State& state,
                                const tcp::WorkloadConfig& cfg,
                                Picos duration) {
  // Untimed: engine/device construction, cabling, N flow state machines.
  sim::Engine eng;
  core::OsntDevice dev{eng};
  hw::connect(dev.port(0), dev.port(1));
  tcp::ClosedLoopWorkload workload{eng, dev, cfg};
  workload.start();
  const auto t0 = std::chrono::steady_clock::now();
  eng.run_until(duration);
  const auto t1 = std::chrono::steady_clock::now();
  state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
  return workload.report(duration);
}

/// Flow-simulation throughput: one 2 ms closed-loop trial per iteration,
/// items/sec = flows simulated per wall second. The per-flow cost is
/// dominated by segment builds + the ACK tap, so this tracks the whole
/// tx→link→rx→ack path, not just the scheduler.
void BM_ClosedLoopFlows(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  const auto cfg = bench_cfg("newreno", flows);
  std::uint64_t segs = 0;
  for (auto _ : state) {
    const auto r = timed_trial(state, cfg, 2 * kPicosPerMilli);
    segs += r.segs_sent;
    benchmark::DoNotOptimize(r.bytes_acked);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(flows));
  state.counters["segs_per_sec"] = benchmark::Counter(
      static_cast<double>(segs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ClosedLoopFlows)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// Flows/wall-second at 1k/10k/100k flows on the §12 hot path (wheel
/// timers + lazy delack + drop-early probe). The regime is deliberately
/// timer-dominated — small MSS, a starved 0.5 Gb/s bottleneck, and a
/// 200 µs min RTO — so most engine events are RTO re-arms/fires and
/// delayed-ACK timers rather than segment transfers.
/// tools/bench_engine_snapshot.sh derives the flows_per_wall_second axis
/// and checks it >= 2x the frozen pre-§12 `legacy_baseline` at 10k.
void BM_FlowScale(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  tcp::WorkloadConfig cfg = bench_cfg("newreno", flows);
  cfg.mss = 256;
  cfg.bottleneck_gbps = 0.5;
  cfg.min_rto = 200 * kPicosPerMicro;
  cfg.max_rto = 2 * kPicosPerMilli;
  std::uint64_t rto_fires = 0;
  for (auto _ : state) {
    const auto r = timed_trial(state, cfg, 2 * kPicosPerMilli);
    rto_fires += r.rto_fires;
    benchmark::DoNotOptimize(r.bytes_acked);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(flows));
  state.counters["rto_fires"] =
      static_cast<double>(rto_fires) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_FlowScale)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// Same trial, one point per congestion controller — the relative cost
/// of the three models (BBR pays for pacing timers).
void BM_ClosedLoopPerCc(benchmark::State& state) {
  static const char* kCc[] = {"newreno", "cubic", "bbr"};
  const char* cc = kCc[state.range(0)];
  const auto cfg = bench_cfg(cc, 4);
  for (auto _ : state) {
    const auto r = timed_trial(state, cfg, 2 * kPicosPerMilli);
    benchmark::DoNotOptimize(r.bytes_acked);
  }
  state.SetItemsProcessed(state.iterations() * 4);
  state.SetLabel(cc);
}
BENCHMARK(BM_ClosedLoopPerCc)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// The graph-indirection A/B: the same 8-flow closed-loop trial with the
/// device ports either cabled directly (arg 0) or through a scenario
/// graph with a pass-through monitor block on each direction (arg 1).
/// The frames, their timestamps, and the congestion-control trajectory
/// are identical by construction — the graph arm only adds the block
/// dispatch (input adapter, counters, emit, one zero-propagation Link
/// hop) per frame per direction. tools/bench_engine_snapshot.sh derives
/// graph_overhead from the pair; the gate is <= 5%.
void BM_GraphOverhead(benchmark::State& state) {
  const bool through_graph = state.range(0) == 1;
  const auto cfg = bench_cfg("newreno", 8);
  std::uint64_t bytes_acked = 0;
  for (auto _ : state) {
    // Untimed: engine/device/graph construction and cabling.
    sim::Engine eng;
    core::OsntDevice dev{eng};
    graph::Graph g{eng};
    if (through_graph) {
      g.emplace<graph::MonitorBlock>(eng, "fwd");
      g.emplace<graph::MonitorBlock>(eng, "rev");
      dev.port(0).out_link().connect(g.input("fwd"));
      g.connect_output("fwd", 0, dev.port(1).rx());
      dev.port(1).out_link().connect(g.input("rev"));
      g.connect_output("rev", 0, dev.port(0).rx());
      g.start();
    } else {
      dev.port(0).out_link().connect(dev.port(1).rx());
      dev.port(1).out_link().connect(dev.port(0).rx());
    }
    tcp::ClosedLoopWorkload workload{eng, dev, cfg};
    workload.start();
    const auto t0 = std::chrono::steady_clock::now();
    eng.run_until(2 * kPicosPerMilli);
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    bytes_acked = workload.total_bytes_acked();
    benchmark::DoNotOptimize(bytes_acked);
  }
  state.SetItemsProcessed(state.iterations() * 8);
  // Identical in both arms — the label makes the equivalence auditable
  // from the snapshot JSON.
  state.counters["bytes_acked"] = static_cast<double>(bytes_acked);
  state.SetLabel(through_graph ? "graph" : "direct");
}
BENCHMARK(BM_GraphOverhead)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// Goodput vs bit-error rate: a 6 ms BER window inside a 20 ms BBR run
/// over the back-to-back cable (a topology with no blocks). Arg indexes
/// the BER ladder; the achieved goodput lands in the "goodput_gbps"
/// counter, from which the snapshot script derives the curve. Index 0 is
/// the clean link (the 10%-of-bottleneck gate point).
void BM_GoodputVsBer(benchmark::State& state) {
  static constexpr double kBer[] = {0.0, 1e-7, 1e-6, 5e-6, 2e-5};
  const double ber = kBer[state.range(0)];
  graph::TopologyFile cable;
  cable.workload.kind = graph::WorkloadSpec::Kind::kTcp;
  cable.workload.cc = "bbr";
  cable.workload.flows = 4;
  cable.workload.bottleneck_gbps = 5.0;
  fault::FaultPlan plan;
  plan.seed = 5;
  plan.ber_window(2 * kPicosPerMilli, 6 * kPicosPerMilli, ber,
                  500 * kPicosPerMicro);
  double goodput = 0.0;
  for (auto _ : state) {
    const auto r = graph::run_topology_trial(
        cable, 1, 20 * kPicosPerMilli, {.plan = ber > 0.0 ? &plan : nullptr});
    goodput = r.tcp.goodput_bps;
    benchmark::DoNotOptimize(r.tcp.retransmits);
  }
  state.counters["ber"] = ber;
  state.counters["goodput_gbps"] = goodput / 1e9;
}
BENCHMARK(BM_GoodputVsBer)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

/// Rate-limit resilience (DESIGN.md §15): one BbrLite flow through a
/// drop-mode carrier policer at half the path rate, detector off
/// (arg 0) vs on (arg 1). Off, the bandwidth model is poisoned by
/// recovery-aliased line-rate samples and goodput collapses under RTO
/// storms; on, the flow adapts to the detected token rate. The
/// snapshot's `rate_limit_resilience` gate holds the on/off goodput
/// ratio >= 1.5x at <= 0.5x the off run's p99 RTT inflation.
void BM_RateLimitResilience(benchmark::State& state) {
  const bool detector = state.range(0) != 0;
  const std::string topo_json = std::string(R"({
    "name": "carrier_policer_bench", "seed": 3, "duration_ms": 40,
    "blocks": [
      {"name": "access", "type": "delay_ber", "delay_us": 20},
      {"name": "policer", "type": "token_bucket",
       "rate_gbps": 2.5, "burst_bytes": 30000, "shape": false},
      {"name": "egress_q", "type": "fifo_queue",
       "rate_gbps": 10.0, "queue_frames": 256},
      {"name": "tap", "type": "monitor", "rtt_probe": true},
      {"name": "ackpath", "type": "delay_ber", "delay_us": 20}
    ],
    "edges": [
      {"from": "access:0", "to": "policer:0"},
      {"from": "policer:0", "to": "egress_q:0"},
      {"from": "egress_q:0", "to": "tap:0"}
    ],
    "workload": {
      "kind": "tcp", "flows": 1, "cc": "bbr", "mss": 1448,
      "bottleneck_gbps": 5.0, "queue_segments": 256,
      "rate_limit_detector": )") +
                                (detector ? "true" : "false") + R"(,
      "ingress": "access:0", "egress": "tap:0",
      "ack_ingress": "ackpath:0", "ack_egress": "ackpath:0"
    }
  })";
  const auto topo = graph::TopologyFile::from_json(topo_json);
  graph::TopologyTrialReport r;
  for (auto _ : state) {
    r = graph::run_topology_trial(topo, topo.seed);
    benchmark::DoNotOptimize(r.tcp.bytes_acked);
  }
  state.counters["goodput_gbps"] = r.tcp.goodput_bps / 1e9;
  state.counters["rtt_inflation"] =
      r.tcp.rtt_min_ns > 0.0 ? r.tcp.rtt_p99_ns / r.tcp.rtt_min_ns : 0.0;
  state.counters["rld_detections"] =
      static_cast<double>(r.tcp.rld_detections);
  state.counters["detect_ms"] =
      static_cast<double>(r.tcp.rld_detect_time) /
      static_cast<double>(kPicosPerMilli);
}
BENCHMARK(BM_RateLimitResilience)
    ->DenseRange(0, 1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
