// Topology loader: strict-JSON error paths (unknown block types, dangling
// edges, port mismatches, duplicate names — each with a position and a
// did-you-mean hint), adversarial input (deep nesting, out-of-range
// integers, a seeded mutation sweep over every example topology), a
// round-trip of the schema into a live trial, and the headline
// determinism claim: a dumbbell of closed-loop TCP flows is
// byte-identical under kSimOnly telemetry at any --jobs value.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "osnt/common/random.hpp"
#include "osnt/core/device.hpp"
#include "osnt/core/runner.hpp"
#include "osnt/graph/topology.hpp"
#include "osnt/hw/port.hpp"
#include "osnt/telemetry/registry.hpp"
#include "osnt/telemetry/series.hpp"
#include "json_mutator.hpp"

namespace osnt {
namespace {

using graph::TopologyFile;

/// Parse `text` expecting a TopologyError; return its message for
/// substring checks.
std::string load_error(const std::string& text) {
  try {
    (void)TopologyFile::from_json(text);
  } catch (const graph::TopologyError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected TopologyError, topology loaded fine";
  return {};
}

void expect_contains(const std::string& msg, const std::string& needle) {
  EXPECT_NE(msg.find(needle), std::string::npos)
      << "expected \"" << needle << "\" in: " << msg;
}

constexpr const char* kMinimalCbr = R"({
  "name": "mini",
  "seed": 9,
  "duration_us": 1500,
  "blocks": [
    {"name": "q", "type": "fifo_queue", "rate_gbps": 10.0, "queue_frames": 32}
  ],
  "edges": [],
  "workload": {
    "kind": "cbr", "rate_gbps": 2.0, "frame_size": 512,
    "ingress": "q:0", "egress": "q:0"
  }
})";

TEST(Topology, ParsesMinimalFile) {
  const TopologyFile t = TopologyFile::from_json(kMinimalCbr);
  EXPECT_EQ(t.name, "mini");
  EXPECT_EQ(t.seed, 9u);
  EXPECT_EQ(t.duration, 1500 * kPicosPerMicro);
  ASSERT_EQ(t.blocks.size(), 1u);
  EXPECT_EQ(t.blocks[0].type, "fifo_queue");
  EXPECT_EQ(t.blocks[0].fifo.queue_frames, 32u);
  EXPECT_EQ(t.workload.kind, graph::WorkloadSpec::Kind::kCbr);
  EXPECT_EQ(t.workload.frame_size, 512u);
  EXPECT_EQ(t.workload.ingress.block, "q");
  EXPECT_EQ(t.workload.egress.port, 0u);
}

TEST(Topology, KnownTypesCoverTheBlockLibrary) {
  const auto& types = TopologyFile::known_types();
  for (const char* t : {"fifo_queue", "red", "token_bucket", "delay_ber",
                        "ecmp", "sink", "monitor", "legacy_switch"}) {
    EXPECT_NE(std::find(types.begin(), types.end(), t), types.end())
        << "missing type " << t;
  }
}

TEST(Topology, UnknownBlockTypeSuggestsNearest) {
  const std::string msg = load_error(R"({
    "name": "t",
    "blocks": [{"name": "q", "type": "fifo_quue"}],
    "workload": {"kind": "none"}
  })");
  expect_contains(msg, "unknown block type 'fifo_quue'");
  expect_contains(msg, "did you mean 'fifo_queue'?");
  expect_contains(msg, "line");  // position of the offending value
}

TEST(Topology, UnknownKeySuggestsNearest) {
  const std::string msg = load_error(R"({
    "name": "t",
    "blocks": [{"name": "q", "type": "fifo_queue", "rate_gbsp": 10.0}],
    "workload": {"kind": "none"}
  })");
  expect_contains(msg, "unknown key 'rate_gbsp'");
  expect_contains(msg, "did you mean 'rate_gbps'?");
}

TEST(Topology, DanglingEdgeIsAnError) {
  const std::string msg = load_error(R"({
    "name": "t",
    "blocks": [{"name": "queue0", "type": "fifo_queue"},
               {"name": "drain", "type": "sink"}],
    "edges": [{"from": "queue0:0", "to": "drain0:0"}],
    "workload": {"kind": "none"}
  })");
  expect_contains(msg, "unknown block 'drain0'");
  expect_contains(msg, "did you mean 'drain'?");
}

TEST(Topology, PortCountMismatchIsAnError) {
  const std::string msg = load_error(R"({
    "name": "t",
    "blocks": [{"name": "spray", "type": "ecmp", "fanout": 2},
               {"name": "drain", "type": "sink"}],
    "edges": [{"from": "spray:2", "to": "drain:0"}],
    "workload": {"kind": "none"}
  })");
  expect_contains(msg, "block 'spray' has no output port 2");
  expect_contains(msg, "outputs: 2");
}

TEST(Topology, DuplicateBlockNameIsAnError) {
  const std::string msg = load_error(R"({
    "name": "t",
    "blocks": [{"name": "q", "type": "fifo_queue"},
               {"name": "q", "type": "sink"}],
    "workload": {"kind": "none"}
  })");
  expect_contains(msg, "duplicate block name 'q'");
}

TEST(Topology, DoubleWiredOutputIsAnError) {
  const std::string msg = load_error(R"({
    "name": "t",
    "blocks": [{"name": "q", "type": "fifo_queue"},
               {"name": "a", "type": "sink"},
               {"name": "b", "type": "sink"}],
    "edges": [{"from": "q:0", "to": "a:0"}, {"from": "q:0", "to": "b:0"}],
    "workload": {"kind": "none"}
  })");
  expect_contains(msg, "output 'q:0' is already wired");
}

TEST(Topology, ConflictingTimeUnitsAreAnError) {
  const std::string msg = load_error(R"({
    "name": "t",
    "blocks": [{"name": "w", "type": "delay_ber",
                "delay_ns": 10, "delay_us": 1}],
    "workload": {"kind": "none"}
  })");
  expect_contains(msg, "'delay' given in more than one unit");
}

TEST(Topology, CbrFlowsMustFitThePortRange) {
  // Flow i sends from port 1024 + i. 2^32 + 5 must not wrap to 5 flows.
  const auto with_flows = [](const std::string& flows) {
    return R"({"name": "t", "blocks": [{"name": "q", "type": "fifo_queue"}],
               "workload": {"kind": "cbr", "flows": )" +
           flows + R"(, "ingress": "q:0", "egress": "q:0"}})";
  };
  EXPECT_EQ(TopologyFile::from_json(with_flows("64512")).workload.flow_count,
            64512u);
  for (const char* flows : {"0", "64513", "4294967301"}) {
    const std::string msg = load_error(with_flows(flows));
    expect_contains(msg, "'flows' must be in [1, 64512]");
    expect_contains(msg, std::string("got ") + flows);
  }
}

TEST(Topology, TcpMssMustFitAMaximumSizeFrame) {
  // 1448 B of payload behind 66 B of headers and a 4 B FCS is a 1518 B
  // frame. One byte more and the receiving MAC drops every data frame as
  // a giant, so the workload must be refused up front.
  const auto with_mss = [](int mss) {
    return TopologyFile::from_json(
        R"({"name": "t", "blocks": [{"name": "q", "type": "fifo_queue"}],
            "workload": {"kind": "tcp", "mss": )" +
        std::to_string(mss) + R"(, "ingress": "q:0", "egress": "q:0"}})");
  };
  EXPECT_NO_THROW(graph::validate_workload(with_mss(1448)));
  for (const int mss : {1449, 1500, 9000}) {
    try {
      graph::validate_workload(with_mss(mss));
      ADD_FAILURE() << "mss " << mss << " accepted";
    } catch (const graph::TopologyError& e) {
      expect_contains(e.what(), "'mss' must be at most 1448");
      expect_contains(e.what(), "got " + std::to_string(mss));
    }
  }
}

TEST(Topology, TcpFlowsMustFitTheAddressingScheme) {
  // Flow i's index is split across a port number and an IP octet, which
  // addresses 2^21 flows; one more would fail every trial at set-up.
  const auto with_flows = [](const std::string& flows) {
    return R"({"name": "t", "blocks": [{"name": "q", "type": "fifo_queue"}],
               "workload": {"kind": "tcp", "flows": )" +
           flows + R"(, "ingress": "q:0", "egress": "q:0"}})";
  };
  EXPECT_EQ(TopologyFile::from_json(with_flows("2097152")).workload.flows,
            tcp::kMaxFlows);
  for (const char* flows : {"2097153", "3000000"}) {
    const std::string msg = load_error(with_flows(flows));
    expect_contains(msg, "'flows' must be at most 2097152 (the flow "
                         "addressing scheme's capacity)");
    expect_contains(msg, std::string("got ") + flows);
  }
}

TEST(Topology, TcpRwndMustHoldOneSegment) {
  // A window smaller than one mss never opens: the run would send
  // nothing and report 0 Gb/s.
  const auto with = [](const std::string& kv) {
    return R"({"name": "t", "blocks": [{"name": "q", "type": "fifo_queue"}],
               "workload": {"kind": "tcp", )" +
           kv + R"(, "ingress": "q:0", "egress": "q:0"}})";
  };
  EXPECT_EQ(TopologyFile::from_json(with(R"("rwnd_kb": 2)")).workload.rwnd_kb,
            2u);
  EXPECT_EQ(TopologyFile::from_json(with(R"("rwnd_kb": 1, "mss": 1024)"))
                .workload.rwnd_kb,
            1u);
  for (const char* rwnd : {"0", "1"}) {
    const std::string msg = load_error(with(R"("rwnd_kb": )" + std::string(rwnd)));
    expect_contains(msg, "'rwnd_kb' must be at least 2 (one 1448 B "
                         "segment), got " + std::string(rwnd));
  }
  expect_contains(load_error(with(R"("rwnd_kb": 1, "mss": 1025)")),
                  "'rwnd_kb' must be at least 2 (one 1025 B segment), got 1");
}

TEST(Topology, CbrArrivalsAreCbrOrPoisson) {
  const auto with_arrivals = [](const std::string& kv) {
    return R"({"name": "t", "blocks": [{"name": "q", "type": "fifo_queue"}],
               "workload": {"kind": "cbr", )" +
           kv + R"("ingress": "q:0", "egress": "q:0"}})";
  };
  using Arrivals = core::TrafficSpec::Arrivals;
  EXPECT_EQ(TopologyFile::from_json(with_arrivals("")).workload.arrivals,
            Arrivals::kCbr);
  EXPECT_EQ(TopologyFile::from_json(with_arrivals(R"("arrivals": "cbr", )"))
                .workload.arrivals,
            Arrivals::kCbr);
  EXPECT_EQ(
      TopologyFile::from_json(with_arrivals(R"("arrivals": "poisson", )"))
          .workload.arrivals,
      Arrivals::kPoisson);
  const std::string msg =
      load_error(with_arrivals(R"("arrivals": "poison", )"));
  expect_contains(msg, "unknown arrivals 'poison'");
  expect_contains(msg, "did you mean 'poisson'?");
  expect_contains(msg, "line 2 column");
  expect_contains(load_error(with_arrivals(R"("arrivals": 1, )")),
                  "'arrivals' must be a string");
}

TEST(Topology, ArrivalsIsOnlyACbrKey) {
  const std::string msg = load_error(
      R"({"name": "t", "blocks": [{"name": "q", "type": "fifo_queue"}],
          "workload": {"kind": "tcp", "arrivals": "poisson",
                       "ingress": "q:0", "egress": "q:0"}})");
  expect_contains(msg, "unknown key 'arrivals'");
}

TEST(Topology, DeepNestingIsAPositionedError) {
  // 100 KB of '[' must not overflow the parser's stack.
  EXPECT_EQ(load_error(std::string(100000, '[')),
            "topology JSON: nesting deeper than 64 levels "
            "(line 1 column 65)");
}

TEST(Topology, EndpointPortPastTheIntegerRangeIsAnError) {
  const std::string msg = load_error(
      R"({"blocks": [{"name": "tap", "type": "monitor"}],
          "workload": {"kind": "cbr", "ingress": "tap:0",
                       "egress": "tap:99999999999999999999999"}})");
  expect_contains(msg, "workload: bad port in endpoint "
                       "'tap:99999999999999999999999' (line 3 column 34)");
}

TEST(Topology, CountsPastTheIntegerRangeAreErrors) {
  // Each is range-checked before its double-to-integer cast.
  const std::string tcp =
      R"("workload": {"kind": "tcp", "ingress": "q:0", "egress": "q:0")";
  const struct {
    std::string text;
    std::string want;
  } kCases[] = {
      {R"({"blocks": [{"name": "q", "type": "fifo_queue"}], )" + tcp +
           R"(, "flows": 1e30}})",
       "workload: 'flows' must be at most 18446744073709551615, got 1e+30 "
       "(line 1 column 123)"},
      {R"({"seed": 1e30, "blocks": [{"name": "q", "type": "fifo_queue"}]})",
       "topology: 'seed' must be at most 18446744073709551615, got 1e+30 "
       "(line 1 column 10)"},
      {R"({"blocks": [{"name": "q", "type": "fifo_queue",
                       "queue_frames": 18446744073709551616}]})",
       "('q'): 'queue_frames' must be at most 18446744073709551615, got "
       "1.84467440737096e+19 (line 2 column 40)"},
      {R"({"blocks": [{"name": "p", "type": "token_bucket",
                       "burst_bytes": 1e30}]})",
       "('p'): 'burst_bytes' must be at most 18446744073709551615, got 1e+30 "
       "(line 2 column 39)"},
      // 2^32 + 1448 must not wrap to a valid mss.
      {R"({"blocks": [{"name": "q", "type": "fifo_queue"}], )" + tcp +
           R"(, "mss": 4294968744}})",
       "workload: 'mss' must be at most 4294967295, got 4294968744 "
       "(line 1 column 121)"},
  };
  for (const auto& c : kCases) expect_contains(load_error(c.text), c.want);
}

TEST(Topology, DutTopologyIsACableOrATwoPortSwitch) {
  const TopologyFile none = graph::dut_topology("none");
  EXPECT_TRUE(none.blocks.empty());
  EXPECT_EQ(none.workload.kind, graph::WorkloadSpec::Kind::kCbr);
  for (const char* name : {"legacy", "lossy"}) {
    const TopologyFile t = graph::dut_topology(name);
    ASSERT_EQ(t.blocks.size(), 1u) << name;
    const graph::BlockSpec& b = t.blocks[0];
    EXPECT_EQ(b.name, "dut");
    EXPECT_EQ(b.type, "legacy_switch");
    EXPECT_EQ(b.legacy_switch.num_ports, 2u);
    EXPECT_EQ(b.legacy_switch.lookup_rate_mpps,
              std::string(name) == "lossy" ? 2.0 : 0.0);
    const graph::WorkloadSpec& w = t.workload;
    EXPECT_EQ(w.ingress.port, 0u);
    EXPECT_EQ(w.egress.port, 1u);
    ASSERT_TRUE(w.ack_ingress && w.ack_egress);
    EXPECT_EQ(w.ack_ingress->port, 1u);
    EXPECT_EQ(w.ack_egress->port, 0u);
  }
  try {
    (void)graph::dut_topology("lossyy");
    ADD_FAILURE() << "unknown DUT accepted";
  } catch (const graph::TopologyError& e) {
    expect_contains(e.what(), "unknown DUT 'lossyy'");
    expect_contains(e.what(), "did you mean 'lossy'?");
  }
  EXPECT_THROW((void)graph::dut_topology("switch"), graph::TopologyError);
}

TEST(Topology, CbrTrialRunsThroughTheGraph) {
  const TopologyFile t = TopologyFile::from_json(kMinimalCbr);
  const graph::TopologyTrialReport r = graph::run_topology_trial(t, t.seed);
  EXPECT_GT(r.cbr.tx_frames, 0u);
  EXPECT_GT(r.cbr.rx_frames, 0u);
  EXPECT_LT(r.cbr.loss_fraction(), 0.01);
  ASSERT_EQ(r.blocks.size(), 1u);
  EXPECT_EQ(r.blocks[0].name, "q");
  EXPECT_EQ(r.blocks[0].frames_in, r.cbr.tx_frames);
  EXPECT_EQ(r.graph_frames_in, r.blocks[0].frames_in);
}

// Two queues whose names hold "wall" and "impl" inside a segment name.
constexpr const char* kHostMarkerLookalikes = R"({
  "name": "lookalikes",
  "seed": 9,
  "duration_us": 1500,
  "blocks": [
    {"name": "firewall", "type": "fifo_queue", "rate_gbps": 10.0,
     "queue_frames": 32},
    {"name": "simple_q", "type": "fifo_queue", "rate_gbps": 10.0,
     "queue_frames": 32}
  ],
  "edges": [{"from": "firewall:0", "to": "simple_q:0"}],
  "workload": {
    "kind": "cbr", "rate_gbps": 2.0, "frame_size": 512,
    "ingress": "firewall:0", "egress": "simple_q:0"
  }
})";

TEST(Topology, SimOnlySnapshotKeepsBlocksNamedLikeHostMarkers) {
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);
  telemetry::registry().reset();
  const TopologyFile t = TopologyFile::from_json(kHostMarkerLookalikes);
  const graph::TopologyTrialReport r = graph::run_topology_trial(t, t.seed);
  ASSERT_GT(r.cbr.rx_frames, 0u);
  const std::string all =
      telemetry::registry().to_json(telemetry::Snapshot::kAll);
  const std::string sim =
      telemetry::registry().to_json(telemetry::Snapshot::kSimOnly);
  for (const std::string name : {"firewall", "simple_q"}) {
    const std::string line = "\"graph." + name + ".frames_in\": " +
                             std::to_string(r.cbr.tx_frames);
    EXPECT_NE(all.find(line), std::string::npos) << line;
    EXPECT_NE(sim.find(line), std::string::npos) << line;
  }
  telemetry::registry().reset();
  telemetry::set_enabled(was_enabled);
}

// A scaled-down dumbbell10: closed-loop TCP flows share a RED bottleneck
// with an in-plane monitor tap behind it, and a symmetric delay on the
// ACK path.
constexpr const char* kMiniDumbbell = R"({
  "name": "mini_dumbbell",
  "seed": 1,
  "duration_ms": 4,
  "blocks": [
    {"name": "access", "type": "delay_ber", "delay_us": 2},
    {"name": "bottleneck", "type": "red", "rate_gbps": 1.0,
     "queue_frames": 60, "min_th": 8, "max_th": 30, "max_p": 0.1},
    {"name": "tap", "type": "monitor", "rtt_probe": true},
    {"name": "ackpath", "type": "delay_ber", "delay_us": 2}
  ],
  "edges": [{"from": "access:0", "to": "bottleneck:0"},
            {"from": "bottleneck:0", "to": "tap:0"}],
  "workload": {
    "kind": "tcp", "flows": 4, "cc": "newreno",
    "ingress": "access:0", "egress": "tap:0",
    "ack_ingress": "ackpath:0", "ack_egress": "ackpath:0"
  }
})";

struct DumbbellOutcome {
  std::vector<graph::TopologyTrialReport> reports;
  std::string sim_metrics_json;
};

DumbbellOutcome run_dumbbell_trials(std::size_t jobs,
                                    Picos series_interval = 0) {
  telemetry::registry().reset();
  const TopologyFile topo = TopologyFile::from_json(kMiniDumbbell);
  DumbbellOutcome out;
  out.reports.resize(3);

  core::TrialPlan plan;
  for (std::size_t i = 0; i < out.reports.size(); ++i) {
    core::TrialPoint pt;
    pt.seed = topo.seed + i;
    plan.points.push_back(pt);
  }
  plan.run = [&](const core::TrialPoint& pt) {
    // Slots are disjoint across workers.
    out.reports[pt.index] = graph::run_topology_trial(
        topo, pt.seed, /*duration=*/0, {.series_interval = series_interval});
    return core::TrialStats{};  // the report carries the results
  };

  core::RunnerConfig rcfg;
  rcfg.jobs = jobs;
  for (const auto& r : core::Runner{rcfg}.run_resilient(plan))
    EXPECT_TRUE(r.ok()) << r.error;
  out.sim_metrics_json =
      telemetry::registry().to_json(telemetry::Snapshot::kSimOnly);
  return out;
}

/// Merge the per-trial series the way the CLI does: in plan (index)
/// order. merge_from is commutative, so this is just the canonical order.
telemetry::SeriesData merged_series(const DumbbellOutcome& out) {
  telemetry::SeriesData merged;
  for (const auto& r : out.reports) merged.merge_from(r.series);
  return merged;
}

TEST(Topology, DumbbellTcpMakesForwardProgress) {
  const TopologyFile topo = TopologyFile::from_json(kMiniDumbbell);
  const auto r = graph::run_topology_trial(topo, topo.seed);
  EXPECT_GT(r.tcp.bytes_acked, 0u);
  EXPECT_GT(r.tcp.segs_sent, 0u);
  // The 1 Gbps RED bottleneck is the constraint: goodput must be below
  // line rate but the loop must stay busy.
  EXPECT_LT(r.tcp.goodput_bps, 1.1e9);
  EXPECT_GT(r.tcp.goodput_bps, 1e8);
}

TEST(Topology, DumbbellIsByteIdenticalAcrossJobs) {
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);

  const DumbbellOutcome serial = run_dumbbell_trials(1);
  const DumbbellOutcome parallel = run_dumbbell_trials(4);

  // Per-trial reports agree slot for slot...
  ASSERT_EQ(serial.reports.size(), parallel.reports.size());
  for (std::size_t i = 0; i < serial.reports.size(); ++i) {
    EXPECT_EQ(serial.reports[i].tcp.bytes_acked,
              parallel.reports[i].tcp.bytes_acked)
        << "trial " << i;
    EXPECT_EQ(serial.reports[i].tcp.retransmits,
              parallel.reports[i].tcp.retransmits)
        << "trial " << i;
    EXPECT_EQ(serial.reports[i].graph_drops, parallel.reports[i].graph_drops)
        << "trial " << i;
  }
  EXPECT_GT(serial.reports[0].tcp.bytes_acked, 0u);

  // ...and so does the whole sim-only telemetry snapshot, byte for byte.
  EXPECT_EQ(serial.sim_metrics_json, parallel.sim_metrics_json);
  EXPECT_NE(serial.sim_metrics_json.find("graph.bottleneck.frames_in"),
            std::string::npos)
      << serial.sim_metrics_json;

  telemetry::registry().reset();
  telemetry::set_enabled(was_enabled);
}

TEST(Topology, DumbbellMonitorReportsRttQuantiles) {
  const TopologyFile topo = TopologyFile::from_json(kMiniDumbbell);
  const auto r = graph::run_topology_trial(topo, topo.seed);

  const graph::BlockCounters* tap = nullptr;
  for (const auto& b : r.blocks) {
    if (b.name == "tap") tap = &b;
    // Only monitor blocks carry an RTT population.
    if (b.name != "tap") {
      EXPECT_EQ(b.rtt_samples, 0u) << b.name;
    }
  }
  ASSERT_NE(tap, nullptr);
  EXPECT_GT(tap->frames_in, 0u);
  // The tap sits behind the bottleneck: every data segment that survived
  // RED is in the histogram, and the quantiles are ordered.
  EXPECT_GT(tap->rtt_samples, 0u);
  EXPECT_GT(tap->rtt_p50_ns, 0.0);
  EXPECT_LE(tap->rtt_p50_ns, tap->rtt_p90_ns);
  EXPECT_LE(tap->rtt_p90_ns, tap->rtt_p99_ns);
  // frame_bytes makes series-derived throughput possible without a
  // separate tap: it must track frames_in (TCP segments are >= 64B).
  EXPECT_GE(tap->frame_bytes, 64 * tap->frames_in);
}

TEST(Topology, MonitorRttProbeCanBeDisabled) {
  std::string quiet = kMiniDumbbell;
  const std::string on = "\"rtt_probe\": true";
  quiet.replace(quiet.find(on), on.size(), "\"rtt_probe\": false");
  const TopologyFile topo = TopologyFile::from_json(quiet);
  const auto r = graph::run_topology_trial(topo, topo.seed);
  for (const auto& b : r.blocks) {
    if (b.name != "tap") continue;
    EXPECT_GT(b.frames_in, 0u);  // still forwards
    EXPECT_EQ(b.rtt_samples, 0u);
  }
}

TEST(Topology, DumbbellSeriesByteIdenticalAcrossJobs) {
  const DumbbellOutcome serial = run_dumbbell_trials(1, kPicosPerMilli);
  const DumbbellOutcome parallel = run_dumbbell_trials(4, kPicosPerMilli);

  const telemetry::SeriesData a = merged_series(serial);
  const telemetry::SeriesData b = merged_series(parallel);
  const std::string json = a.to_json();
  EXPECT_EQ(json, b.to_json());

  // The merged series carries the per-block channels, the monitor RTT
  // trajectory, and the aggregate tcp channels for all three trials.
  EXPECT_EQ(a.trials, 3u);
  EXPECT_EQ(a.interval, kPicosPerMilli);
  EXPECT_GE(a.intervals(), 4u);  // 4 ms sampled every 1 ms
  EXPECT_NE(json.find("graph.tap.rtt.ns"), std::string::npos);
  EXPECT_NE(json.find("graph.bottleneck.frames_in"), std::string::npos);
  EXPECT_NE(json.find("graph.tap.frame_bytes"), std::string::npos);
  EXPECT_NE(json.find("tcp.bytes_acked"), std::string::npos);
  EXPECT_NE(json.find("tcp.rtt.ns"), std::string::npos);

  // The trajectory is real, not a flat line: TCP moved bytes in at least
  // one sampled interval.
  std::uint64_t acked = 0;
  for (const std::uint64_t d : a.channels.at("tcp.bytes_acked").deltas)
    acked += d;
  EXPECT_GT(acked, 0u);
}

TEST(Topology, CbrSeriesCarriesTheDeviceMonitor) {
  const TopologyFile t = TopologyFile::from_json(kMinimalCbr);
  const graph::TopologyTrialReport r = graph::run_topology_trial(
      t, t.seed, /*duration=*/0, {.series_interval = 500 * kPicosPerMicro});
  const auto& ch = r.series.channels;
  for (const char* name : {"mon.rx.frames_seen", "mon.rx.captured",
                           "mon.rx.dma_drops", "mon.rx.rtt.ns",
                           "graph.q.frames_in"}) {
    EXPECT_EQ(ch.count(name), 1u) << name;
  }
  // The series runs to the end of the drain, so its deltas add up to the
  // trial's totals: every frame the monitor saw is a probe.
  std::uint64_t seen = 0;
  for (const std::uint64_t d : ch.at("mon.rx.frames_seen").deltas) seen += d;
  EXPECT_GT(seen, 0u);
  EXPECT_EQ(seen, r.cbr.rx_frames);
}

TEST(Topology, HandlerTimingIsOptIn) {
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);
  const TopologyFile t = TopologyFile::from_json(kMinimalCbr);
  for (const bool timing : {false, true}) {
    telemetry::registry().reset();
    (void)graph::run_topology_trial(t, t.seed, /*duration=*/0,
                                    {.handler_timing = timing});
    EXPECT_EQ(telemetry::registry()
                      .counter("sim.engine.handler_ns.wall.gen")
                      .value() > 0,
              timing);
  }
  telemetry::registry().reset();
  telemetry::set_enabled(was_enabled);
}

TEST(Topology, FrameSentAtTimeZeroHasALatencySample) {
  // The generator's first frame leaves at sim time 0. Both ground-truth
  // histograms, the in-plane tap's and the device monitor's, must count
  // it like any other frame.
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);
  telemetry::registry().reset();
  const TopologyFile t = TopologyFile::from_json(R"({
    "name": "t0", "duration_us": 20,
    "blocks": [{"name": "tap", "type": "monitor"}],
    "workload": {"kind": "cbr", "rate_gbps": 1.0, "frame_size": 64,
                 "ingress": "tap:0", "egress": "tap:0"}
  })");
  const graph::TopologyTrialReport r = graph::run_topology_trial(t, t.seed);
  ASSERT_GT(r.cbr.tx_frames, 0u);
  EXPECT_EQ(r.cbr.rx_frames, r.cbr.tx_frames);
  ASSERT_EQ(r.blocks.size(), 1u);
  EXPECT_EQ(r.blocks[0].rtt_samples, r.cbr.tx_frames);
  EXPECT_EQ(
      telemetry::registry().histogram("mon.rx.latency_ns").snapshot().count(),
      r.cbr.tx_frames);
  telemetry::registry().reset();
  telemetry::set_enabled(was_enabled);
}

/// What a trial leaves behind: its result and the kSimOnly registry.
struct DutRun {
  core::TrialStats r;
  std::string sim_json;
};

/// The hand-cabled reference for dut_topology(): an engine, a device and,
/// for legacy or lossy, one 2-port legacy switch block seeded as the
/// loader seeds block 0. Nothing is sent before the probe stream.
DutRun run_hand_wired(const std::string& dut, const graph::WorkloadSpec& w,
                      std::uint64_t seed, Picos duration) {
  telemetry::registry().reset();
  DutRun out;
  {
    sim::Engine eng;
    core::OsntDevice dev{eng};
    std::optional<graph::Graph> g;
    if (dut == "none") {
      hw::connect(dev.port(0), dev.port(1));
    } else {
      dut::LegacySwitchConfig cfg;
      cfg.num_ports = 2;
      if (dut == "lossy") cfg.lookup_rate_mpps = 2.0;
      cfg.seed = derive_seed(seed, 0x1090);
      g.emplace(eng);
      g->emplace<dut::LegacySwitch>(eng, "dut", cfg);
      dev.port(0).out_link().connect(g->input("dut", 0));
      dev.port(1).out_link().connect(g->input("dut", 1));
      g->connect_output("dut", 0, dev.port(0).rx());
      g->connect_output("dut", 1, dev.port(1).rx());
      g->start();
    }
    core::TrafficSpec spec;
    spec.rate = gen::RateSpec::gbps(w.rate_gbps);
    spec.frame_size = w.frame_size;
    spec.arrivals = w.arrivals;
    spec.seed = seed;
    out.r = core::run_capture_test(eng, dev, 0, 1, spec, duration);
  }
  out.sim_json = telemetry::registry().to_json(telemetry::Snapshot::kSimOnly);
  return out;
}

TEST(Topology, DutTopologyMatchesTheHandWiredTestbed) {
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);
  constexpr std::uint64_t kSeed = 5;
  constexpr Picos kDuration = 300 * kPicosPerMicro;
  using Arrivals = core::TrafficSpec::Arrivals;
  for (const char* dut : {"none", "legacy", "lossy"}) {
    for (const Arrivals arrivals : {Arrivals::kCbr, Arrivals::kPoisson}) {
      SCOPED_TRACE(std::string(dut) +
                   (arrivals == Arrivals::kCbr ? " cbr" : " poisson"));
      TopologyFile t = graph::dut_topology(dut);
      t.workload.rate_gbps = 9.5;
      t.workload.frame_size = 128;
      t.workload.arrivals = arrivals;
      const DutRun want = run_hand_wired(dut, t.workload, kSeed, kDuration);

      telemetry::registry().reset();
      DutRun got;
      got.r = graph::run_topology_trial(t, kSeed, kDuration).cbr;
      got.sim_json =
          telemetry::registry().to_json(telemetry::Snapshot::kSimOnly);

      EXPECT_GT(got.r.rx_frames, 0u);
      EXPECT_EQ(got.r.tx_frames, want.r.tx_frames);
      EXPECT_EQ(got.r.rx_frames, want.r.rx_frames);
      EXPECT_EQ(got.r.captured, want.r.captured);
      EXPECT_EQ(got.r.dma_drops, want.r.dma_drops);
      EXPECT_EQ(got.r.offered_gbps, want.r.offered_gbps);
      EXPECT_EQ(got.r.delivered_gbps, want.r.delivered_gbps);
      EXPECT_EQ(got.r.latency_ns.samples(), want.r.latency_ns.samples());
      EXPECT_EQ(got.r.jitter_ns.samples(), want.r.jitter_ns.samples());
      EXPECT_EQ(got.sim_json, want.sim_json);
    }
  }
  // The lossy switch's 2 Mpps lookup stage drops most of 8 Mpps.
  TopologyFile lossy = graph::dut_topology("lossy");
  lossy.workload.rate_gbps = 9.5;
  lossy.workload.frame_size = 128;
  EXPECT_GT(graph::run_topology_trial(lossy, kSeed, kDuration)
                .cbr.loss_fraction(),
            0.5);
  telemetry::registry().reset();
  telemetry::set_enabled(was_enabled);
}

// Seeded mutations of every example topology: each case loads or throws
// TopologyError, never anything else and never UB (CI runs this under
// ASan+UBSan).
TEST(Topology, MutatedExamplesLoadOrThrowTopologyError) {
  fuzz::JsonMutator mutator{
      fuzz::read_corpus(OSNT_EXAMPLES_DIR "/topologies"), 0x70B0};
  std::size_t loaded = 0;
  for (int i = 0; i < 10000; ++i) {
    const std::string text = mutator.next();
    try {
      (void)TopologyFile::from_json(text);
      ++loaded;
    } catch (const graph::TopologyError&) {
    } catch (const std::exception& e) {
      FAIL() << "case " << i << " threw " << e.what() << " for:\n" << text;
    }
  }
  // Enough mutations keep the document valid to reach the field checks.
  EXPECT_GT(loaded, 100u);
}

}  // namespace
}  // namespace osnt
