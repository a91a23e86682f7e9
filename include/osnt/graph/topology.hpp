// Declarative topologies: a JSON file names a set of blocks, wires their
// ports, and picks a workload; TopologyFile turns that into a live Graph
// and run_topology_trial() closes the loop with the OSNT device — TCP
// flows or a CBR stream enter the graph at `ingress` and leave at
// `egress`, with an optional separate path for the reverse direction.
//
// Parsing is strict (osnt::json): any unknown key or misspelled block
// type is a hard error with the line/column it occurred at, plus a
// did-you-mean suggestion for plausible typos. Wiring errors — dangling
// edges, port-count mismatches, an output claimed twice, duplicate block
// names — fail at load() time, before any engine exists.
//
// Determinism: per-block random streams (RED's drop lottery, delay_ber's
// corruption) are derived from the trial seed and the block's ordinal,
// so a topology run is byte-identical for a fixed (file, seed) pair at
// any --jobs value.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "osnt/burst/source.hpp"
#include "osnt/core/measure.hpp"
#include "osnt/core/trial.hpp"
#include "osnt/dut/legacy_switch.hpp"
#include "osnt/fault/plan.hpp"
#include "osnt/graph/blocks.hpp"
#include "osnt/graph/graph.hpp"
#include "osnt/tcp/workload.hpp"
#include "osnt/telemetry/series.hpp"
#include "osnt/telemetry/trace.hpp"

namespace osnt::graph {

/// Load/validation failure: what was wrong and (when it came from JSON)
/// where in the file.
class TopologyError : public GraphError {
 public:
  using GraphError::GraphError;
};

/// "block" or "block:port" in an edge or workload attachment.
struct Endpoint {
  std::string block;
  std::size_t port = 0;
};

/// One block declaration. `type` selects which of the config members is
/// meaningful; the loader fills port counts for validation.
struct BlockSpec {
  std::string name;
  std::string type;
  std::size_t num_inputs = 1;
  std::size_t num_outputs = 1;

  FifoQueueConfig fifo{};
  RedConfig red{};
  TokenBucketConfig token_bucket{};
  DelayBerConfig delay_ber{};
  EcmpConfig ecmp{};
  MonitorConfig monitor{};
  dut::LegacySwitchConfig legacy_switch{};
  burst::BurstSourceConfig burst{};
};

struct EdgeSpec {
  Endpoint from;
  Endpoint to;
  Picos propagation = 0;
};

/// The traffic that drives the graph.
struct WorkloadSpec {
  enum class Kind : std::uint8_t { kNone, kTcp, kCbr };
  Kind kind = Kind::kNone;

  Endpoint ingress;  ///< where device TX enters the graph
  Endpoint egress;   ///< which block output feeds the device RX
  /// Optional reverse path, device port 1 back to port 0 (the ACK
  /// direction for tcp), for any workload kind. Absent = a direct reverse
  /// cable, i.e. an ideal return channel.
  std::optional<Endpoint> ack_ingress;
  std::optional<Endpoint> ack_egress;

  // --- tcp ---
  std::size_t flows = 1;
  std::string cc = "newreno";
  std::uint32_t mss = 1448;
  double bottleneck_gbps = 0.0;  ///< source-side TX drain; 0 = line rate
  std::size_t queue_segments = 256;
  std::uint64_t rwnd_kb = 1024;
  /// Arm the per-flow RateLimitDetector (tcp/rate_limit_detector.hpp) so
  /// the congestion controller adapts to in-path policers/shapers.
  bool rate_limit_detector = false;

  // --- cbr ---
  double rate_gbps = 1.0;
  std::size_t frame_size = 256;
  std::uint32_t flow_count = 1;
  /// Inter-departure model: "cbr" (constant gaps) or "poisson".
  core::TrafficSpec::Arrivals arrivals = core::TrafficSpec::Arrivals::kCbr;
};

/// A parsed, validated topology file. Pure data until build() is called.
///
/// A TopologyFile with no blocks (built in code — the JSON loader requires
/// at least one) is the back-to-back cable: its tcp or cbr workload runs
/// between device ports 0 and 1 wired directly to each other, and the
/// workload's endpoints are unused. `osnt_run tcp` is that topology.
struct TopologyFile {
  std::string name;
  std::uint64_t seed = 1;
  Picos duration = 10 * kPicosPerMilli;
  std::vector<BlockSpec> blocks;
  std::vector<EdgeSpec> edges;
  WorkloadSpec workload;

  /// Parse + validate: fields, validate_workload()'s checks (positioned
  /// at the offending stanza), then wiring. Throws TopologyError, with
  /// the file position when one applies.
  [[nodiscard]] static TopologyFile from_json(const std::string& text);
  [[nodiscard]] static TopologyFile load(const std::string& path);

  /// The block type names the loader accepts (for did-you-mean and docs).
  [[nodiscard]] static const std::vector<std::string>& known_types();

  /// Instantiate every block and edge into `g`. Per-block random streams
  /// derive from `trial_seed` and the block ordinal. `horizon` is the run
  /// length burst_source schedules render over (0 = the file's duration).
  void build(sim::Engine& eng, Graph& g, std::uint64_t trial_seed,
             Picos horizon = 0) const;
};

/// Per-block counter row captured before the graph is torn down.
struct BlockCounters {
  std::string name;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t drops = 0;
  std::uint64_t frame_bytes = 0;
  /// In-plane latency summary (monitor blocks only; 0 samples otherwise).
  std::uint64_t rtt_samples = 0;
  double rtt_p50_ns = 0.0;
  double rtt_p90_ns = 0.0;
  double rtt_p99_ns = 0.0;
};

struct TopologyTrialReport {
  tcp::TcpTrialReport tcp{};  ///< meaningful when workload.kind == kTcp
  core::TrialStats cbr{};     ///< meaningful when workload.kind == kCbr
  std::vector<BlockCounters> blocks;
  std::uint64_t graph_frames_in = 0;
  std::uint64_t graph_drops = 0;
  /// Filled when a series interval was requested (see run_topology_trial).
  telemetry::SeriesData series{};
};

/// Resolve a fault plan's block-targeted events (rate_limit / queue_cap)
/// against the topology's block declarations without building anything:
/// rate_limit must name a token_bucket; queue_cap a fifo_queue, red, or
/// token_bucket. Throws TopologyError with a did-you-mean suggestion on
/// an unknown or wrongly-typed target. osnt_run calls it before the first
/// trial, so a bad chaos plan fails up front, not once per trial.
void validate_fault_targets(const TopologyFile& topo,
                            const fault::FaultPlan& plan);

/// Semantic workload validation beyond parse-time shape checks: tcp cc
/// names (with did-you-mean), mss, cbr rate/frame-size ranges, and every
/// block's config rule (the one its constructor enforces, e.g. a
/// burst_source's pattern or a red block's thresholds). Throws
/// TopologyError. from_json() runs the same checks; callers that fill a
/// topology in code (osnt_run's flags) call this before the first trial.
void validate_workload(const TopologyFile& topo);

/// The topology behind `osnt_run latency|throughput --dut NAME`, with a
/// default cbr workload. "none" is the block-less cable. "legacy" and
/// "lossy" (lookup_rate_mpps 2) are one 2-port legacy_switch named "dut":
/// the workload enters at dut:0 and leaves at dut:1, and the reverse
/// direction runs back through the switch (dut:1 to dut:0). Two ports,
/// so an unknown destination floods only to the monitor port. Throws
/// TopologyError, with a did-you-mean, on any other name.
[[nodiscard]] TopologyFile dut_topology(const std::string& name);

/// What a trial attaches beside its topology; the defaults attach
/// nothing.
struct TrialOptions {
  const fault::FaultPlan* plan = nullptr;     ///< faults to inject
  telemetry::TraceRecorder* trace = nullptr;  ///< records every event
  /// `> 0` samples a telemetry::TimeSeries into the report: per-block
  /// frames/bytes/drops, monitor RTT histograms, and the workload's
  /// channels (mon.rx.* for cbr, tcp.* for tcp). Per-trial series merge
  /// commutatively, so sharded runs stay byte-identical at any --jobs.
  Picos series_interval = 0;
  /// Times every handler on the host clock (sim.engine.handler_ns.wall.*).
  bool handler_timing = false;
};

/// One deterministic trial: fresh engine + device + graph built from
/// `topo`, workload attached at the declared endpoints (or over the
/// back-to-back cable when `topo` has no blocks), run for `duration`
/// (0 = the file's duration). The one trial runner: shared by every
/// osnt_run subcommand that drives the device through a topology, the
/// tests, and the benchmarks.
[[nodiscard]] TopologyTrialReport run_topology_trial(
    const TopologyFile& topo, std::uint64_t trial_seed, Picos duration = 0,
    const TrialOptions& opts = {});

/// The RFC 2544 probe over `topo`'s cbr workload (core/rfc2544.hpp):
/// each TrialPoint is one run_topology_trial of `duration` at the point's
/// seed and frame size, offered at load × 10 Gb/s, reporting the
/// report's `cbr`. The trial keeps a copy of `topo`, so a sweep may shard
/// it across threads.
[[nodiscard]] core::Trial rfc2544_trial(const TopologyFile& topo,
                                        Picos duration,
                                        TrialOptions opts = {});

}  // namespace osnt::graph
