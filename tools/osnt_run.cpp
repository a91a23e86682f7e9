// osnt_run — the command-line driver (the paper's "software driver
// supporting command-line interfaces"). Subcommands build a simulated
// testbed and run one measurement:
//
//   osnt_run latency    [--rate-gbps N] [--frame-size N] [--duration-ms N]
//                       [--dut none|legacy|lossy] [--poisson]
//                       [--faults PLAN.json] [--retries N]
//                       [--event-budget N] [--wall-deadline-ms N]
//                       [--trace PATH] [--metrics-out PATH]
//   osnt_run throughput [--frame-size N] [--resolution F] [--dut ...]
//                       [--jobs N]
//                       (latency and throughput run the --dut topology,
//                       graph::dut_topology, like `topo`)
//   osnt_run capture    [--rate-gbps N] [--snap N] [--flows N]
//                       [--pcap-out PATH]
//   osnt_run tcp        [--cc newreno|cubic|bbr] [--flows N]
//                       [--duration-ms N] [--bottleneck-gbps N]
//                       [--queue-segments N] [--rate-limit-detector]
//                       [--faults PLAN.json]
//                       [--trials N] [--jobs N] [--series-out PATH]
//                       (a topology with no blocks: ports 0 and 1 cabled
//                       back to back, run like `topo`)
//   osnt_run topo       FILE.json [--seed N] [--duration-ms N]
//                       [--trials N] [--jobs N] [--faults PLAN.json]
//                       [--series-out PATH] [--series-interval-ms N]
//                       [--validate-only]
//   osnt_run oflops     [--module echo|packet_in|packet_out|flowmod|action|
//                                 consistency|stats_poll|queue_delay|
//                                 interaction]
//                       [--table-size N] [--rounds N] [--faults PLAN.json]
//                       (exits 1 when the module does not finish: a
//                       timeout, no event left, or a refused flow_mod)
//
// Global flags (any subcommand): --log-level debug|info|warn|error|off.
// latency, throughput, capture, and tcp all take --trace PATH and
// --metrics-out PATH: --trace writes a Chrome trace_event JSON of the run
// in *sim* time (open in Perfetto / chrome://tracing); --metrics-out
// snapshots the process-wide telemetry registry as JSON at end of run.
// latency, tcp, and topo additionally take --series-out PATH
// [--series-interval-ms N] (default 1, fractions allowed): a
// sim-time sampler stores per-interval counter deltas and RTT-histogram
// slices and writes one "osnt.series.v1" JSON, byte-identical at any
// --jobs value (per-trial series merge commutatively).
// --faults loads
// a deterministic fault plan (see examples/faults/) and injects it into
// the testbed; fault activations show up as a "fault/*" trace track and
// in the fault.* metric family. latency, throughput, tcp and topo check
// the workload and the plan's block targets once, before the first
// trial: a bad value exits 1 and runs nothing.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "osnt/common/cli.hpp"
#include "osnt/common/log.hpp"
#include "osnt/core/device.hpp"
#include "osnt/core/measure.hpp"
#include "osnt/core/rfc2544.hpp"
#include "osnt/core/runner.hpp"
#include "osnt/fault/injector.hpp"
#include "osnt/fault/plan.hpp"
#include "osnt/gen/template_gen.hpp"
#include "osnt/graph/topology.hpp"
#include "osnt/mon/flow_stats.hpp"
#include "osnt/oflops/action_latency.hpp"
#include "osnt/oflops/consistency.hpp"
#include "osnt/oflops/context.hpp"
#include "osnt/oflops/echo_rtt.hpp"
#include "osnt/oflops/flowmod_latency.hpp"
#include "osnt/oflops/interaction.hpp"
#include "osnt/oflops/packet_in_latency.hpp"
#include "osnt/oflops/packet_out_latency.hpp"
#include "osnt/oflops/queue_delay.hpp"
#include "osnt/oflops/stats_poll.hpp"
#include "osnt/telemetry/registry.hpp"
#include "osnt/telemetry/series.hpp"
#include "osnt/telemetry/trace.hpp"
#include "osnt/topo/fabric.hpp"

using namespace osnt;

namespace {

/// A flag in milliseconds must be from 1 ns to 1e9 ms, which a Picos
/// holds. False after a stderr diagnostic naming the flag.
[[nodiscard]] bool ms_in_range(const char* flag, double ms) {
  constexpr double kMinMs = 1e-6;
  constexpr double kMaxMs = 1e9;
  if (ms >= kMinMs && ms <= kMaxMs) return true;
  std::fprintf(stderr, "--%s must be in [%g, %g], got %g\n", flag, kMinMs,
               kMaxMs, ms);
  return false;
}

/// A count flag must be at least `min`: a negative value would wrap
/// through the cast to an unsigned size. False after a stderr diagnostic
/// naming the flag.
[[nodiscard]] bool at_least(const char* flag, std::int64_t value,
                            std::int64_t min) {
  if (value >= min) return true;
  std::fprintf(stderr, "--%s must be at least %lld, got %lld\n", flag,
               static_cast<long long>(min), static_cast<long long>(value));
  return false;
}

/// Shared --trace/--metrics-out handling so every measurement subcommand
/// exposes the observability surface the same way: call add_to() before
/// parse, attach() on each single-threaded engine the run constructs, and
/// finish() once at exit to write whatever was requested.
struct ObservabilityFlags {
  std::string trace_path;
  std::string metrics_path;
  std::string series_path;
  double series_interval_ms = 1.0;
  telemetry::TraceRecorder rec;

  void add_to(CliParser& cli) {
    cli.add_flag("trace", &trace_path, "write Chrome trace_event JSON here");
    cli.add_flag("metrics-out", &metrics_path,
                 "write a telemetry registry JSON snapshot here");
  }

  /// Register --series-out on the subcommands that sample sim-time
  /// series (latency, tcp, topo).
  void add_series_to(CliParser& cli) {
    cli.add_flag("series-out", &series_path,
                 "write a sim-time telemetry series JSON here");
    cli.add_flag("series-interval-ms", &series_interval_ms,
                 "series sampling interval, milliseconds");
  }

  [[nodiscard]] bool trace_enabled() const { return !trace_path.empty(); }
  [[nodiscard]] bool series_enabled() const { return !series_path.empty(); }

  /// Sampling interval; 0 when --series-out was not given.
  [[nodiscard]] Picos series_interval() const {
    return series_path.empty() ? 0 : from_micros(series_interval_ms * 1000.0);
  }

  /// Post-parse validation of the series flags: the interval must be in
  /// range (ms_in_range), and an interval without a destination is a
  /// mistake worth flagging.
  [[nodiscard]] bool validate_series(const CliParser& cli) const {
    if (!ms_in_range("series-interval-ms", series_interval_ms)) return false;
    if (cli.given("series-interval-ms") && series_path.empty()) {
      std::fprintf(stderr, "--series-interval-ms requires --series-out\n");
      return false;
    }
    return true;
  }

  /// Write the merged series (no-op when --series-out was not given).
  [[nodiscard]] bool write_series(const telemetry::SeriesData& s) {
    if (series_path.empty()) return true;
    if (!s.write_json(series_path)) {
      std::fprintf(stderr, "failed to write series to %s\n",
                   series_path.c_str());
      return false;
    }
    std::printf("wrote %zu-interval series (%zu channels) to %s\n",
                s.intervals(), s.channels.size(), series_path.c_str());
    return true;
  }

  /// Handler wall time rides along with --metrics-out only: timing reads
  /// the host clock around every event.
  [[nodiscard]] bool handler_timing() const { return !metrics_path.empty(); }

  /// Attach the recorder / handler timing to a trial engine. Only valid
  /// for engines driven from one thread (the recorder is not thread-safe).
  void attach(sim::Engine& eng) {
    if (trace_enabled()) eng.set_trace(&rec);
    eng.set_handler_timing(handler_timing());
  }

  /// Write the requested outputs; prints what was written. Returns false
  /// (after a stderr diagnostic) on I/O failure.
  [[nodiscard]] bool finish() {
    if (!trace_path.empty()) {
      if (!rec.write_chrome_json(trace_path)) {
        std::fprintf(stderr, "failed to write trace to %s\n",
                     trace_path.c_str());
        return false;
      }
      std::printf("wrote %zu trace events (%llu dropped) to %s\n", rec.size(),
                  static_cast<unsigned long long>(rec.dropped()),
                  trace_path.c_str());
    }
    if (!metrics_path.empty()) {
      if (!telemetry::registry().write_json(metrics_path)) {
        std::fprintf(stderr, "failed to write metrics to %s\n",
                     metrics_path.c_str());
        return false;
      }
      std::printf("wrote metrics snapshot to %s\n", metrics_path.c_str());
    }
    return true;
  }
};

/// --faults: load the plan (an empty path is an empty plan), print its
/// summary, and hand it to `arm` when one is given. Returns false after a
/// stderr diagnostic on a bad file or a plan `arm` refuses (PlanError).
[[nodiscard]] bool load_fault_plan(
    const std::string& path, fault::FaultPlan& plan,
    const std::function<void(fault::FaultPlan&)>& arm = {}) {
  if (path.empty()) return true;
  try {
    plan = fault::FaultPlan::load(path);
    std::printf("fault plan: %s\n", plan.summary().c_str());
    if (arm) arm(plan);
  } catch (const fault::PlanError& e) {
    std::fprintf(stderr, "bad fault plan %s: %s\n", path.c_str(), e.what());
    return false;
  }
  return true;
}

/// The rate-limit detector's line of a tcp report, when it detected.
void print_detector(const tcp::TcpTrialReport& rep, const char* indent) {
  if (rep.rld_detections == 0) return;
  std::printf("%srate-limit detector: %llu detections  rate %.3f Gb/s  "
              "time-to-detect %.1f us\n",
              indent, static_cast<unsigned long long>(rep.rld_detections),
              rep.rld_rate_bps / 1e9,
              static_cast<double>(rep.rld_detect_time) / kPicosPerMicro);
}

/// The one check every topology run passes before its first trial: the
/// workload, as the flags left it, and the fault plan's block targets.
/// False after a stderr diagnostic.
[[nodiscard]] bool check_topology(const graph::TopologyFile& topo,
                                  const fault::FaultPlan& plan) {
  try {
    graph::validate_workload(topo);
    graph::validate_fault_targets(topo, plan);
  } catch (const graph::GraphError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return false;
  }
  return true;
}

/// Flags and trial plumbing shared by the subcommands that run topology
/// trials (latency, tcp, topo): `--trials` independent runs at seeds
/// base + i, sharded over `--jobs` resilient-runner workers, with an
/// optional fault plan. Reports and series come back in plan order, so
/// the output is identical at any --jobs value.
struct TopologyTrials {
  std::int64_t count = 1;  ///< --trials
  std::int64_t jobs = 1;
  std::string faults_path;
  fault::FaultPlan plan;
  /// Retries and watchdogs (latency sets them; `jobs` comes from --jobs).
  core::RunnerConfig runner;
  std::vector<graph::TopologyTrialReport> reports;
  std::vector<core::TrialResult> outcomes;

  void add_to(CliParser& cli) {
    cli.add_flag("faults", &faults_path, "JSON fault plan to inject");
    cli.add_flag("trials", &count, "independent trials (distinct seeds)");
    cli.add_flag("jobs", &jobs,
                 "worker threads for the trials (0 = all hardware threads)");
  }

  /// Post-parse checks, load --faults, then check_topology(). False
  /// after a diagnostic.
  [[nodiscard]] bool prepare(const graph::TopologyFile& topo,
                             const ObservabilityFlags& obs) {
    if (count <= 0) {
      std::fprintf(stderr, "--trials must be positive\n");
      return false;
    }
    if (!at_least("jobs", jobs, 0)) return false;
    if (obs.trace_enabled() && (count != 1 || jobs != 1)) {
      std::fprintf(stderr, "--trace requires --trials 1 --jobs 1\n");
      return false;
    }
    return load_fault_plan(faults_path, plan) && check_topology(topo, plan);
  }

  /// Run every trial; failed ones are reported on stderr. Returns the
  /// exit code so far (1 if any trial failed).
  [[nodiscard]] int run(const graph::TopologyFile& topo,
                        std::uint64_t base_seed, Picos duration,
                        ObservabilityFlags& obs) {
    reports.assign(static_cast<std::size_t>(count), {});
    core::TrialPlan tplan;
    tplan.points.resize(static_cast<std::size_t>(count));
    for (std::size_t i = 0; i < tplan.points.size(); ++i) {
      tplan.points[i].seed = base_seed + i;
    }
    tplan.run = [&](const core::TrialPoint& pt) {
      reports[pt.index] = graph::run_topology_trial(
          topo, pt.seed, duration,
          {.plan = &plan,
           .trace = obs.trace_enabled() ? &obs.rec : nullptr,
           .series_interval = obs.series_interval(),
           .handler_timing = obs.handler_timing()});
      return core::TrialStats{};  // the report carries the results
    };
    runner.jobs = static_cast<std::size_t>(jobs);
    outcomes = core::Runner{runner}.run_resilient(tplan);
    int rc = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const auto& tr = outcomes[i];
      if (tr.ok()) continue;
      std::fprintf(stderr, "trial %zu %s after %u attempt(s): %s\n", i,
                   core::trial_outcome_name(tr.outcome), tr.attempts,
                   tr.error.c_str());
      rc = 1;
    }
    return rc;
  }

  /// Write the merged series (when every trial succeeded) and the other
  /// requested outputs. Returns the final exit code.
  [[nodiscard]] int finish(int rc, ObservabilityFlags& obs) const {
    if (obs.series_enabled() && rc == 0) {
      // Element-wise sums commute: the bytes match at any --jobs value.
      telemetry::SeriesData merged;
      for (const auto& rep : reports) merged.merge_from(rep.series);
      if (!obs.write_series(merged)) rc = 1;
    }
    if (!obs.finish()) rc = 1;
    return rc;
  }
};

/// --dut as a topology. False after a stderr diagnostic on an unknown
/// name.
[[nodiscard]] bool load_dut(const std::string& dut,
                            graph::TopologyFile& topo) {
  try {
    topo = graph::dut_topology(dut);
  } catch (const graph::TopologyError& e) {
    std::fprintf(stderr, "--dut: %s\n", e.what());
    return false;
  }
  return true;
}

int cmd_latency(int argc, const char* const* argv) {
  double rate_gbps = 1.0, duration_ms = 5.0;
  std::int64_t frame_size = 256;
  std::string dut = "legacy";
  bool poisson = false;
  std::int64_t retries = 0, event_budget = 0, wall_deadline_ms = 0;
  TopologyTrials trials;
  ObservabilityFlags obs;
  CliParser cli{"osnt_run latency — one-way latency/jitter through a DUT"};
  cli.add_flag("rate-gbps", &rate_gbps, "offered L1 rate");
  cli.add_flag("frame-size", &frame_size, "frame size incl. FCS");
  cli.add_flag("duration-ms", &duration_ms, "simulated test duration");
  cli.add_flag("dut", &dut, "device under test: none|legacy|lossy");
  cli.add_flag("poisson", &poisson, "Poisson arrivals instead of CBR");
  cli.add_flag("faults", &trials.faults_path, "JSON fault plan to inject");
  cli.add_flag("retries", &retries,
               "deterministic retries after a failed trial");
  cli.add_flag("event-budget", &event_budget,
               "abort a trial after this many sim events (0 = unlimited)");
  cli.add_flag("wall-deadline-ms", &wall_deadline_ms,
               "abort a trial after this much wall time (0 = unlimited)");
  obs.add_to(cli);
  obs.add_series_to(cli);
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;
  if (!obs.validate_series(cli)) return 1;
  if (!ms_in_range("duration-ms", duration_ms)) return 1;
  if (!at_least("retries", retries, 0) ||
      !at_least("event-budget", event_budget, 0) ||
      !at_least("wall-deadline-ms", wall_deadline_ms, 0)) {
    return 1;
  }
  graph::TopologyFile topo;
  if (!load_dut(dut, topo)) return 1;
  graph::WorkloadSpec& w = topo.workload;
  w.rate_gbps = rate_gbps;
  w.frame_size = static_cast<std::size_t>(frame_size);
  if (poisson) w.arrivals = core::TrafficSpec::Arrivals::kPoisson;
  if (!trials.prepare(topo, obs)) return 1;
  trials.runner.max_attempts = static_cast<std::uint32_t>(retries) + 1;
  trials.runner.event_budget = static_cast<std::uint64_t>(event_budget);
  trials.runner.wall_deadline_ms = static_cast<std::uint64_t>(wall_deadline_ms);
  const int rc = trials.run(topo, /*base_seed=*/1,
                            from_micros(duration_ms * 1000.0), obs);
  if (rc != 0) return rc;  // a failed trial has no report to print
  const core::TrialResult& tr = trials.outcomes.front();
  if (tr.outcome == core::TrialOutcome::kRetried) {
    std::printf("degraded: ok on attempt %u (rederived seed %llu)\n",
                tr.attempts,
                static_cast<unsigned long long>(tr.seed_used));
  }

  const core::TrialStats& r = trials.reports.front().cbr;
  std::printf("tx %llu  rx %llu  loss %.4f%%  offered %.3f Gb/s\n",
              static_cast<unsigned long long>(r.tx_frames),
              static_cast<unsigned long long>(r.rx_frames),
              r.loss_fraction() * 100.0, r.offered_gbps);
  std::printf("latency ns: min %.1f p50 %.1f p99 %.1f max %.1f\n",
              r.latency_ns.min(), r.latency_ns.quantile(0.5),
              r.latency_ns.quantile(0.99), r.latency_ns.max());
  std::printf("jitter ns:  p50 %.2f p99 %.2f\n", r.jitter_ns.quantile(0.5),
              r.jitter_ns.quantile(0.99));
  return trials.finish(rc, obs);
}

int cmd_throughput(int argc, const char* const* argv) {
  std::int64_t frame_size = 0;  // 0 = full RFC 2544 sweep
  double resolution = 0.01;
  std::string dut = "legacy";
  std::int64_t jobs = 1;
  ObservabilityFlags obs;
  CliParser cli{"osnt_run throughput — RFC 2544 zero-loss search"};
  cli.add_flag("frame-size", &frame_size, "single size, or 0 for the sweep");
  cli.add_flag("resolution", &resolution, "search resolution (fraction)");
  cli.add_flag("dut", &dut, "device under test: none|legacy|lossy");
  cli.add_flag("jobs", &jobs,
               "worker threads for the sweep (0 = all hardware threads)");
  obs.add_to(cli);
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;
  if (!at_least("jobs", jobs, 0)) return 1;
  // The trace recorder is single-threaded; a sharded sweep cannot share
  // one. Metrics shards merge commutatively, so --metrics-out is fine at
  // any job count.
  if (obs.trace_enabled() && jobs != 1) {
    std::fprintf(stderr, "--trace requires --jobs 1\n");
    return 1;
  }
  core::ThroughputSearchConfig cfg;
  cfg.resolution = resolution;
  try {
    core::validate(cfg);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "--resolution: %s\n", e.what());
    return 1;
  }
  graph::TopologyFile topo;
  if (!load_dut(dut, topo)) return 1;
  if (frame_size != 0) {
    topo.workload.frame_size = static_cast<std::size_t>(frame_size);
  }
  if (!check_topology(topo, fault::FaultPlan{})) return 1;

  // Each probe is one 1 ms topology trial at its load and size, so the
  // sweep can shard across cores; output is identical for any --jobs.
  const core::Trial trial = graph::rfc2544_trial(
      topo, kPicosPerMilli,
      {.trace = obs.trace_enabled() ? &obs.rec : nullptr,
       .handler_timing = obs.handler_timing()});

  core::RunnerConfig runner;
  runner.jobs = static_cast<std::size_t>(jobs);
  std::printf("%7s %12s %10s %10s\n", "size", "zero-loss", "Gb/s", "Mpps");
  if (frame_size > 0) {
    const auto pt =
        core::find_throughput(trial, static_cast<std::size_t>(frame_size), cfg);
    std::printf("%6zuB %11.1f%% %10.3f %10.3f\n", pt.frame_size,
                pt.max_load_fraction * 100.0, pt.gbps, pt.mpps);
  } else {
    for (const auto& pt : core::throughput_sweep(
             trial, core::rfc2544_frame_sizes(), cfg, runner)) {
      std::printf("%6zuB %11.1f%% %10.3f %10.3f\n", pt.frame_size,
                  pt.max_load_fraction * 100.0, pt.gbps, pt.mpps);
    }
  }
  return obs.finish() ? 0 : 1;
}

int cmd_capture(int argc, const char* const* argv) {
  double rate_gbps = 4.0;
  std::int64_t snap = 0, flows = 16;
  std::string pcap_out;
  ObservabilityFlags obs;
  CliParser cli{"osnt_run capture — capture a traffic mix, report flows"};
  cli.add_flag("rate-gbps", &rate_gbps, "offered L1 rate");
  cli.add_flag("snap", &snap, "cutter snap length (0 = full frames)");
  cli.add_flag("flows", &flows, "concurrent flows");
  cli.add_flag("pcap-out", &pcap_out, "write the capture to this .pcap");
  obs.add_to(cli);
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;
  if (!(rate_gbps > 0.0)) {
    std::fprintf(stderr, "--rate-gbps must be positive, got %g\n", rate_gbps);
    return 1;
  }
  if (!at_least("snap", snap, 0)) return 1;
  const std::int64_t max_flows = gen::TemplateConfig{}.max_flows();
  if (flows < 1 || flows > max_flows) {
    std::fprintf(stderr, "--flows must be in [1, %lld], got %lld\n",
                 static_cast<long long>(max_flows),
                 static_cast<long long>(flows));
    return 1;
  }

  sim::Engine eng;
  obs.attach(eng);
  core::OsntDevice osnt{eng};
  hw::connect(osnt.port(0), osnt.port(1));
  osnt.rx(1).cutter().set_snap_len(static_cast<std::size_t>(snap));

  core::TrafficSpec spec;
  spec.rate = gen::RateSpec::gbps(rate_gbps);
  spec.sizes = core::TrafficSpec::Sizes::kImix;
  spec.flow_count = static_cast<std::uint32_t>(flows);
  const auto r =
      core::run_capture_test(eng, osnt, 0, 1, spec, 5 * kPicosPerMilli);

  std::printf("captured %llu records (DMA drops %llu)\n",
              static_cast<unsigned long long>(r.captured),
              static_cast<unsigned long long>(r.dma_drops));
  mon::FlowStatsCollector collector;
  collector.add_all(osnt.capture());
  std::printf("%zu flows; top talkers:\n", collector.flow_count());
  for (const auto& f : collector.top_by_bytes(5)) {
    std::printf("  %s:%u > %s:%u  %llu pkts  %llu bytes  %.2f Mb/s\n",
                f.key.src_ip.to_string().c_str(), f.key.src_port,
                f.key.dst_ip.to_string().c_str(), f.key.dst_port,
                static_cast<unsigned long long>(f.packets),
                static_cast<unsigned long long>(f.bytes),
                f.mean_rate_bps() / 1e6);
  }
  if (!pcap_out.empty()) {
    osnt.capture().write_pcap(pcap_out);
    std::printf("wrote %zu records to %s\n", osnt.capture().size(),
                pcap_out.c_str());
  }
  return obs.finish() ? 0 : 1;
}

using ModulePtr = std::unique_ptr<oflops::MeasurementModule>;

/// One `oflops --module` choice: its name and a factory taking
/// --table-size and --rounds. The --module help, the lookup and the
/// error for an unknown name all read kOflopsModules.
struct OflopsModule {
  const char* name;
  ModulePtr (*make)(std::size_t table_size, std::size_t rounds);
};

template <class M>
ModulePtr make_module(std::size_t, std::size_t) {
  return std::make_unique<M>();
}

constexpr OflopsModule kOflopsModules[] = {
    {"echo", make_module<oflops::EchoRttModule>},
    {"packet_in", make_module<oflops::PacketInLatencyModule>},
    {"packet_out", make_module<oflops::PacketOutLatencyModule>},
    {"flowmod",
     [](std::size_t n, std::size_t rounds) -> ModulePtr {
       return std::make_unique<oflops::FlowModLatencyModule>(
           oflops::FlowModLatencyConfig{.table_size = n, .rounds = rounds});
     }},
    {"action", make_module<oflops::ActionLatencyModule>},
    {"consistency",
     [](std::size_t n, std::size_t) -> ModulePtr {
       return std::make_unique<oflops::ConsistencyModule>(
           oflops::ConsistencyConfig{.rule_count = n});
     }},
    {"stats_poll",
     [](std::size_t n, std::size_t) -> ModulePtr {
       return std::make_unique<oflops::StatsPollModule>(
           oflops::StatsPollConfig{.table_size = n});
     }},
    {"queue_delay", make_module<oflops::QueueDelayModule>},
    {"interaction", make_module<oflops::InteractionModule>},
};

int cmd_oflops(int argc, const char* const* argv) {
  // The switch's flow table: --table-size may fill it, never overflow it.
  constexpr std::int64_t kTableEntries = 16384;
  std::vector<std::string> names;
  std::string names_help;
  for (const OflopsModule& m : kOflopsModules) {
    names.emplace_back(m.name);
    names_help += (names_help.empty() ? "" : "|") + names.back();
  }
  std::string module = "flowmod";
  std::int64_t table_size = 128, rounds = 10;
  std::string faults_path;
  CliParser cli{
      "osnt_run oflops — OFLOPS-turbo module against an OpenFlow switch"};
  cli.add_flag("module", &module, names_help);
  cli.add_flag("table-size", &table_size, "flow table occupancy");
  cli.add_flag("rounds", &rounds, "measurement rounds (flowmod)");
  cli.add_flag("faults", &faults_path,
               "JSON fault plan (ctrl_disconnect targets the control channel)");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;
  const auto it = std::find(names.begin(), names.end(), module);
  if (it == names.end()) {
    const std::string hint = suggest_nearest(module, names);
    std::fprintf(stderr, "unknown module '%s' (%s)\n", module.c_str(),
                 hint.empty() ? names_help.c_str()
                              : ("did you mean '" + hint + "'?").c_str());
    return 1;
  }
  if (table_size < 1 || table_size > kTableEntries) {
    std::fprintf(stderr, "--table-size must be in [1, %lld], got %lld\n",
                 static_cast<long long>(kTableEntries),
                 static_cast<long long>(table_size));
    return 1;
  }
  if (rounds < 1) {
    std::fprintf(stderr, "--rounds must be at least 1, got %lld\n",
                 static_cast<long long>(rounds));
    return 1;
  }
  ModulePtr mod;
  try {
    mod = kOflopsModules[it - names.begin()].make(
        static_cast<std::size_t>(table_size), static_cast<std::size_t>(rounds));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "--table-size: %s\n", e.what());
    return 1;
  }

  dut::OpenFlowSwitchConfig sw_cfg;
  sw_cfg.commit_base = 2 * kPicosPerMilli;
  sw_cfg.table.max_entries = kTableEntries;
  oflops::Testbed tb{sw_cfg};

  std::unique_ptr<fault::Injector> inj;
  fault::FaultPlan fplan;
  if (!load_fault_plan(faults_path, fplan, [&](fault::FaultPlan& p) {
        inj = std::make_unique<fault::Injector>(
            tb.eng, std::move(p),
            fault::Targets{.device = &tb.osnt, .channel = &tb.chan});
      })) {
    return 1;
  }
  const oflops::Report rep = tb.ctx.run(*mod, 600 * kPicosPerSec);
  rep.print();
  if (rep.stopped.empty()) return 0;
  // A run that measured only part of what it set out to is a failure.
  std::fprintf(stderr, "oflops --module %s did not finish: %s\n",
               module.c_str(), rep.stopped.c_str());
  return 1;
}

int cmd_tcp(int argc, const char* const* argv) {
  // The cable pair is a topology with no blocks: device port 0 wired
  // back to back to port 1, the flags filling in its tcp workload.
  graph::TopologyFile cable;
  graph::WorkloadSpec& w = cable.workload;
  w.kind = graph::WorkloadSpec::Kind::kTcp;
  w.bottleneck_gbps = 5.0;
  std::int64_t flows = 1, mss = 1448, queue_segments = 256, seed = 1;
  std::int64_t rwnd_kb = 1024;
  double duration_ms = 10.0;
  TopologyTrials trials;
  ObservabilityFlags obs;
  CliParser cli{
      "osnt_run tcp — closed-loop congestion-controlled flows over the "
      "simulated dataplane"};
  cli.add_flag("cc", &w.cc, "congestion control: newreno|cubic|bbr");
  cli.add_flag("flows", &flows, "concurrent flows sharing the bottleneck");
  cli.add_flag("duration-ms", &duration_ms, "simulated test duration");
  cli.add_flag("mss", &mss, "segment payload bytes (1448 = 1518B frames)");
  cli.add_flag("bottleneck-gbps", &w.bottleneck_gbps,
               "bottleneck drain rate (0 = port line rate)");
  cli.add_flag("queue-segments", &queue_segments,
               "bottleneck buffer depth in frames (0 = unbounded)");
  cli.add_flag("rwnd-kb", &rwnd_kb, "receiver window per flow, KiB");
  cli.add_flag("rate-limit-detector", &w.rate_limit_detector,
               "detect in-path policers/shapers and adapt the cc to them");
  cli.add_flag("seed", &seed, "base seed (trial i runs at seed+i)");
  trials.add_to(cli);
  obs.add_to(cli);
  obs.add_series_to(cli);
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;
  if (!obs.validate_series(cli)) return 1;
  if (!ms_in_range("duration-ms", duration_ms)) return 1;
  if (flows <= 0 || mss <= 0) {
    std::fprintf(stderr, "--flows/--mss must be positive\n");
    return 1;
  }
  if (!at_least("queue-segments", queue_segments, 0) ||
      !at_least("rwnd-kb", rwnd_kb, 0) || !at_least("seed", seed, 0)) {
    return 1;
  }
  w.flows = static_cast<std::size_t>(flows);
  w.mss = static_cast<std::uint32_t>(mss);
  w.queue_segments = static_cast<std::size_t>(queue_segments);
  w.rwnd_kb = static_cast<std::uint64_t>(rwnd_kb);
  cable.duration = from_micros(duration_ms * 1000.0);
  if (!trials.prepare(cable, obs)) return 1;

  const int rc = trials.run(cable, static_cast<std::uint64_t>(seed),
                            cable.duration, obs);
  std::printf("%5s %6s %10s %8s %8s %8s %8s %8s\n", "trial", "seed",
              "goodput", "segs", "retx", "rto", "fastrtx", "drops");
  for (std::size_t i = 0; i < trials.outcomes.size(); ++i) {
    if (!trials.outcomes[i].ok()) continue;
    const auto& rep = trials.reports[i].tcp;
    std::printf("%5zu %6llu %7.3f Gb %8llu %8llu %8llu %8llu %8llu\n", i,
                static_cast<unsigned long long>(trials.outcomes[i].seed_used),
                rep.goodput_bps / 1e9,
                static_cast<unsigned long long>(rep.segs_sent),
                static_cast<unsigned long long>(rep.retransmits),
                static_cast<unsigned long long>(rep.rto_fires),
                static_cast<unsigned long long>(rep.fast_retx),
                static_cast<unsigned long long>(rep.queue_drops));
  }
  if (trials.count == 1 && trials.outcomes.front().ok()) {
    const auto& rep = trials.reports.front().tcp;
    std::printf("cc %s  flows %lld  cwnd reductions %llu  acks %llu  "
                "flow rate min %.3f / max %.3f Gb/s\n",
                w.cc.c_str(), static_cast<long long>(flows),
                static_cast<unsigned long long>(rep.cwnd_reductions),
                static_cast<unsigned long long>(rep.acks_sent),
                rep.min_flow_rate_bps / 1e9, rep.max_flow_rate_bps / 1e9);
    print_detector(rep, "");
  }
  return trials.finish(rc, obs);
}

int cmd_topo(int argc, const char* const* argv) {
  std::int64_t seed = 0;
  double duration_ms = 0.0;
  bool validate_only = false;
  TopologyTrials trials;
  ObservabilityFlags obs;
  CliParser cli{
      "osnt_run topo FILE.json — run a declarative scenario-graph topology\n"
      "(see examples/topologies/; blocks: fifo_queue, red, token_bucket,\n"
      "delay_ber, ecmp, sink, monitor, legacy_switch, burst_source)"};
  cli.add_flag("seed", &seed, "base seed (0 = the file's; trial i adds i)");
  cli.add_flag("duration-ms", &duration_ms,
               "simulated duration (default: the file's)");
  cli.add_flag("validate-only", &validate_only,
               "load the topology (and fault plan), resolve fault targets, "
               "print the block table, and exit without running");
  trials.add_to(cli);
  obs.add_to(cli);
  obs.add_series_to(cli);
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;
  if (!obs.validate_series(cli)) return 1;
  const bool duration_given = cli.given("duration-ms");
  if (duration_given && !ms_in_range("duration-ms", duration_ms)) return 1;
  if (!at_least("seed", seed, 0)) return 1;
  if (cli.positional().size() != 1) {
    std::fprintf(stderr, "usage: osnt_run topo FILE.json [flags]\n");
    return 1;
  }

  graph::TopologyFile topo;
  try {
    topo = graph::TopologyFile::load(cli.positional()[0]);
  } catch (const graph::GraphError& e) {
    std::fprintf(stderr, "%s: %s\n", cli.positional()[0].c_str(), e.what());
    return 1;
  }
  const std::uint64_t base_seed =
      seed > 0 ? static_cast<std::uint64_t>(seed) : topo.seed;
  const Picos duration =
      duration_given ? from_micros(duration_ms * 1000.0) : topo.duration;
  if (!trials.prepare(topo, obs)) return 1;

  std::printf("topology %s: %zu blocks, %zu edges, workload %s\n",
              topo.name.empty() ? cli.positional()[0].c_str()
                                : topo.name.c_str(),
              topo.blocks.size(), topo.edges.size(),
              topo.workload.kind == graph::WorkloadSpec::Kind::kTcp   ? "tcp"
              : topo.workload.kind == graph::WorkloadSpec::Kind::kCbr ? "cbr"
                                                                      : "none");

  if (validate_only) {
    // Dry run: loading and prepare() already checked everything, so all
    // that is left is showing what would be built — cheap enough for CI
    // to gate every plan/topology pair on.
    std::printf("%-16s %-16s %7s %8s\n", "block", "type", "inputs",
                "outputs");
    for (const auto& b : topo.blocks) {
      std::printf("%-16s %-16s %7zu %8zu\n", b.name.c_str(), b.type.c_str(),
                  b.num_inputs, b.num_outputs);
    }
    std::printf("ok: topology valid, workload valid%s\n",
                trials.plan.events.empty() ? "" : ", fault targets resolved");
    return 0;
  }

  const int rc = trials.run(topo, base_seed, duration, obs);
  for (std::size_t i = 0; i < trials.outcomes.size(); ++i) {
    const auto& tr = trials.outcomes[i];
    if (!tr.ok()) continue;
    const auto& rep = trials.reports[i];
    if (topo.workload.kind == graph::WorkloadSpec::Kind::kTcp) {
      std::printf(
          "trial %zu seed %llu: goodput %.3f Gb/s  segs %llu  retx %llu  "
          "graph drops %llu\n",
          i, static_cast<unsigned long long>(tr.seed_used),
          rep.tcp.goodput_bps / 1e9,
          static_cast<unsigned long long>(rep.tcp.segs_sent),
          static_cast<unsigned long long>(rep.tcp.retransmits),
          static_cast<unsigned long long>(rep.graph_drops));
      if (rep.tcp.rtt_min_ns > 0.0) {
        std::printf("  source rtt: p99 %.0f ns (%.2fx min)\n",
                    rep.tcp.rtt_p99_ns,
                    rep.tcp.rtt_p99_ns / rep.tcp.rtt_min_ns);
      }
      print_detector(rep.tcp, "  ");
    } else if (topo.workload.kind == graph::WorkloadSpec::Kind::kCbr) {
      std::printf(
          "trial %zu seed %llu: tx %llu  rx %llu  loss %.4f%%  "
          "graph drops %llu\n",
          i, static_cast<unsigned long long>(tr.seed_used),
          static_cast<unsigned long long>(rep.cbr.tx_frames),
          static_cast<unsigned long long>(rep.cbr.rx_frames),
          rep.cbr.loss_fraction() * 100.0,
          static_cast<unsigned long long>(rep.graph_drops));
    } else {
      std::printf("trial %zu seed %llu: %llu frames through the graph\n", i,
                  static_cast<unsigned long long>(tr.seed_used),
                  static_cast<unsigned long long>(rep.graph_frames_in));
    }
  }
  if (rc == 0) {
    std::printf("%-16s %12s %12s %10s %9s %9s %9s\n", "block", "frames_in",
                "frames_out", "drops", "rtt_p50", "rtt_p90", "rtt_p99");
    for (const auto& b : trials.reports.front().blocks) {
      std::printf("%-16s %12llu %12llu %10llu", b.name.c_str(),
                  static_cast<unsigned long long>(b.frames_in),
                  static_cast<unsigned long long>(b.frames_out),
                  static_cast<unsigned long long>(b.drops));
      if (b.rtt_samples > 0) {
        std::printf(" %8.0fns %8.0fns %8.0fns\n", b.rtt_p50_ns, b.rtt_p90_ns,
                    b.rtt_p99_ns);
      } else {
        std::printf(" %9s %9s %9s\n", "-", "-", "-");
      }
    }
  }
  return trials.finish(rc, obs);
}

int cmd_fleet(int argc, const char* const* argv) {
  std::int64_t leaves = 2, spines = 2, per_leaf = 2, frames = 100;
  CliParser cli{"osnt_run fleet — latency matrix over a leaf-spine fabric"};
  cli.add_flag("leaves", &leaves, "leaf switches");
  cli.add_flag("spines", &spines, "spine switches");
  cli.add_flag("per-leaf", &per_leaf, "testers per leaf");
  cli.add_flag("frames", &frames, "probes per pair");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;
  if (!at_least("leaves", leaves, 1) || !at_least("spines", spines, 1) ||
      !at_least("per-leaf", per_leaf, 1) || !at_least("frames", frames, 1)) {
    return 1;
  }

  sim::Engine eng;
  topo::FabricConfig cfg;
  cfg.leaves = static_cast<std::size_t>(leaves);
  cfg.spines = static_cast<std::size_t>(spines);
  cfg.testers_per_leaf = static_cast<std::size_t>(per_leaf);
  topo::LeafSpineFabric fabric{eng, cfg};
  const std::size_t n = fabric.tester_count();
  std::printf("p50 one-way latency (ns), %zu testers:\n      ", n);
  for (std::size_t j = 0; j < n; ++j) std::printf("   T%-3zu ", j);
  std::printf("\n");
  for (std::size_t i = 0; i < n; ++i) {
    std::printf("  T%-3zu", i);
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) {
        std::printf("%8s", "-");
        continue;
      }
      std::printf("%8.0f", fabric
                               .measure_latency(i, j,
                                                static_cast<std::size_t>(frames))
                               .quantile(0.5));
    }
    std::printf("\n");
  }
  return 0;
}

/// Global --log-level handling: accepted anywhere on the command line,
/// stripped before subcommand parsing. Returns false on a bad level name.
bool apply_log_level(const std::string& name) {
  if (name == "debug") set_log_level(LogLevel::kDebug);
  else if (name == "info") set_log_level(LogLevel::kInfo);
  else if (name == "warn") set_log_level(LogLevel::kWarn);
  else if (name == "error") set_log_level(LogLevel::kError);
  else if (name == "off") set_log_level(LogLevel::kOff);
  else {
    std::fprintf(stderr,
                 "bad --log-level '%s' (debug|info|warn|error|off)\n",
                 name.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  args.push_back(argc > 0 ? argv[0] : "osnt_run");
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--log-level") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--log-level needs a value\n");
        return 1;
      }
      if (!apply_log_level(argv[++i])) return 1;
    } else if (std::strncmp(argv[i], "--log-level=", 12) == 0) {
      if (!apply_log_level(argv[i] + 12)) return 1;
    } else {
      args.push_back(argv[i]);
    }
  }

  if (args.size() < 2) {
    std::fprintf(stderr,
                 "usage: osnt_run <latency|throughput|capture|tcp|topo|oflops|"
                 "fleet> [flags] [--log-level debug|info|warn|error|off]\n"
                 "       osnt_run <cmd> --help\n");
    return 1;
  }
  const std::string cmd = args[1];
  const int sub_argc = static_cast<int>(args.size()) - 1;
  const char* const* sub_argv = args.data() + 1;
  if (cmd == "latency") return cmd_latency(sub_argc, sub_argv);
  if (cmd == "tcp") return cmd_tcp(sub_argc, sub_argv);
  if (cmd == "topo") return cmd_topo(sub_argc, sub_argv);
  if (cmd == "throughput") return cmd_throughput(sub_argc, sub_argv);
  if (cmd == "capture") return cmd_capture(sub_argc, sub_argv);
  if (cmd == "oflops") return cmd_oflops(sub_argc, sub_argv);
  if (cmd == "fleet") return cmd_fleet(sub_argc, sub_argv);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 1;
}
