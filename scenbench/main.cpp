// Scenario benchmark. Runs graph::run_topology_trial — the entry point
// behind `osnt_run topo` — back to back through core::Runner::run_resilient
// at jobs = 1 on one thread: a closed batch with one client, each trial on
// its own seed. The three workloads are generated here from --seed, so
// edits to examples/topologies/ cannot move the baseline.
//
//   --trace 0  end-to-end: sim speed, frame rate, per-trial wall time
//              (p50 and tail), set-up time and peak RSS, untraced, after
//              a warm-up trial: sweeps over a fixed seed set for
//              --seconds of wall time (see end_to_end).
//   --trace 1  per-layer: an untraced pass and a traced pass over one
//              fixed seed set, repeated for --seconds. The traced pass
//              forks the trial from public calls so it can attach a
//              TraceRecorder and handler timing; its kSimOnly registry
//              snapshot must equal the untraced one for every seed.
//
// Usage: scenario_bench --workload NAME --seed N --seconds S --trace 0|1
//                       [--smoke]
// --smoke shortens every trial tenfold and trims repetitions (self-check).
// The last stdout line is the result object:
//   {"correct": B, "attempted": N, "failed": N, "metrics": {NAME: {...}}}
// Exit code 0 only when every trial passed its correctness checks.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "osnt/burst/source.hpp"
#include "osnt/common/json.hpp"
#include "osnt/common/random.hpp"
#include "osnt/core/device.hpp"
#include "osnt/core/measure.hpp"
#include "osnt/core/runner.hpp"
#include "osnt/graph/topology.hpp"
#include "osnt/sim/engine.hpp"
#include "osnt/tcp/workload.hpp"
#include "osnt/telemetry/registry.hpp"
#include "osnt/telemetry/trace.hpp"

namespace {

using namespace osnt;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// --- workloads ------------------------------------------------------------

struct Workload {
  const char* name;
  /// Sim length of one trial, sized for 45-65 ms of wall time on a
  /// 4-CPU x86 host at rest, so --seconds 30 fits six or more sweeps.
  Picos duration;
  /// Topology JSON; only the seed varies, so every --seed offers the same
  /// load and run-to-run spread reflects the host, not the input.
  std::string (*topology)(std::uint64_t topo_seed);
};

// The syn_burst shape: 64 B on/off SYN waves from 256 spoofed sources
// plus 4 NewReno victims sharing a 1 Gb/s FIFO. Almost every frame is a
// graph-native burst frame at the smallest size, so per-frame packet
// allocation, Link delivery events and the FIFO dominate.
std::string burst64_json(std::uint64_t seed) {
  return R"({"name": "burst64", "seed": )" + std::to_string(seed) + R"(,
 "blocks": [
  {"name": "access", "type": "delay_ber", "delay_us": 5},
  {"name": "attack", "type": "burst_source", "pattern": "on_off",
   "rate_gbps": 2.5, "frame_size": 64, "l4": "tcp_syn", "flows": 256,
   "period_ms": 10, "duty": 0.4},
  {"name": "bottleneck", "type": "fifo_queue", "rate_gbps": 1.0,
   "queue_frames": 120},
  {"name": "tap", "type": "monitor", "rtt_probe": true},
  {"name": "ackpath", "type": "delay_ber", "delay_us": 5}],
 "edges": [
  {"from": "access:0", "to": "bottleneck:0"},
  {"from": "attack:0", "to": "bottleneck:0"},
  {"from": "bottleneck:0", "to": "tap:0"}],
 "workload": {"kind": "tcp", "flows": 4, "cc": "newreno",
  "ingress": "access:0", "egress": "tap:0",
  "ack_ingress": "ackpath:0", "ack_egress": "ackpath:0"}})";
}

// 10 000 NewReno flows over a 10 Gb/s RED dumbbell, 1518 B frames:
// transport timers, flow state and the timing wheel dominate, and the
// flow slab makes set-up a large share of the trial.
std::string tcp10k_json(std::uint64_t seed) {
  return R"({"name": "tcp10k", "seed": )" + std::to_string(seed) + R"(,
 "blocks": [
  {"name": "access", "type": "delay_ber", "delay_us": 5},
  {"name": "bottleneck", "type": "red", "rate_gbps": 10.0,
   "queue_frames": 1000, "min_th": 150, "max_th": 600, "max_p": 0.1},
  {"name": "tap", "type": "monitor", "rtt_probe": true},
  {"name": "ackpath", "type": "delay_ber", "delay_us": 5}],
 "edges": [
  {"from": "access:0", "to": "bottleneck:0"},
  {"from": "bottleneck:0", "to": "tap:0"}],
 "workload": {"kind": "tcp", "flows": 10000, "cc": "newreno",
  "ingress": "access:0", "egress": "tap:0",
  "ack_ingress": "ackpath:0", "ack_egress": "ackpath:0"}})";
}

// The paper's latency-test path: 64 B CBR at 9.5 Gb/s from the device
// generator through a legacy switch and a BER'd delay stage back into
// the device monitor. Every frame crosses gen TX, MAC, Link, DUT, RX MAC,
// monitor RX and DMA one event at a time; no transport at all.
std::string cbr64_switch_json(std::uint64_t seed) {
  return R"({"name": "cbr64_switch", "seed": )" + std::to_string(seed) + R"(,
 "blocks": [
  {"name": "sw", "type": "legacy_switch", "num_ports": 2},
  {"name": "noisy", "type": "delay_ber", "delay_ns": 500, "ber": 1e-9}],
 "edges": [{"from": "sw:1", "to": "noisy:0"}],
 "workload": {"kind": "cbr", "rate_gbps": 9.5, "frame_size": 64,
  "ingress": "sw:0", "egress": "noisy:0"}})";
}

/// Seeds per end-to-end sweep. The tail is then p80; fewer seeds buy more
/// sweeps, and a seed's median over more sweeps is steadier.
constexpr std::size_t kTimedSeeds = 50;
/// Seeds in each --trace 1 pass. Fixed, so per-layer counts repeat
/// exactly for a given --seed.
constexpr std::size_t kTracedSeeds = 12;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"burst64", 90 * kPicosPerMilli, burst64_json},
      {"tcp10k", 20 * kPicosPerMilli, tcp10k_json},
      {"cbr64_switch", 2700 * kPicosPerMicro, cbr64_switch_json},
  };
  return kWorkloads;
}

// --- host-speed probe ---------------------------------------------------------

/// Probe units to ms: end-to-end times are reported in probe units times
/// this constant, i.e. as ms on a host where one probe takes 2 ms.
constexpr double kProbeNominalMs = 2.0;

std::uint64_t probe_mix(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

volatile std::uint64_t g_probe_sink = 0;

/// Host-speed probe: a fixed mini event loop — a binary heap of timed
/// events carrying small heap-allocated payloads, stepped by dependent
/// loads over a 4 MiB table — timed in wall ms. It allocates like the
/// simulator does: with fixed-slot payloads instead it tracked the
/// neighbours' slowdown of the trials worse. Other tenants of a
/// shared host slow this and the simulator alike, for seconds at a time,
/// so a trial's cost is measured as its wall time over the probe's wall
/// time next to it. The probe is this file's own code and uses nothing
/// from the library under test, so no change to the library moves it.
double probe_ms() {
  constexpr std::size_t kTable = std::size_t{1} << 20;
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> v(kTable);
    for (std::size_t i = 0; i < kTable; ++i) {
      v[i] = static_cast<std::uint32_t>(i);
    }
    std::uint64_t r = 42;
    for (std::size_t i = kTable - 1; i > 0; --i) {  // Sattolo: one cycle
      r = probe_mix(r);
      std::swap(v[i], v[r % i]);
    }
    return v;
  }();
  struct Ev {
    std::uint64_t t;
    std::uint8_t* payload;
  };
  const auto later = [](const Ev& a, const Ev& b) { return a.t > b.t; };
  std::vector<Ev> heap;
  heap.reserve(4096);
  std::uint64_t x = 0x1234;
  std::uint32_t at = 0;
  std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < 20000; ++i) {
    at = next[at];
    x = probe_mix(x ^ at);
    auto* p = new std::uint8_t[64 + (x & 63)];
    std::memset(p, static_cast<int>(x & 0xff), 64);
    heap.push_back({x >> 20, p});
    std::push_heap(heap.begin(), heap.end(), later);
    if (heap.size() > 2048) {
      std::pop_heap(heap.begin(), heap.end(), later);
      sink += heap.back().payload[0];
      delete[] heap.back().payload;
      heap.pop_back();
    }
  }
  for (const Ev& e : heap) {
    sink += e.payload[0];
    delete[] e.payload;
  }
  const double ms = ms_since(t0);
  g_probe_sink = sink;
  return ms;
}

// --- one scenario ---------------------------------------------------------

struct Scenario {
  const Workload* wl = nullptr;
  std::string json;
  graph::TopologyFile topo;
  Picos duration = 0;
  /// Lowest serialization rate on the path: tcp goodput may not exceed it.
  double bottleneck_gbps = 0.0;
};

double bottleneck_gbps_of(const graph::TopologyFile& topo) {
  double rate = 10.0;  // device port line rate
  for (const auto& b : topo.blocks) {
    if (b.type == "fifo_queue") rate = std::min(rate, b.fifo.rate_gbps);
    if (b.type == "red") rate = std::min(rate, b.red.rate_gbps);
    if (b.type == "token_bucket") {
      rate = std::min(rate, b.token_bucket.rate_gbps);
    }
  }
  if (topo.workload.bottleneck_gbps > 0) {
    rate = std::min(rate, topo.workload.bottleneck_gbps);
  }
  return rate;
}

tcp::WorkloadConfig tcp_config(const graph::WorkloadSpec& w,
                               std::uint64_t seed) {
  tcp::WorkloadConfig cfg;
  cfg.flows = w.flows;
  cfg.cc = w.cc;
  cfg.mss = w.mss;
  cfg.bottleneck_gbps = w.bottleneck_gbps;
  cfg.queue_segments = w.queue_segments;
  cfg.rwnd_bytes = w.rwnd_kb * 1024;
  cfg.rate_limit_detector = w.rate_limit_detector;
  cfg.seed = seed;
  return cfg;
}

// --- set-up timing ----------------------------------------------------------

/// Wall time of the public calls a trial makes before its first event.
struct SetupTimes {
  double parse_ms = 0;     ///< TopologyFile::from_json + validate_workload
  double build_ms = 0;     ///< Engine, OsntDevice, Graph, TopologyFile::build
  double workload_ms = 0;  ///< tcp::ClosedLoopWorkload construction (tcp)
  [[nodiscard]] double total_ms() const {
    return parse_ms + build_ms + workload_ms;
  }
};

SetupTimes time_setup(const Scenario& sc, std::uint64_t seed) {
  SetupTimes st;
  auto t = Clock::now();
  const graph::TopologyFile topo = graph::TopologyFile::from_json(sc.json);
  graph::validate_workload(topo);
  st.parse_ms = ms_since(t);
  t = Clock::now();
  sim::Engine eng;
  core::OsntDevice dev{eng};
  graph::Graph g{eng};
  topo.build(eng, g, seed, sc.duration);
  st.build_ms = ms_since(t);
  if (topo.workload.kind == graph::WorkloadSpec::Kind::kTcp) {
    t = Clock::now();
    const tcp::ClosedLoopWorkload wl{eng, dev, tcp_config(topo.workload, seed)};
    st.workload_ms = ms_since(t);
  }
  return st;
}

// --- registry helpers -------------------------------------------------------

/// kSimOnly snapshot without zero-valued entries: the registry keeps every
/// name it has ever seen, so which zeros appear depends on what ran
/// earlier in the process, not on the trial being compared.
std::string sim_only_snapshot() {
  const std::string raw =
      telemetry::registry().to_json(telemetry::Snapshot::kSimOnly);
  std::string out;
  std::size_t pos = 0;
  while (pos < raw.size()) {
    std::size_t end = raw.find('\n', pos);
    if (end == std::string::npos) end = raw.size();
    std::string_view line(raw.data() + pos, end - pos);
    pos = end + 1;
    if (!line.empty() && line.back() == ',') line.remove_suffix(1);
    const bool zero_scalar =
        line.size() > 3 && line.substr(line.size() - 3) == ": 0";
    const bool empty_hist = line.find("{\"count\": 0,") != std::string::npos;
    if (zero_scalar || empty_hist) continue;
    out.append(line);
    out.push_back('\n');
  }
  return out;
}

/// Every counter and gauge in the registry, host-clock ones included.
std::map<std::string, double> registry_values() {
  const json::Value root = json::parse(
      telemetry::registry().to_json(telemetry::Snapshot::kAll), "registry");
  std::map<std::string, double> out;
  for (const char* section : {"counters", "gauges"}) {
    if (const json::Value* obj = root.find(section)) {
      for (const auto& [name, v] : obj->object) out[name] = v.number;
    }
  }
  return out;
}

double value_or_zero(const std::map<std::string, double>& m,
                     const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? 0.0 : it->second;
}

// --- trace tally ------------------------------------------------------------

/// Counts engine events per category from a TraceRecorder's Chrome JSON
/// as it streams out, without holding the document. Engine::set_trace
/// registers the "engine/<category>" tracks first on a fresh recorder, so
/// an 'X' slice on tid c < kEventCategoryCount is one event of category c.
class TraceTally final : public std::streambuf {
 public:
  std::array<std::uint64_t, sim::kEventCategoryCount> counts{};

  void finish() {
    if (!pending_.empty()) line(pending_);
    pending_.clear();
  }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::string_view in(s, static_cast<std::size_t>(n));
    while (!in.empty()) {
      const std::size_t nl = in.find('\n');
      if (nl == std::string_view::npos) {
        pending_.append(in);
        break;
      }
      if (pending_.empty()) {
        line(in.substr(0, nl));
      } else {
        pending_.append(in.substr(0, nl));
        line(pending_);
        pending_.clear();
      }
      in.remove_prefix(nl + 1);
    }
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      const char ch = traits_type::to_char_type(c);
      xsputn(&ch, 1);
    }
    return traits_type::not_eof(c);
  }

 private:
  void line(std::string_view l) {
    constexpr std::string_view kHead = "{\"ph\": \"X\", \"pid\": 0, \"tid\": ";
    if (l.substr(0, kHead.size()) != kHead) return;
    std::size_t tid = 0;
    const char* first = l.data() + kHead.size();
    if (std::from_chars(first, l.data() + l.size(), tid).ec != std::errc{}) {
      return;
    }
    if (tid < counts.size()) ++counts[tid];
  }

  std::string pending_;
};

// --- trials -----------------------------------------------------------------

struct Span {
  const char* name;
  double ms;
};

/// What the benchmark keeps of one trial; the full report is dropped so
/// hundreds of trials do not inflate peak RSS.
struct TrialSummary {
  std::uint64_t seed = 0;
  double wall_ms = 0;
  std::uint64_t frames = 0;  ///< Σ frames_in over graph blocks
  std::vector<graph::BlockCounters> blocks;
  std::uint64_t burst_frames = 0;  ///< Σ frames_out of burst_source blocks
  tcp::TcpTrialReport tcp{};
  std::string snapshot;                ///< sim_only_snapshot()
  std::map<std::string, double> reg;   ///< registry_values()
  scenbench::AllocCounts allocs;       ///< counted passes only
  std::string failure;                 ///< empty when every check passed
  // Traced pass only.
  std::vector<Span> spans;
  double run_ms = 0;  ///< wall span of the run call
  std::array<std::uint64_t, sim::kEventCategoryCount> cat_events{};
  std::uint64_t burst_events = 0;  ///< burst_source emission events
};

bool is_source(const Scenario& sc, std::size_t block) {
  return block < sc.topo.blocks.size() &&
         sc.topo.blocks[block].type == "burst_source";
}

/// The invariants every trial must satisfy; returns the first violation.
/// `burst_tx` is the frames the topology's burst_source blocks emitted.
std::string check_report(const Scenario& sc,
                         const graph::TopologyTrialReport& r,
                         std::uint64_t burst_tx) {
  const graph::TopologyFile& topo = sc.topo;
  for (std::size_t i = 0; i < r.blocks.size(); ++i) {
    const graph::BlockCounters& b = r.blocks[i];
    if (!is_source(sc, i) && b.frames_out + b.drops > b.frames_in) {
      return "block " + b.name + ": frames_out + drops > frames_in";
    }
  }
  if (r.graph_frames_in == 0) return "no frame entered the graph";
  if (topo.workload.kind == graph::WorkloadSpec::Kind::kTcp) {
    const double g = r.tcp.goodput_bps;
    if (!(g > 0.0)) return "tcp goodput is not positive";
    if (g > sc.bottleneck_gbps * 1e9) {
      return "tcp goodput exceeds the bottleneck rate";
    }
  }
  if (topo.workload.kind == graph::WorkloadSpec::Kind::kCbr) {
    if (r.cbr.tx_frames == 0) return "cbr sent nothing";
    if (r.cbr.rx_frames > r.cbr.tx_frames) return "cbr rx > tx";
  }
  if (burst_tx > 0) {
    // Burst frames share the path with the workload's own frames: what
    // leaves at egress cannot exceed what the burst sources plus the
    // workload ingress put in.
    std::uint64_t ingress_in = 0;
    std::uint64_t egress_in = 0;
    for (const auto& b : r.blocks) {
      if (b.name == topo.workload.ingress.block) ingress_in = b.frames_in;
      if (b.name == topo.workload.egress.block) egress_in = b.frames_in;
    }
    if (egress_in > burst_tx + ingress_in) {
      return "burst: egress rx > burst frames + ingress frames";
    }
  }
  return {};
}

void summarize(const Scenario& sc, const graph::TopologyTrialReport& r,
               TrialSummary& s) {
  s.frames = r.graph_frames_in;
  s.blocks = r.blocks;
  for (std::size_t i = 0; i < r.blocks.size(); ++i) {
    if (is_source(sc, i)) s.burst_frames += r.blocks[i].frames_out;
  }
  s.tcp = r.tcp;
}

void fill_blocks(graph::Graph& g, graph::TopologyTrialReport& rep) {
  for (std::size_t i = 0; i < g.num_blocks(); ++i) {
    const graph::Block& b = g.block(i);
    graph::BlockCounters bc;
    bc.name = b.name();
    bc.frames_in = b.frames_in();
    bc.frames_out = b.frames_out();
    bc.drops = b.drops();
    bc.frame_bytes = b.bytes_in();
    rep.blocks.push_back(std::move(bc));
  }
  rep.graph_frames_in = g.total_frames_in();
  rep.graph_drops = g.total_drops();
}

/// The traced fork of run_topology_trial: the same public calls in the
/// same order, with a TraceRecorder and handler timing attached and a
/// wall span around each call. Faithful only while its kSimOnly snapshot
/// matches the untraced trial's; the caller checks that for every seed.
graph::TopologyTrialReport traced_trial(const Scenario& sc,
                                        std::uint64_t seed, TrialSummary& s) {
  const graph::TopologyFile& topo = sc.topo;
  const graph::WorkloadSpec& w = topo.workload;
  if (w.kind != graph::WorkloadSpec::Kind::kTcp &&
      w.kind != graph::WorkloadSpec::Kind::kCbr) {
    throw std::runtime_error("traced fork supports tcp and cbr workloads");
  }
  const auto span = [&s](const char* name, auto&& fn) {
    const auto t0 = Clock::now();
    fn();
    const double ms = ms_since(t0);
    s.spans.push_back({name, ms});
    return ms;
  };

  telemetry::TraceRecorder rec;
  std::optional<sim::Engine> eng;
  std::optional<core::OsntDevice> dev;
  std::optional<graph::Graph> g;
  std::optional<tcp::ClosedLoopWorkload> wl;
  graph::TopologyTrialReport rep;

  const auto t_trial = Clock::now();
  span("engine", [&] {
    eng.emplace();
    eng->set_trace(&rec);
    eng->set_handler_timing(true);
  });
  span("device", [&] { dev.emplace(*eng); });
  span("topo.build", [&] {
    g.emplace(*eng);
    topo.build(*eng, *g, seed, sc.duration);
  });
  const bool is_tcp = w.kind == graph::WorkloadSpec::Kind::kTcp;
  span("workload", [&] {
    // Forward path: device TX port 0 -> graph -> device RX port 1; the
    // reverse path through its own blocks (tcp only) or a direct cable.
    dev->port(0).out_link().connect(g->input(w.ingress.block, w.ingress.port));
    g->connect_output(w.egress.block, w.egress.port, dev->port(1).rx());
    if (w.ack_ingress) {
      dev->port(1).out_link().connect(
          g->input(w.ack_ingress->block, w.ack_ingress->port));
      g->connect_output(w.ack_egress->block, w.ack_egress->port,
                        dev->port(0).rx());
    } else {
      dev->port(1).out_link().connect(dev->port(0).rx());
    }
    if (is_tcp) wl.emplace(*eng, *dev, tcp_config(w, seed));
  });
  span("start", [&] {
    g->start();
    if (is_tcp) wl->start();
  });
  if (is_tcp) {
    s.run_ms = span("run", [&] { eng->run_until(sc.duration); });
    tcp::TcpTrialReport& r = rep.tcp;
    r.retransmits = wl->total_retransmits();
    r.rto_fires = wl->total_rto_fires();
    r.acks_sent = wl->total_acks_sent();
    r.goodput_bps = wl->goodput_bps(sc.duration);
    for (std::size_t i = 0; i < wl->num_flows(); ++i) {
      r.segs_sent += wl->flow(i).stats().segs_sent;
    }
  } else {
    core::TrafficSpec spec;
    spec.rate = gen::RateSpec::gbps(w.rate_gbps);
    spec.frame_size = w.frame_size;
    spec.flow_count = w.flow_count;
    spec.seed = seed;
    s.run_ms = span("run", [&] {
      rep.cbr = core::run_capture_test(*eng, *dev, 0, 1, spec, sc.duration);
    });
  }
  fill_blocks(*g, rep);
  for (std::size_t i = 0; i < g->num_blocks(); ++i) {
    if (const auto* src =
            dynamic_cast<const burst::BurstSourceBlock*>(&g->block(i))) {
      s.burst_events += src->bursts_emitted();
    }
  }
  span("teardown", [&] {
    wl.reset();
    g.reset();
    dev.reset();
    eng.reset();
  });
  s.wall_ms = ms_since(t_trial);

  for (std::size_t c = 0; c < sim::kEventCategoryCount; ++c) {
    const std::string track =
        std::string("engine/") +
        sim::event_category_name(static_cast<sim::EventCategory>(c));
    if (rec.track(track) != c) {
      throw std::runtime_error("trace: engine tracks are not tids 0..7");
    }
  }
  if (rec.dropped() != 0) {
    throw std::runtime_error("trace: recorder dropped events");
  }
  TraceTally tally;
  std::ostream os(&tally);
  rec.write_chrome_json(os);
  tally.finish();
  s.cat_events = tally.counts;
  return rep;
}

enum class Pass : std::uint8_t {
  kPlain,    ///< timed end-to-end trials
  kCounted,  ///< untraced per-layer pass: allocations + registry values
  kTraced,   ///< traced fork: spans, handler timing, trace tally
};

/// Run `seeds` back to back through run_resilient at jobs = 1. Each trial
/// starts from a zeroed registry so its counters are its own.
std::vector<TrialSummary> run_batch(const Scenario& sc,
                                    const std::vector<std::uint64_t>& seeds,
                                    Pass pass) {
  std::vector<TrialSummary> out(seeds.size());
  core::TrialPlan plan;
  for (const std::uint64_t seed : seeds) {
    core::TrialPoint pt;
    pt.seed = seed;
    plan.points.push_back(pt);
  }
  plan.run = [&](const core::TrialPoint& p) {
    TrialSummary& s = out[p.index];
    s.seed = p.seed;
    telemetry::registry().reset();
    graph::TopologyTrialReport rep;
    if (pass == Pass::kTraced) {
      rep = traced_trial(sc, p.seed, s);
    } else {
      const bool count = pass == Pass::kCounted;
      const scenbench::AllocCounts a0 = scenbench::alloc_counts();
      scenbench::set_alloc_counting(count);
      const auto t0 = Clock::now();
      rep = graph::run_topology_trial(sc.topo, p.seed, sc.duration);
      s.wall_ms = ms_since(t0);
      scenbench::set_alloc_counting(false);
      const scenbench::AllocCounts a1 = scenbench::alloc_counts();
      s.allocs = {a1.calls - a0.calls, a1.bytes - a0.bytes};
    }
    summarize(sc, rep, s);
    s.failure = check_report(sc, rep, s.burst_frames);
    s.snapshot = sim_only_snapshot();
    s.reg = registry_values();
    return core::TrialStats{};
  };
  const core::Runner runner{core::RunnerConfig{}};  // jobs = 1, inline
  const std::vector<core::TrialResult> results = runner.run_resilient(plan);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      out[i].failure = std::string("trial ") +
                       core::trial_outcome_name(results[i].outcome) + ": " +
                       results[i].error;
    }
  }
  return out;
}

// --- statistics -------------------------------------------------------------

/// Linear interpolation between order statistics (p in [0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// The highest percentile with at least ten samples beyond it.
double tail_percentile(std::size_t n) {
  return std::max(50.0, 100.0 * (1.0 - 10.0 / static_cast<double>(n)));
}

// --- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string fmt_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           fmt_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_host() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  std::printf(
      "host: nproc %d, hardware_concurrency %u, build %s, flags '%s', "
      "jobs %zu (closed batch, one client; parallel scaling is left out "
      "on purpose: shared-host jobs>1 numbers do not repeat)\n",
      nproc, std::thread::hardware_concurrency(), SCENBENCH_BUILD_TYPE,
      SCENBENCH_CXX_FLAGS, core::RunnerConfig{}.jobs);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t count_failures(const std::vector<TrialSummary>& v) {
  std::size_t n = 0;
  for (const auto& s : v) {
    if (!s.failure.empty()) {
      ++n;
      std::printf("FAIL seed %llu: %s\n",
                  static_cast<unsigned long long>(s.seed), s.failure.c_str());
    }
  }
  return n;
}

// --- passes -----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  bool smoke = false;
};

std::uint64_t trial_seed(std::uint64_t run_seed, std::uint64_t i) {
  return derive_seed(run_seed, 0x5CE0000 + i);
}

/// Medians of each part of the set-up over at least `min_reps` repetitions
/// and `min_ms` of wall time, after one untimed call that pays lazy
/// statics: tiny set-ups get thousands of samples, large ones ~20.
SetupTimes median_setup(const Scenario& sc, std::uint64_t seed,
                        std::size_t min_reps, double min_ms) {
  (void)time_setup(sc, seed);
  std::vector<double> parse, build, work;
  const auto t0 = Clock::now();
  while (parse.size() < min_reps || ms_since(t0) < min_ms) {
    const SetupTimes st = time_setup(sc, seed);
    parse.push_back(st.parse_ms);
    build.push_back(st.build_ms);
    work.push_back(st.workload_ms);
  }
  return {percentile(parse, 50), percentile(build, 50), percentile(work, 50)};
}

/// Every graph block name across the workloads, in a stable order: the
/// per-layer metric set is the same for every workload, so a block a
/// workload lacks reports zero.
std::vector<std::string> all_block_names() {
  std::vector<std::string> names;
  for (const Workload& w : workloads()) {
    for (const auto& b : graph::TopologyFile::from_json(w.topology(1)).blocks) {
      if (std::find(names.begin(), names.end(), b.name) == names.end()) {
        names.push_back(b.name);
      }
    }
  }
  return names;
}

/// Failure bookkeeping shared by both modes: every trial run through the
/// runner counts as attempted, warm-up and replays included.
struct Outcomes {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void add(const std::vector<TrialSummary>& v) {
    attempted += v.size();
    failed += count_failures(v);
  }
  void print() const {
    std::printf("failed_trial_share %g (%zu of %zu)\n",
                static_cast<double>(failed) / static_cast<double>(attempted),
                failed, attempted);
  }
};

/// End-to-end pass. The timed trials are sweeps over one fixed set of
/// kTimedSeeds seeds, repeated until --seconds have passed (at least two
/// sweeps); every later sweep must reproduce each seed's kSimOnly
/// snapshot from the first. Each trial is followed by a host-speed probe
/// (see probe_ms), and its cost is its wall time over that probe's, in
/// probe units; a seed's cost is the median over sweeps, scaled to ms by
/// kProbeNominalMs. Set-up is sampled between trials, up to a twentieth
/// of the run, and normalised by the latest probe the same way.
int end_to_end(const Scenario& sc, const Args& a) {
  const std::size_t n = a.smoke ? 10 : kTimedSeeds;
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < n; ++i) {
    seeds.push_back(trial_seed(a.seed, i + 1));
  }
  const std::uint64_t setup_seed = trial_seed(a.seed, 0);
  (void)time_setup(sc, setup_seed);  // pays lazy statics
  (void)probe_ms();                  // builds the probe's table

  Outcomes out;
  out.add(run_batch(sc, {derive_seed(a.seed, 0xA11CE)}, Pass::kPlain));

  std::vector<std::vector<double>> cost(n);  // probe units, per sweep
  std::vector<std::string> first_snapshots(n);
  std::vector<double> raw_ms;
  std::vector<double> probes_ms;
  std::vector<double> setup_cost;
  double setup_spent_ms = 0;
  double frames = 0;
  std::size_t sweeps = 0;
  double sweep_ms = 0;
  const auto start = Clock::now();
  while (sweeps < 2 || ms_since(start) + sweep_ms / 2 < a.seconds * 1e3) {
    const auto t_sweep = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<TrialSummary> one = run_batch(sc, {seeds[i]}, Pass::kPlain);
      TrialSummary& s = one.front();
      if (sweeps == 0) {
        first_snapshots[i] = s.snapshot;
        frames += static_cast<double>(s.frames);
      } else if (s.failure.empty() && s.snapshot != first_snapshots[i]) {
        s.failure = "kSimOnly snapshot differs from the first sweep";
      }
      const double probe = probe_ms();
      cost[i].push_back(s.wall_ms / probe);
      raw_ms.push_back(s.wall_ms);
      probes_ms.push_back(probe);
      out.add(one);
      while (setup_spent_ms < 0.05 * ms_since(start)) {
        const auto t = Clock::now();
        setup_cost.push_back(time_setup(sc, setup_seed).total_ms() / probe);
        setup_spent_ms += ms_since(t);
      }
    }
    ++sweeps;
    sweep_ms = ms_since(t_sweep);
  }

  std::vector<double> trial_ms;
  double total_s = 0;
  for (const auto& c : cost) {
    trial_ms.push_back(percentile(c, 50) * kProbeNominalMs);
    total_s += trial_ms.back() / 1e3;
  }
  const double sim_s = to_seconds(sc.duration) * static_cast<double>(n);
  const double tail_p = tail_percentile(n);

  print_host();
  std::printf("workload %s: %zu seeds x %zu sweeps of %.3f ms sim each\n",
              sc.wl->name, n, sweeps, to_seconds(sc.duration) * 1e3);
  std::printf(
      "times are in probe units x %.1f ms; probe p50 %.3f ms (min %.3f); "
      "raw wall over all %zu trials: p50 %.3f ms, p%g %.3f ms\n",
      kProbeNominalMs, percentile(probes_ms, 50),
      *std::min_element(probes_ms.begin(), probes_ms.end()), raw_ms.size(),
      percentile(raw_ms, 50), tail_p, percentile(raw_ms, tail_p));
  std::printf(
      "trial_ms_tail is p%g over %zu seeds (median of %zu sweeps each); "
      "setup_s is the median of %zu set-ups\n",
      tail_p, n, sweeps, setup_cost.size());
  out.print();
  const std::vector<Metric> metrics = {
      {"sim_speed", sim_s / total_s, "sim_s/s"},
      {"frames_per_s", frames / total_s, "1/s"},
      {"trial_ms_p50", percentile(trial_ms, 50), "ms"},
      {"trial_ms_tail", percentile(trial_ms, tail_p), "ms"},
      {"setup_s", percentile(setup_cost, 50) * kProbeNominalMs / 1e3, "s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
  };
  print_result(out.failed == 0, out.attempted, out.failed, metrics);
  return out.failed == 0 ? 0 : 1;
}

double handler_ns_of(const TrialSummary& s, std::size_t c) {
  return value_or_zero(
      s.reg, std::string("sim.engine.handler_ns.wall.") +
                 sim::event_category_name(static_cast<sim::EventCategory>(c)));
}

/// Cross-checks of one traced trial against its untraced twin: identical
/// kSimOnly snapshot, a trace tally that covers every fired event, and
/// handler time inside the run span.
void check_traced(const TrialSummary& plain, TrialSummary& t) {
  if (!t.failure.empty() || !plain.failure.empty()) return;
  if (t.snapshot != plain.snapshot) {
    t.failure = "traced kSimOnly snapshot differs from untraced";
    return;
  }
  std::uint64_t tallied = 0;
  for (const std::uint64_t c : t.cat_events) tallied += c;
  if (static_cast<double>(tallied) !=
      value_or_zero(t.reg, "sim.engine.events_fired")) {
    t.failure = "trace tally does not match sim.engine.events_fired";
    return;
  }
  double handler_ns = 0;
  for (std::size_t c = 0; c < sim::kEventCategoryCount; ++c) {
    handler_ns += handler_ns_of(t, c);
  }
  if (handler_ns / 1e6 > t.run_ms) t.failure = "handler time exceeds run span";
}

/// Per-layer metrics of one untraced + traced pass over the same seeds.
/// Counts are means per trial; `run_split` gets the per-trial run span,
/// handler time and engine self time in ms for the report.
std::vector<Metric> layer_metrics(const std::vector<TrialSummary>& plain,
                                  const std::vector<TrialSummary>& traced,
                                  std::array<double, 3>& run_split) {
  const double trials = static_cast<double>(plain.size());
  double frames = 0;
  double plain_wall_s = 0;
  double allocs = 0;
  double alloc_bytes = 0;
  double burst_frames = 0;
  double heap_hw = 0;
  double live_hw = 0;
  double tcp_segs = 0, tcp_acks = 0, tcp_retx = 0, tcp_rto = 0, goodput = 0;
  std::map<std::string, double> sum;  // registry values summed over trials
  std::map<std::string, std::pair<double, double>> block_sum;  // in, drops
  for (const auto& s : plain) {
    frames += static_cast<double>(s.frames);
    plain_wall_s += s.wall_ms / 1e3;
    allocs += static_cast<double>(s.allocs.calls);
    alloc_bytes += static_cast<double>(s.allocs.bytes);
    burst_frames += static_cast<double>(s.burst_frames);
    for (const auto& [k, v] : s.reg) sum[k] += v;
    heap_hw = std::max(
        heap_hw, value_or_zero(s.reg, "sim.engine.impl.heap_high_water"));
    live_hw =
        std::max(live_hw, value_or_zero(s.reg, "sim.engine.live_high_water"));
    tcp_segs += static_cast<double>(s.tcp.segs_sent);
    tcp_acks += static_cast<double>(s.tcp.acks_sent);
    tcp_retx += static_cast<double>(s.tcp.retransmits);
    tcp_rto += static_cast<double>(s.tcp.rto_fires);
    goodput += s.tcp.goodput_bps;
    for (const auto& b : s.blocks) {
      block_sum[b.name].first += static_cast<double>(b.frames_in);
      block_sum[b.name].second += static_cast<double>(b.drops);
    }
  }
  double traced_wall_s = 0;
  double traced_frames = 0;
  double run_ns = 0;
  double burst_events = 0;
  std::array<double, sim::kEventCategoryCount> cat_events{};
  std::array<double, sim::kEventCategoryCount> handler_ns{};
  for (const auto& s : traced) {
    traced_wall_s += s.wall_ms / 1e3;
    traced_frames += static_cast<double>(s.frames);
    run_ns += s.run_ms * 1e6;
    burst_events += static_cast<double>(s.burst_events);
    for (std::size_t c = 0; c < sim::kEventCategoryCount; ++c) {
      cat_events[c] += static_cast<double>(s.cat_events[c]);
      handler_ns[c] += handler_ns_of(s, c);
    }
  }
  const double events = sum["sim.engine.events_fired"];
  double traced_events = 0;
  double handler_total = 0;
  for (std::size_t c = 0; c < sim::kEventCategoryCount; ++c) {
    traced_events += cat_events[c];
    handler_total += handler_ns[c];
  }
  run_split = {run_ns / 1e6 / trials, handler_total / 1e6 / trials,
               (run_ns - handler_total) / 1e6 / trials};
  const auto per = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const auto cat = [](sim::EventCategory c) {
    return static_cast<std::size_t>(c);
  };

  std::vector<Metric> m;
  m.push_back({"sim.events_per_frame", per(events, frames), "events/frame"});
  m.push_back({"sim.cancels_per_frame",
               per(sum["sim.engine.events_cancelled"], frames),
               "events/frame"});
  m.push_back({"sim.heap_high_water", heap_hw, "events"});
  m.push_back({"sim.live_high_water", live_hw, "events"});
  m.push_back({"sim.wheel_cascaded",
               sum["sim.engine.wheel.impl.cascaded"] / trials, "count"});
  m.push_back({"sim.wheel_spilled",
               sum["sim.engine.wheel.impl.spilled"] / trials, "count"});
  m.push_back({"sim.events_per_s", per(events, plain_wall_s), "1/s"});
  constexpr sim::EventCategory kCats[] = {
      sim::EventCategory::kGeneric, sim::EventCategory::kGen,
      sim::EventCategory::kLink,    sim::EventCategory::kHw,
      sim::EventCategory::kDut,     sim::EventCategory::kMon,
      sim::EventCategory::kTcp};
  for (const sim::EventCategory c : kCats) {
    m.push_back({std::string("sim.handler_ns_per_frame.") +
                     sim::event_category_name(c),
                 per(handler_ns[cat(c)], traced_frames), "ns/frame"});
  }
  m.push_back({"sim.dispatch_ns_per_event",
               per(run_ns - handler_total, traced_events), "ns/event"});
  for (const sim::EventCategory c : kCats) {
    m.push_back({std::string("sim.events.") + sim::event_category_name(c),
                 cat_events[cat(c)] / trials, "count"});
  }
  // A hop is one frame delivery into a graph block.
  m.push_back({"link.events_per_hop",
               per(cat_events[cat(sim::EventCategory::kLink)], traced_frames),
               "events/hop"});
  m.push_back({"alloc.per_frame", per(allocs, frames), "allocs/frame"});
  m.push_back({"alloc.bytes_per_frame", per(alloc_bytes, frames), "B/frame"});
  for (const std::string& b : all_block_names()) {
    const auto it = block_sum.find(b);
    const std::pair<double, double> v =
        it == block_sum.end() ? std::pair<double, double>{} : it->second;
    m.push_back({"graph." + b + ".frames_in", v.first / trials, "count"});
    m.push_back({"graph." + b + ".drops", v.second / trials, "count"});
  }
  m.push_back({"burst.frames", burst_frames / trials, "count"});
  m.push_back({"burst.frames_per_event", per(burst_frames, burst_events),
               "frames/event"});
  m.push_back({"tcp.segs_sent", tcp_segs / trials, "count"});
  m.push_back({"tcp.acks_sent", tcp_acks / trials, "count"});
  m.push_back({"tcp.retransmits", tcp_retx / trials, "count"});
  m.push_back({"tcp.rto_fires", tcp_rto / trials, "count"});
  m.push_back({"tcp.delack_cancels_saved",
               sum["tcp.delack.cancels_saved"] / trials, "count"});
  m.push_back({"tcp.goodput_gbps", goodput / trials / 1e9, "Gb/s"});
  for (const char* k : {"gen.tx.frames_sent", "mon.rx.frames_seen",
                        "hw.dma.records_delivered", "hw.dma.drops_ring_full"}) {
    m.push_back({k, sum[k] / trials, "count"});
  }
  m.push_back({"trace.overhead_ratio", per(traced_wall_s, plain_wall_s), "x"});
  return m;
}

/// Untraced + traced passes over one fixed seed set, repeated until
/// --seconds have passed. Every pass must reproduce the first pass's
/// snapshots; the report gives each metric's median over passes, which
/// for the counts is their one exact value.
int per_layer(const Scenario& sc, const Args& a) {
  const std::size_t n = a.smoke ? 2 : kTracedSeeds;
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < n; ++i) {
    seeds.push_back(trial_seed(a.seed, i + 1));
  }
  Outcomes out;
  out.add(run_batch(sc, {derive_seed(a.seed, 0xA11CE)}, Pass::kPlain));

  std::vector<std::string> first_snapshots;
  std::vector<std::vector<Metric>> passes;
  std::map<std::string, std::vector<double>> span_ms;
  const auto start = Clock::now();
  while (passes.empty() || ms_since(start) < a.seconds * 1e3) {
    std::vector<TrialSummary> plain = run_batch(sc, seeds, Pass::kCounted);
    std::vector<TrialSummary> traced = run_batch(sc, seeds, Pass::kTraced);
    for (std::size_t i = 0; i < n; ++i) {
      if (first_snapshots.size() < n) {
        first_snapshots.push_back(plain[i].snapshot);
      } else if (plain[i].failure.empty() &&
                 plain[i].snapshot != first_snapshots[i]) {
        plain[i].failure = "kSimOnly snapshot differs from the first pass";
      }
      check_traced(plain[i], traced[i]);
      for (const Span& sp : traced[i].spans) {
        span_ms[sp.name].push_back(sp.ms);
      }
    }
    out.add(plain);
    out.add(traced);
    std::array<double, 3> split{};
    passes.push_back(layer_metrics(plain, traced, split));
    std::printf(
        "pass %zu: run span %.3f ms = handlers %.3f ms + engine self %.3f ms "
        "per trial\n",
        passes.size(), split[0], split[1], split[2]);
  }

  std::vector<Metric> m = passes.front();
  for (std::size_t k = 0; k < m.size(); ++k) {
    std::vector<double> v;
    for (const auto& p : passes) v.push_back(p[k].value);
    m[k].value = percentile(v, 50);
  }
  // After the trials, so the allocator is as warm as for the end-to-end
  // pass's interleaved set-ups and the split sums to about setup_s.
  const SetupTimes setup = median_setup(sc, trial_seed(a.seed, 0),
                                        a.smoke ? 3 : 21, a.smoke ? 0 : 500);
  m.push_back({"topo.parse_ms", setup.parse_ms, "ms"});
  m.push_back({"topo.build_ms", setup.build_ms, "ms"});
  m.push_back({"topo.workload_ms", setup.workload_ms, "ms"});

  print_host();
  std::printf(
      "workload %s: %zu seeds x %zu passes, untraced and traced, %.3f ms sim "
      "each\n",
      sc.wl->name, n, passes.size(), to_seconds(sc.duration) * 1e3);
  std::printf("set-up %.3f ms (sum of part medians)\n", setup.total_ms());
  std::printf("traced spans (median ms per trial):");
  for (const auto& [name, v] : span_ms) {
    std::printf(" %s %.3f", name.c_str(), percentile(v, 50));
  }
  std::printf("\n");
  out.print();
  print_result(out.failed == 0, out.attempted, out.failed, m);
  return out.failed == 0 ? 0 : 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "scenario_bench: %s\nusage: scenario_bench --workload "
               "burst64|tcp10k|cbr64_switch --seed N --seconds S --trace 0|1 "
               "[--smoke]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else {
        usage(("unknown flag " + k).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const Workload* wl = nullptr;
  for (const Workload& w : workloads()) {
    if (a.workload == w.name) wl = &w;
  }
  if (!wl) usage(("unknown workload '" + a.workload + "'").c_str());

  try {
    Scenario sc;
    sc.wl = wl;
    sc.json = wl->topology(derive_seed(a.seed, 0x7090) >> 32);
    sc.topo = graph::TopologyFile::from_json(sc.json);
    graph::validate_workload(sc.topo);
    sc.duration = a.smoke ? wl->duration / 10 : wl->duration;
    sc.bottleneck_gbps = bottleneck_gbps_of(sc.topo);
    return a.trace ? per_layer(sc, a) : end_to_end(sc, a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenario_bench: %s\n", e.what());
    return 1;
  }
}
