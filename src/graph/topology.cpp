#include "osnt/graph/topology.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "osnt/common/cli.hpp"
#include "osnt/common/json.hpp"
#include "osnt/common/random.hpp"
#include "osnt/core/device.hpp"
#include "osnt/fault/injector.hpp"
#include "osnt/gen/template_gen.hpp"
#include "osnt/hw/port.hpp"
#include "osnt/tcp/segment.hpp"

namespace osnt::graph {
namespace {

using Json = json::Value;
using Type = json::Value::Type;

[[noreturn]] void fail(const std::string& why) {
  throw TopologyError("topology: " + why);
}

/// The semantic workload checks behind validate_workload(). The loader
/// runs them too, so a file's error carries its stanza's position.
/// `bad(why)` must throw.
template <class Bad>
void check_workload(const WorkloadSpec& w, const Bad& bad) {
  if (w.kind == WorkloadSpec::Kind::kTcp) {
    static const std::vector<std::string> kCc = {"newreno", "cubic", "bbr"};
    if (std::find(kCc.begin(), kCc.end(), w.cc) == kCc.end()) {
      const std::string hint = suggest_nearest(w.cc, kCc);
      bad("unknown cc '" + w.cc + "' (" +
          (hint.empty() ? "known: newreno cubic bbr"
                        : "did you mean '" + hint + "'?") +
          ")");
    }
    if (w.mss == 0) bad("'mss' must be positive");
    if (w.mss > tcp::kMaxMss) {
      bad("'mss' must be at most " + std::to_string(tcp::kMaxMss) + " (a " +
          std::to_string(net::kEthMaxFrame) + " B frame less " +
          std::to_string(net::kEthFcsLen) + " B FCS and " +
          std::to_string(tcp::kSegmentHeaderLen) + " B of headers), got " +
          std::to_string(w.mss));
    }
    if (w.bottleneck_gbps < 0) bad("'bottleneck_gbps' must not be negative");
  } else if (w.kind == WorkloadSpec::Kind::kCbr) {
    if (!(w.rate_gbps > 0)) bad("'rate_gbps' must be positive");
    if (w.frame_size < net::kEthMinFrame ||
        w.frame_size > net::kEthMaxFrame) {
      bad("'frame_size' must be in [64, 1518], got " +
          std::to_string(w.frame_size));
    }
  }
}

template <class Bad>
void check_pattern(const burst::PatternConfig& p, const Bad& bad) {
  try {
    p.validate();
  } catch (const burst::BurstError& e) {
    bad(e.what());
  }
}

/// "block" or "block:port"; the port is range-checked as it is read.
Endpoint parse_endpoint(const json::Reader& r, const Json& v) {
  const std::string& s = v.string;
  const auto colon = s.find(':');
  Endpoint ep{s.substr(0, colon)};
  if (colon != std::string::npos) {
    const char* first = s.data() + colon + 1;
    const char* last = s.data() + s.size();
    const auto [end, ec] = std::from_chars(first, last, ep.port);
    if (first == last || ec != std::errc() || end != last) {
      r.fail("bad port in endpoint '" + s + "'", v);
    }
  }
  if (ep.block.empty()) r.fail("empty block name in endpoint", v);
  return ep;
}

/// A burst_source block's pattern. The allowed keys are per pattern, so
/// a strobe block with an `alpha` key fails like any other unknown key.
burst::PatternConfig parse_burst_pattern(const json::Reader& r) {
  burst::PatternConfig cfg;
  cfg.pattern = static_cast<burst::Pattern>(
      r.need_choice("pattern", burst::known_patterns(), "burst pattern"));
  switch (cfg.pattern) {
    case burst::Pattern::kOnOff:
      r.allow({"name", "type", "pattern", "rate_gbps", "frame_size", "flows",
               "l4", "duty"},
              {"period"});
      break;
    case burst::Pattern::kStrobe:
      r.allow({"name", "type", "pattern", "rate_gbps", "frame_size", "flows",
               "l4", "pulse_frames"},
              {"period"});
      break;
    case burst::Pattern::kHeavyTail:
      r.allow({"name", "type", "pattern", "rate_gbps", "frame_size", "flows",
               "l4", "alpha"},
              {"mean_on", "mean_off"});
      break;
    case burst::Pattern::kAmplification:
      r.allow({"name", "type", "pattern", "rate_gbps", "frame_size", "flows",
               "l4", "duty", "attackers", "request_size", "amp_factor"},
              {"period"});
      break;
  }
  cfg.rate_gbps = r.number("rate_gbps", cfg.rate_gbps);
  cfg.frame_size = r.count("frame_size", cfg.frame_size);
  cfg.flows = r.count("flows", cfg.flows);
  cfg.l4 = r.choice("l4", {"udp", "tcp_syn"}) == 0 ? burst::L4::kUdp
                                                   : burst::L4::kTcpSyn;
  cfg.period = r.time("period", cfg.period);
  cfg.duty = r.number("duty", cfg.duty);
  cfg.pulse_frames = r.count("pulse_frames", cfg.pulse_frames);
  cfg.alpha = r.number("alpha", cfg.alpha);
  cfg.mean_on = r.time("mean_on", cfg.mean_on);
  cfg.mean_off = r.time("mean_off", cfg.mean_off);
  cfg.attackers = r.count("attackers", cfg.attackers);
  cfg.request_size = r.count("request_size", cfg.request_size);
  cfg.amp_factor = r.number("amp_factor", cfg.amp_factor);
  return cfg;
}

BlockSpec parse_block(const Json& b, std::size_t i) {
  char who[48];
  std::snprintf(who, sizeof who, "topology: blocks[%zu]", i);
  const json::Reader head{b, who};
  BlockSpec spec;
  spec.name = head.need("name", Type::kString).string;
  if (spec.name.empty()) head.fail("'name' must not be empty");
  const auto& types = TopologyFile::known_types();
  spec.type = types[head.need_choice("type", types, "block type")];
  const std::string named = std::string(who) + " ('" + spec.name + "')";
  const json::Reader r{b, named};

  if (spec.type == "fifo_queue") {
    r.allow({"name", "type", "rate_gbps", "queue_frames"});
    spec.fifo.rate_gbps = r.number("rate_gbps", spec.fifo.rate_gbps);
    spec.fifo.queue_frames = r.count("queue_frames", spec.fifo.queue_frames);
  } else if (spec.type == "red") {
    r.allow({"name", "type", "rate_gbps", "queue_frames", "min_th", "max_th",
             "max_p", "weight"});
    spec.red.rate_gbps = r.number("rate_gbps", spec.red.rate_gbps);
    spec.red.queue_frames = r.count("queue_frames", spec.red.queue_frames);
    spec.red.min_th = r.number("min_th", spec.red.min_th);
    spec.red.max_th = r.number("max_th", spec.red.max_th);
    spec.red.max_p = r.number("max_p", spec.red.max_p);
    spec.red.weight = r.number("weight", spec.red.weight);
  } else if (spec.type == "token_bucket") {
    r.allow({"name", "type", "rate_gbps", "burst_bytes", "shape",
             "queue_frames"});
    auto& c = spec.token_bucket;
    c.rate_gbps = r.number("rate_gbps", c.rate_gbps);
    c.burst_bytes = r.count("burst_bytes", c.burst_bytes);
    c.shape = r.boolean("shape", c.shape);
    c.queue_frames = r.count("queue_frames", c.queue_frames);
  } else if (spec.type == "delay_ber") {
    r.allow({"name", "type", "ber"}, {"delay"});
    spec.delay_ber.delay = r.time("delay", 0);
    spec.delay_ber.ber = r.number("ber", 0.0);
  } else if (spec.type == "ecmp") {
    r.allow({"name", "type", "fanout", "salt"});
    spec.ecmp.fanout = r.count("fanout", spec.ecmp.fanout);
    spec.ecmp.salt = r.count("salt", 0);
    spec.num_outputs = spec.ecmp.fanout;
  } else if (spec.type == "sink") {
    r.allow({"name", "type"});
    spec.num_outputs = 0;
  } else if (spec.type == "monitor") {
    r.allow({"name", "type", "rtt_probe"});
    spec.monitor.rtt_probe = r.boolean("rtt_probe", spec.monitor.rtt_probe);
  } else if (spec.type == "burst_source") {
    spec.burst.pattern = parse_burst_pattern(r);
    check_pattern(spec.burst.pattern,
                  [&r](const std::string& why) { r.fail(why); });
    spec.num_inputs = 0;
  } else if (spec.type == "legacy_switch") {
    r.allow({"name", "type", "num_ports", "queue_bytes", "flood_unknown",
             "lookup_rate_mpps", "cut_through"},
            {"pipeline_latency"});
    auto& c = spec.legacy_switch;
    c.num_ports = r.count("num_ports", c.num_ports);
    c.queue_bytes = r.count("queue_bytes", c.queue_bytes);
    c.flood_unknown = r.boolean("flood_unknown", c.flood_unknown);
    c.lookup_rate_mpps = r.number("lookup_rate_mpps", c.lookup_rate_mpps);
    c.cut_through = r.boolean("cut_through", c.cut_through);
    c.pipeline_latency = r.time("pipeline_latency", c.pipeline_latency);
    if (c.num_ports == 0) r.fail("num_ports must be positive");
    spec.num_inputs = spec.num_outputs = c.num_ports;
  } else {  // openflow_switch
    r.allow({"name", "type", "num_ports", "table_size"});
    auto& c = spec.openflow_switch.sw;
    c.num_ports = r.count("num_ports", c.num_ports);
    c.table.max_entries = r.count("table_size", c.table.max_entries);
    if (c.num_ports == 0) r.fail("num_ports must be positive");
    spec.num_inputs = spec.num_outputs = c.num_ports;
  }
  return spec;
}

WorkloadSpec parse_workload(const Json& w) {
  const json::Reader r{w, "topology: workload"};
  WorkloadSpec spec;
  // The names in Kind's order.
  spec.kind = static_cast<WorkloadSpec::Kind>(
      r.need_choice("kind", {"none", "tcp", "cbr"}));
  if (spec.kind == WorkloadSpec::Kind::kNone) {
    r.allow({"kind"});
    return spec;
  }
  if (spec.kind == WorkloadSpec::Kind::kTcp) {
    r.allow({"kind", "ingress", "egress", "ack_ingress", "ack_egress", "flows",
             "cc", "mss", "bottleneck_gbps", "queue_segments", "rwnd_kb",
             "rate_limit_detector"});
    spec.flows = r.count("flows", spec.flows);
    spec.cc = r.string("cc", spec.cc);
    spec.mss = static_cast<std::uint32_t>(
        r.count("mss", spec.mss, std::numeric_limits<std::uint32_t>::max()));
    spec.bottleneck_gbps = r.number("bottleneck_gbps", spec.bottleneck_gbps);
    spec.queue_segments = r.count("queue_segments", spec.queue_segments);
    spec.rwnd_kb = r.count("rwnd_kb", spec.rwnd_kb);
    spec.rate_limit_detector =
        r.boolean("rate_limit_detector", spec.rate_limit_detector);
    if (spec.flows == 0) r.fail("'flows' must be positive");
  } else {
    r.allow({"kind", "ingress", "egress", "rate_gbps", "frame_size", "flows",
             "arrivals"});
    spec.rate_gbps = r.number("rate_gbps", spec.rate_gbps);
    spec.arrivals = r.choice("arrivals", {"cbr", "poisson"}) == 0
                        ? core::TrafficSpec::Arrivals::kCbr
                        : core::TrafficSpec::Arrivals::kPoisson;
    spec.frame_size = r.count("frame_size", spec.frame_size);
    const std::uint64_t flows = r.count("flows", spec.flow_count);
    const std::uint32_t max_flows = gen::TemplateConfig{}.max_flows();
    if (flows < 1 || flows > max_flows) {
      r.fail("'flows' must be in [1, " + std::to_string(max_flows) +
                 "], got " + std::to_string(flows),
             *w.find("flows"));
    }
    spec.flow_count = static_cast<std::uint32_t>(flows);
  }
  spec.ingress = parse_endpoint(r, r.need("ingress", Type::kString));
  spec.egress = parse_endpoint(r, r.need("egress", Type::kString));
  if (const Json* v = r.get("ack_ingress", Type::kString)) {
    spec.ack_ingress = parse_endpoint(r, *v);
  }
  if (const Json* v = r.get("ack_egress", Type::kString)) {
    spec.ack_egress = parse_endpoint(r, *v);
  }
  if (spec.ack_ingress.has_value() != spec.ack_egress.has_value()) {
    r.fail("ack_ingress and ack_egress must be given together");
  }
  check_workload(spec, [&r](const std::string& why) { r.fail(why); });
  return spec;
}

/// Structural validation: every referenced endpoint exists, input ports
/// are in range, and every output port is claimed at most once.
void validate(const TopologyFile& t) {
  std::unordered_map<std::string, const BlockSpec*> by_name;
  for (const auto& b : t.blocks) {
    if (!by_name.emplace(b.name, &b).second) {
      fail("duplicate block name '" + b.name + "'");
    }
  }
  const auto resolve = [&](const Endpoint& ep,
                           const std::string& who) -> const BlockSpec& {
    const auto it = by_name.find(ep.block);
    if (it == by_name.end()) {
      std::string msg = who + ": unknown block '" + ep.block + "'";
      std::vector<std::string> names;
      names.reserve(t.blocks.size());
      for (const auto& b : t.blocks) names.push_back(b.name);
      const std::string hint = suggest_nearest(ep.block, names);
      if (!hint.empty()) msg += " (did you mean '" + hint + "'?)";
      fail(msg);
    }
    return *it->second;
  };
  const auto check_out = [&](const Endpoint& ep, const std::string& who) {
    const BlockSpec& b = resolve(ep, who);
    if (ep.port >= b.num_outputs) {
      fail(who + ": block '" + b.name + "' has no output port " +
           std::to_string(ep.port) + " (outputs: " +
           std::to_string(b.num_outputs) + ")");
    }
  };
  const auto check_in = [&](const Endpoint& ep, const std::string& who) {
    const BlockSpec& b = resolve(ep, who);
    if (ep.port >= b.num_inputs) {
      fail(who + ": block '" + b.name + "' has no input port " +
           std::to_string(ep.port) + " (inputs: " +
           std::to_string(b.num_inputs) + ")");
    }
  };

  std::unordered_set<std::string> claimed;
  const auto claim = [&](const Endpoint& ep, const std::string& who) {
    check_out(ep, who);
    const std::string key = ep.block + ":" + std::to_string(ep.port);
    if (!claimed.insert(key).second) {
      fail(who + ": output '" + key + "' is already wired");
    }
  };

  for (std::size_t i = 0; i < t.edges.size(); ++i) {
    const std::string who = "edges[" + std::to_string(i) + "]";
    claim(t.edges[i].from, who);
    check_in(t.edges[i].to, who);
  }
  if (t.workload.kind != WorkloadSpec::Kind::kNone) {
    check_in(t.workload.ingress, "workload.ingress");
    claim(t.workload.egress, "workload.egress");
    if (t.workload.ack_ingress) {
      check_in(*t.workload.ack_ingress, "workload.ack_ingress");
      claim(*t.workload.ack_egress, "workload.ack_egress");
    }
  }
}

/// Cable the device into the graph for a tcp or cbr workload: TX port 0
/// → `ingress`, `egress` → RX port 1, and the reverse direction through
/// the ACK path's blocks or a direct cable. A topology with no blocks is
/// a back-to-back cable between ports 0 and 1.
void cable_device(core::OsntDevice& dev, Graph& g, const TopologyFile& topo) {
  const WorkloadSpec& w = topo.workload;
  if (topo.blocks.empty()) {
    hw::connect(dev.port(0), dev.port(1));
    return;
  }
  dev.port(0).out_link().connect(g.input(w.ingress.block, w.ingress.port));
  g.connect_output(w.egress.block, w.egress.port, dev.port(1).rx());
  if (w.ack_ingress) {
    dev.port(1).out_link().connect(
        g.input(w.ack_ingress->block, w.ack_ingress->port));
    g.connect_output(w.ack_egress->block, w.ack_egress->port,
                     dev.port(0).rx());
  } else {
    dev.port(1).out_link().connect(dev.port(0).rx());
  }
}

}  // namespace

const std::vector<std::string>& TopologyFile::known_types() {
  static const std::vector<std::string> kTypes = {
      "fifo_queue",    "red",  "token_bucket", "delay_ber", "ecmp",
      "sink",          "monitor", "legacy_switch", "openflow_switch",
      "burst_source"};
  return kTypes;
}

TopologyFile TopologyFile::from_json(const std::string& text) {
  TopologyFile t;
  try {
    const Json root = json::parse(text, "topology JSON");
    const json::Reader r{root, "topology"};
    r.allow({"name", "seed", "blocks", "edges", "workload"}, {"duration"});
    t.name = r.string("name", "");
    t.seed = r.count("seed", t.seed);
    t.duration = r.time("duration", t.duration);

    const Json& blocks = r.need("blocks", Type::kArray);
    if (blocks.array.empty()) r.fail("'blocks' must not be empty", blocks);
    for (std::size_t i = 0; i < blocks.array.size(); ++i) {
      t.blocks.push_back(parse_block(blocks.array[i], i));
    }
    if (const Json* edges = r.get("edges", Type::kArray)) {
      for (std::size_t i = 0; i < edges->array.size(); ++i) {
        char who[48];
        std::snprintf(who, sizeof who, "topology: edges[%zu]", i);
        const json::Reader e{edges->array[i], who};
        e.allow({"from", "to"}, {"propagation"});
        t.edges.push_back({parse_endpoint(e, e.need("from", Type::kString)),
                           parse_endpoint(e, e.need("to", Type::kString)),
                           e.time("propagation", 0)});
      }
    }
    if (const Json* w = root.find("workload")) t.workload = parse_workload(*w);
  } catch (const json::ParseError& e) {
    throw TopologyError(e.what());
  }
  validate(t);
  return t;
}

TopologyFile TopologyFile::load(const std::string& path) {
  try {
    return from_json(json::read_file(path, "topology"));
  } catch (const json::ParseError& e) {
    throw TopologyError(e.what());
  }
}

void TopologyFile::build(sim::Engine& eng, Graph& g, std::uint64_t trial_seed,
                         Picos horizon) const {
  if (horizon <= 0) horizon = duration;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const BlockSpec& b = blocks[i];
    // Stream tag 0x109 ("toPO"-ish) + ordinal: decorrelated from the
    // workload's flow substreams, stable across runs of the same file.
    const std::uint64_t block_seed = derive_seed(trial_seed, 0x1090 + i);
    if (b.type == "fifo_queue") {
      g.emplace<FifoQueueBlock>(eng, b.name, b.fifo);
    } else if (b.type == "red") {
      RedConfig cfg = b.red;
      cfg.seed = block_seed;
      g.emplace<RedBlock>(eng, b.name, cfg);
    } else if (b.type == "token_bucket") {
      g.emplace<TokenBucketBlock>(eng, b.name, b.token_bucket);
    } else if (b.type == "delay_ber") {
      DelayBerConfig cfg = b.delay_ber;
      cfg.seed = block_seed;
      g.emplace<DelayBerBlock>(eng, b.name, cfg);
    } else if (b.type == "ecmp") {
      g.emplace<EcmpBlock>(eng, b.name, b.ecmp);
    } else if (b.type == "sink") {
      g.emplace<SinkBlock>(eng, b.name);
    } else if (b.type == "monitor") {
      g.emplace<MonitorBlock>(eng, b.name, b.monitor);
    } else if (b.type == "legacy_switch") {
      dut::LegacySwitchConfig cfg = b.legacy_switch;
      cfg.seed = block_seed;
      g.emplace<LegacySwitchBlock>(eng, b.name, cfg);
    } else if (b.type == "openflow_switch") {
      OpenFlowSwitchBlockConfig cfg = b.openflow_switch;
      cfg.sw.seed = block_seed;
      g.emplace<OpenFlowSwitchBlock>(eng, b.name, cfg);
    } else if (b.type == "burst_source") {
      burst::BurstSourceConfig cfg = b.burst;
      cfg.pattern.seed = block_seed;
      if (cfg.horizon <= 0) cfg.horizon = horizon;
      g.emplace<burst::BurstSourceBlock>(eng, b.name, cfg);
    } else {
      fail("unknown block type '" + b.type + "'");  // unreachable post-parse
    }
  }
  for (const auto& e : edges) {
    g.connect(e.from.block, e.from.port, e.to.block, e.to.port,
              e.propagation);
  }
}

void validate_fault_targets(const TopologyFile& topo,
                            const fault::FaultPlan& plan) {
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const fault::FaultEvent& ev = plan.events[i];
    if (ev.kind != fault::FaultKind::kRateLimit &&
        ev.kind != fault::FaultKind::kQueueCap) {
      continue;
    }
    const bool rate = ev.kind == fault::FaultKind::kRateLimit;
    const auto eligible = [rate](const BlockSpec& b) {
      if (b.type == "token_bucket") return true;
      return !rate && (b.type == "fifo_queue" || b.type == "red");
    };
    const BlockSpec* found = nullptr;
    std::vector<std::string> names;
    for (const auto& b : topo.blocks) {
      if (!eligible(b)) continue;
      names.push_back(b.name);
      if (b.name == ev.target) found = &b;
    }
    if (found) continue;
    const std::string who =
        std::string(fault_kind_name(ev.kind)) + " event " + std::to_string(i);
    // Distinguish "no such block" from "block of the wrong type" — the
    // second is the likelier authoring mistake and deserves a plain answer.
    for (const auto& b : topo.blocks) {
      if (b.name == ev.target) {
        fail("fault plan: " + who + " targets block '" + ev.target +
             "' of type '" + b.type + "', which " +
             (rate ? "is not a token_bucket"
                   : "has no queue to cap (need fifo_queue, red, or "
                     "token_bucket)"));
      }
    }
    std::string msg =
        "fault plan: " + who + " targets unknown block '" + ev.target + "'";
    const std::string hint = suggest_nearest(ev.target, names);
    if (!hint.empty()) msg += " (did you mean '" + hint + "'?)";
    fail(msg);
  }
}

void validate_workload(const TopologyFile& topo) {
  check_workload(topo.workload,
                 [](const std::string& why) { fail("workload: " + why); });
  for (const auto& b : topo.blocks) {
    if (b.type != "burst_source") continue;
    check_pattern(b.burst.pattern, [&b](const std::string& why) {
      fail("block '" + b.name + "': " + why);
    });
  }
}

TopologyFile dut_topology(const std::string& name) {
  static const std::vector<std::string> kDuts = {"none", "legacy", "lossy"};
  if (std::find(kDuts.begin(), kDuts.end(), name) == kDuts.end()) {
    const std::string hint = suggest_nearest(name, kDuts);
    throw TopologyError("unknown DUT '" + name + "' (" +
                        (hint.empty() ? "none|legacy|lossy"
                                      : "did you mean '" + hint + "'?") +
                        ")");
  }
  TopologyFile t;
  WorkloadSpec& w = t.workload;
  w.kind = WorkloadSpec::Kind::kCbr;
  if (name == "none") return t;
  BlockSpec& b = t.blocks.emplace_back();
  b.name = "dut";
  b.type = "legacy_switch";
  b.legacy_switch.num_ports = b.num_inputs = b.num_outputs = 2;
  if (name == "lossy") b.legacy_switch.lookup_rate_mpps = 2.0;
  w.ingress = {"dut", 0};
  w.egress = {"dut", 1};
  w.ack_ingress = Endpoint{"dut", 1};
  w.ack_egress = Endpoint{"dut", 0};
  return t;
}

TopologyTrialReport run_topology_trial(const TopologyFile& topo,
                                       std::uint64_t trial_seed,
                                       Picos duration,
                                       const fault::FaultPlan* plan,
                                       telemetry::TraceRecorder* trace,
                                       Picos series_interval,
                                       bool handler_timing) {
  if (duration == 0) duration = topo.duration;
  TopologyTrialReport report;

  sim::Engine eng;
  if (trace) eng.set_trace(trace);
  eng.set_handler_timing(handler_timing);
  core::OsntDevice dev{eng};
  Graph g{eng};
  topo.build(eng, g, trial_seed, duration);

  const WorkloadSpec& w = topo.workload;

  std::optional<fault::Injector> injector;
  const auto arm_faults = [&] {
    if (plan && !plan->events.empty()) {
      injector.emplace(eng, *plan);
      injector->attach_device(dev);
      injector->attach_graph(g);
      injector->arm();
    }
  };

  // Sim-time sampler: per-block intrinsic channels plus each monitor's
  // in-plane RTT histogram. Workload channels join below, before start.
  std::optional<telemetry::TimeSeries> series;
  if (series_interval > 0) {
    series.emplace(series_interval);
    for (std::size_t i = 0; i < g.num_blocks(); ++i) {
      const Block* b = &g.block(i);
      const std::string prefix = "graph." + b->name() + ".";
      series->add_counter(prefix + "frames_in",
                          [b] { return b->frames_in(); });
      series->add_counter(prefix + "frames_out",
                          [b] { return b->frames_out(); });
      series->add_counter(prefix + "drops", [b] { return b->drops(); });
      series->add_counter(prefix + "frame_bytes",
                          [b] { return b->bytes_in(); });
      if (const auto* mb = dynamic_cast<const MonitorBlock*>(b)) {
        series->add_histogram(prefix + "rtt.ns",
                              [mb] { return mb->rtt_probe().merged(); });
      }
    }
    series->attach(eng, duration);
  }
  const auto finish_series = [&] {
    if (!series) return;
    series->finish();
    report.series = series->take();
    series.reset();
  };

  if (w.kind == WorkloadSpec::Kind::kTcp) {
    cable_device(dev, g, topo);
    tcp::WorkloadConfig cfg;
    cfg.flows = w.flows;
    cfg.cc = w.cc;
    cfg.mss = w.mss;
    cfg.bottleneck_gbps = w.bottleneck_gbps;
    cfg.queue_segments = w.queue_segments;
    cfg.rwnd_bytes = w.rwnd_kb * 1024;
    cfg.rate_limit_detector = w.rate_limit_detector;
    cfg.seed = trial_seed;
    tcp::ClosedLoopWorkload workload{eng, dev, cfg};
    if (series) {
      series->add_counter("tcp.bytes_acked",
                          [&workload] { return workload.total_bytes_acked(); });
      series->add_counter("tcp.acks_sent",
                          [&workload] { return workload.total_acks_sent(); });
      series->add_counter("tcp.retransmits",
                          [&workload] { return workload.total_retransmits(); });
      series->add_counter("tcp.queue_drops",
                          [&workload] { return workload.source().drops(); });
      series->add_histogram("tcp.rtt.ns", [&workload] {
        return workload.rtt_probe().merged();
      });
    }
    arm_faults();
    g.start();
    workload.start();
    eng.run_until(duration);
    report.tcp = workload.report(duration);
    finish_series();  // before the workload (and its channels) go away
  } else if (w.kind == WorkloadSpec::Kind::kCbr) {
    cable_device(dev, g, topo);
    if (series) {
      const mon::RxPipeline* rx = &dev.rx(1);
      series->add_counter("mon.rx.frames_seen", [rx] { return rx->seen(); });
      series->add_counter("mon.rx.captured", [rx] { return rx->captured(); });
      series->add_counter("mon.rx.dma_drops",
                          [rx] { return rx->dma_drops(); });
      series->add_histogram("mon.rx.rtt.ns",
                            [rx] { return rx->rtt_probe().merged(); });
    }
    arm_faults();
    g.start();
    core::TrafficSpec spec;
    spec.rate = gen::RateSpec::gbps(w.rate_gbps);
    spec.frame_size = w.frame_size;
    spec.flow_count = w.flow_count;
    spec.arrivals = w.arrivals;
    spec.seed = trial_seed;
    report.cbr = core::run_capture_test(eng, dev, 0, 1, spec, duration);
    finish_series();
  } else {
    arm_faults();
    g.start();
    eng.run_until(duration);
    finish_series();
  }

  report.blocks.reserve(g.num_blocks());
  for (std::size_t i = 0; i < g.num_blocks(); ++i) {
    const Block& b = g.block(i);
    BlockCounters bc;
    bc.name = b.name();
    bc.frames_in = b.frames_in();
    bc.frames_out = b.frames_out();
    bc.drops = b.drops();
    bc.frame_bytes = b.bytes_in();
    if (const auto* mb = dynamic_cast<const MonitorBlock*>(&b)) {
      const telemetry::Log2Histogram h = mb->rtt_probe().merged();
      bc.rtt_samples = h.count();
      if (h.count() > 0) {
        bc.rtt_p50_ns = h.quantile(0.5);
        bc.rtt_p90_ns = h.quantile(0.9);
        bc.rtt_p99_ns = h.quantile(0.99);
      }
    }
    report.blocks.push_back(std::move(bc));
  }
  report.graph_frames_in = g.total_frames_in();
  report.graph_drops = g.total_drops();
  return report;
}

}  // namespace osnt::graph
