#include "osnt/graph/topology.hpp"

#include <algorithm>
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

[[noreturn]] void fail(const std::string& why, const Json* at = nullptr) {
  std::string msg = "topology: " + why;
  if (at && at->line > 0) msg += " (" + at->where() + ")";
  throw TopologyError(msg);
}

std::string type_name(Json::Type t) {
  switch (t) {
    case Json::Type::kNull: return "null";
    case Json::Type::kBool: return "bool";
    case Json::Type::kNumber: return "number";
    case Json::Type::kString: return "string";
    case Json::Type::kArray: return "array";
    case Json::Type::kObject: return "object";
  }
  return "?";
}

const Json& need(const Json& obj, const std::string& key, Json::Type t,
                 const std::string& who) {
  const Json* v = obj.find(key);
  if (!v) fail(who + ": missing required key '" + key + "'", &obj);
  if (!v->is(t)) {
    fail(who + ": '" + key + "' must be a " + type_name(t) + ", got " +
             type_name(v->type),
         v);
  }
  return *v;
}

double number_or(const Json& obj, const std::string& key, double fallback,
                 const std::string& who) {
  const Json* v = obj.find(key);
  if (!v) return fallback;
  if (!v->is(Json::Type::kNumber)) {
    fail(who + ": '" + key + "' must be a number", v);
  }
  return v->number;
}

std::size_t count_or(const Json& obj, const std::string& key,
                     std::size_t fallback, const std::string& who) {
  const double d = number_or(obj, key, static_cast<double>(fallback), who);
  if (d < 0 || d != static_cast<double>(static_cast<std::uint64_t>(d))) {
    fail(who + ": '" + key + "' must be a non-negative integer",
         obj.find(key));
  }
  return static_cast<std::size_t>(d);
}

bool bool_or(const Json& obj, const std::string& key, bool fallback,
             const std::string& who) {
  const Json* v = obj.find(key);
  if (!v) return fallback;
  if (!v->is(Json::Type::kBool)) fail(who + ": '" + key + "' must be a bool", v);
  return v->boolean;
}

std::string string_or(const Json& obj, const std::string& key,
                      const std::string& fallback, const std::string& who) {
  const Json* v = obj.find(key);
  if (!v) return fallback;
  if (!v->is(Json::Type::kString)) {
    fail(who + ": '" + key + "' must be a string", v);
  }
  return v->string;
}

/// `<base>_ns` / `<base>_us` / `<base>_ms`, at most one unit (the same
/// convention as fault plans). Returns `fallback` when absent.
Picos time_or(const Json& obj, const std::string& base, Picos fallback,
              const std::string& who) {
  static constexpr struct {
    const char* suffix;
    double to_ps;
  } kUnits[] = {{"_ns", 1e3}, {"_us", 1e6}, {"_ms", 1e9}};
  const Json* found = nullptr;
  double scale = 0.0;
  for (const auto& u : kUnits) {
    if (const Json* v = obj.find(base + u.suffix)) {
      if (found) fail(who + ": '" + base + "' given in more than one unit", v);
      found = v;
      scale = u.to_ps;
    }
  }
  if (!found) return fallback;
  if (!found->is(Json::Type::kNumber)) {
    fail(who + ": '" + base + "' must be a number", found);
  }
  const double ps = found->number * scale;
  if (ps < 0 || ps > 9.2e18) fail(who + ": '" + base + "' out of range", found);
  return static_cast<Picos>(ps);
}

/// Every key in `obj` must be allowed; anything else is a hard error
/// with a did-you-mean when the typo is close.
void check_keys(const Json& obj, const std::vector<std::string>& allowed,
                const std::string& who) {
  for (const auto& [k, v] : obj.object) {
    if (std::find(allowed.begin(), allowed.end(), k) != allowed.end()) {
      continue;
    }
    std::string msg = who + ": unknown key '" + k + "'";
    const std::string hint = suggest_nearest(k, allowed);
    if (!hint.empty()) msg += " (did you mean '" + hint + "'?)";
    fail(msg, &v);
  }
}

std::vector<std::string> with_time_units(std::vector<std::string> keys,
                                         std::initializer_list<const char*>
                                             bases) {
  for (const char* base : bases) {
    for (const char* suffix : {"_ns", "_us", "_ms"}) {
      keys.push_back(std::string(base) + suffix);
    }
  }
  return keys;
}

/// Pattern fields shared by burst_source blocks and the burst workload
/// stanza. `extra` carries the caller's structural keys ("name"/"type" or
/// "kind"/"ingress"/...); the allowed set is per-pattern, so a strobe
/// stanza with an `alpha` key fails like any other unknown key.
burst::PatternConfig parse_burst_pattern(const Json& obj,
                                         std::vector<std::string> extra,
                                         const std::string& who) {
  burst::PatternConfig cfg;
  const std::string pname =
      need(obj, "pattern", Json::Type::kString, who).string;
  const auto& names = burst::known_patterns();
  if (std::find(names.begin(), names.end(), pname) == names.end()) {
    std::string msg = who + ": unknown burst pattern '" + pname + "'";
    const std::string hint = suggest_nearest(pname, names);
    if (!hint.empty()) msg += " (did you mean '" + hint + "'?)";
    fail(msg, obj.find("pattern"));
  }
  cfg.pattern = burst::pattern_from_name(pname);

  std::vector<std::string> keys = std::move(extra);
  for (const char* k : {"pattern", "rate_gbps", "frame_size", "flows", "l4"}) {
    keys.emplace_back(k);
  }
  switch (cfg.pattern) {
    case burst::Pattern::kOnOff:
      keys = with_time_units(std::move(keys), {"period"});
      keys.emplace_back("duty");
      break;
    case burst::Pattern::kStrobe:
      keys = with_time_units(std::move(keys), {"period"});
      keys.emplace_back("pulse_frames");
      break;
    case burst::Pattern::kHeavyTail:
      keys = with_time_units(std::move(keys), {"mean_on", "mean_off"});
      keys.emplace_back("alpha");
      break;
    case burst::Pattern::kAmplification:
      keys = with_time_units(std::move(keys), {"period"});
      for (const char* k : {"duty", "attackers", "request_size", "amp_factor"}) {
        keys.emplace_back(k);
      }
      break;
  }
  check_keys(obj, keys, who);

  cfg.rate_gbps = number_or(obj, "rate_gbps", cfg.rate_gbps, who);
  cfg.frame_size = count_or(obj, "frame_size", cfg.frame_size, who);
  cfg.flows = count_or(obj, "flows", cfg.flows, who);
  const std::string l4 = string_or(obj, "l4", "udp", who);
  if (l4 == "udp") {
    cfg.l4 = burst::L4::kUdp;
  } else if (l4 == "tcp_syn") {
    cfg.l4 = burst::L4::kTcpSyn;
  } else {
    const std::vector<std::string> kinds = {"udp", "tcp_syn"};
    std::string msg = who + ": unknown l4 '" + l4 + "'";
    const std::string hint = suggest_nearest(l4, kinds);
    if (!hint.empty()) msg += " (did you mean '" + hint + "'?)";
    fail(msg, obj.find("l4"));
  }
  cfg.period = time_or(obj, "period", cfg.period, who);
  cfg.duty = number_or(obj, "duty", cfg.duty, who);
  cfg.pulse_frames = count_or(obj, "pulse_frames", cfg.pulse_frames, who);
  cfg.alpha = number_or(obj, "alpha", cfg.alpha, who);
  cfg.mean_on = time_or(obj, "mean_on", cfg.mean_on, who);
  cfg.mean_off = time_or(obj, "mean_off", cfg.mean_off, who);
  cfg.attackers = count_or(obj, "attackers", cfg.attackers, who);
  cfg.request_size = count_or(obj, "request_size", cfg.request_size, who);
  cfg.amp_factor = number_or(obj, "amp_factor", cfg.amp_factor, who);
  return cfg;
}

Endpoint parse_endpoint(const Json& v, const std::string& who) {
  if (!v.is(Json::Type::kString)) {
    fail(who + ": endpoint must be a \"block\" or \"block:port\" string", &v);
  }
  Endpoint ep;
  const std::string& s = v.string;
  const auto colon = s.find(':');
  if (colon == std::string::npos) {
    ep.block = s;
    return ep;
  }
  ep.block = s.substr(0, colon);
  const std::string port = s.substr(colon + 1);
  if (port.empty() ||
      port.find_first_not_of("0123456789") != std::string::npos) {
    fail(who + ": bad port in endpoint '" + s + "'", &v);
  }
  ep.port = static_cast<std::size_t>(std::stoul(port));
  if (ep.block.empty()) fail(who + ": empty block name in endpoint", &v);
  return ep;
}

BlockSpec parse_block(const Json& b, std::size_t i) {
  const std::string who = "blocks[" + std::to_string(i) + "]";
  if (!b.is(Json::Type::kObject)) fail(who + ": must be an object", &b);
  BlockSpec spec;
  spec.name = need(b, "name", Json::Type::kString, who).string;
  if (spec.name.empty()) fail(who + ": 'name' must not be empty", &b);
  spec.type = need(b, "type", Json::Type::kString, who).string;
  const std::string who2 = who + " ('" + spec.name + "')";

  if (spec.type == "fifo_queue") {
    check_keys(b, {"name", "type", "rate_gbps", "queue_frames"}, who2);
    spec.fifo.rate_gbps =
        number_or(b, "rate_gbps", spec.fifo.rate_gbps, who2);
    spec.fifo.queue_frames =
        count_or(b, "queue_frames", spec.fifo.queue_frames, who2);
  } else if (spec.type == "red") {
    check_keys(b,
               {"name", "type", "rate_gbps", "queue_frames", "min_th",
                "max_th", "max_p", "weight"},
               who2);
    spec.red.rate_gbps = number_or(b, "rate_gbps", spec.red.rate_gbps, who2);
    spec.red.queue_frames =
        count_or(b, "queue_frames", spec.red.queue_frames, who2);
    spec.red.min_th = number_or(b, "min_th", spec.red.min_th, who2);
    spec.red.max_th = number_or(b, "max_th", spec.red.max_th, who2);
    spec.red.max_p = number_or(b, "max_p", spec.red.max_p, who2);
    spec.red.weight = number_or(b, "weight", spec.red.weight, who2);
  } else if (spec.type == "token_bucket") {
    check_keys(
        b, {"name", "type", "rate_gbps", "burst_bytes", "shape",
            "queue_frames"},
        who2);
    spec.token_bucket.rate_gbps =
        number_or(b, "rate_gbps", spec.token_bucket.rate_gbps, who2);
    spec.token_bucket.burst_bytes =
        count_or(b, "burst_bytes", spec.token_bucket.burst_bytes, who2);
    spec.token_bucket.shape =
        bool_or(b, "shape", spec.token_bucket.shape, who2);
    spec.token_bucket.queue_frames =
        count_or(b, "queue_frames", spec.token_bucket.queue_frames, who2);
  } else if (spec.type == "delay_ber") {
    check_keys(b, with_time_units({"name", "type", "ber"}, {"delay"}), who2);
    spec.delay_ber.delay = time_or(b, "delay", 0, who2);
    spec.delay_ber.ber = number_or(b, "ber", 0.0, who2);
  } else if (spec.type == "ecmp") {
    check_keys(b, {"name", "type", "fanout", "salt"}, who2);
    spec.ecmp.fanout = count_or(b, "fanout", spec.ecmp.fanout, who2);
    spec.ecmp.salt = count_or(b, "salt", 0, who2);
    spec.num_outputs = spec.ecmp.fanout;
  } else if (spec.type == "sink") {
    check_keys(b, {"name", "type"}, who2);
    spec.num_outputs = 0;
  } else if (spec.type == "monitor") {
    check_keys(b, {"name", "type", "rtt_probe"}, who2);
    spec.monitor.rtt_probe =
        bool_or(b, "rtt_probe", spec.monitor.rtt_probe, who2);
  } else if (spec.type == "burst_source") {
    spec.burst.pattern =
        parse_burst_pattern(b, {"name", "type", "batched"}, who2);
    spec.burst.batched = bool_or(b, "batched", spec.burst.batched, who2);
    spec.num_inputs = 0;
  } else if (spec.type == "legacy_switch") {
    check_keys(b,
               with_time_units({"name", "type", "num_ports", "queue_bytes",
                                "flood_unknown", "lookup_rate_mpps",
                                "cut_through"},
                               {"pipeline_latency"}),
               who2);
    auto& c = spec.legacy_switch;
    c.num_ports = count_or(b, "num_ports", c.num_ports, who2);
    c.queue_bytes = count_or(b, "queue_bytes", c.queue_bytes, who2);
    c.flood_unknown = bool_or(b, "flood_unknown", c.flood_unknown, who2);
    c.lookup_rate_mpps =
        number_or(b, "lookup_rate_mpps", c.lookup_rate_mpps, who2);
    c.cut_through = bool_or(b, "cut_through", c.cut_through, who2);
    c.pipeline_latency =
        time_or(b, "pipeline_latency", c.pipeline_latency, who2);
    if (c.num_ports == 0) fail(who2 + ": num_ports must be positive", &b);
    spec.num_inputs = spec.num_outputs = c.num_ports;
  } else if (spec.type == "openflow_switch") {
    check_keys(b, {"name", "type", "num_ports", "table_size"}, who2);
    auto& c = spec.openflow_switch.sw;
    c.num_ports = count_or(b, "num_ports", c.num_ports, who2);
    c.table.max_entries =
        count_or(b, "table_size", c.table.max_entries, who2);
    if (c.num_ports == 0) fail(who2 + ": num_ports must be positive", &b);
    spec.num_inputs = spec.num_outputs = c.num_ports;
  } else {
    std::string msg = who + ": unknown block type '" + spec.type + "'";
    const std::string hint =
        suggest_nearest(spec.type, TopologyFile::known_types());
    if (!hint.empty()) msg += " (did you mean '" + hint + "'?)";
    fail(msg, b.find("type"));
  }
  return spec;
}

WorkloadSpec parse_workload(const Json& w) {
  const std::string who = "workload";
  if (!w.is(Json::Type::kObject)) fail("'workload' must be an object", &w);
  WorkloadSpec spec;
  const std::string kind = need(w, "kind", Json::Type::kString, who).string;
  if (kind == "none") {
    check_keys(w, {"kind"}, who);
    return spec;
  }
  if (kind == "tcp") {
    spec.kind = WorkloadSpec::Kind::kTcp;
    check_keys(w,
               {"kind", "ingress", "egress", "ack_ingress", "ack_egress",
                "flows", "cc", "mss", "bottleneck_gbps", "queue_segments",
                "rwnd_kb", "rate_limit_detector"},
               who);
    spec.flows = count_or(w, "flows", spec.flows, who);
    spec.cc = string_or(w, "cc", spec.cc, who);
    spec.mss = static_cast<std::uint32_t>(count_or(w, "mss", spec.mss, who));
    spec.bottleneck_gbps =
        number_or(w, "bottleneck_gbps", spec.bottleneck_gbps, who);
    spec.queue_segments =
        count_or(w, "queue_segments", spec.queue_segments, who);
    spec.rwnd_kb = count_or(w, "rwnd_kb", spec.rwnd_kb, who);
    spec.rate_limit_detector =
        bool_or(w, "rate_limit_detector", spec.rate_limit_detector, who);
    if (spec.flows == 0) fail(who + ": 'flows' must be positive", &w);
  } else if (kind == "cbr") {
    spec.kind = WorkloadSpec::Kind::kCbr;
    check_keys(
        w, {"kind", "ingress", "egress", "rate_gbps", "frame_size", "flows"},
        who);
    spec.rate_gbps = number_or(w, "rate_gbps", spec.rate_gbps, who);
    spec.frame_size = count_or(w, "frame_size", spec.frame_size, who);
    const std::size_t flows = count_or(w, "flows", spec.flow_count, who);
    const std::uint32_t max_flows = gen::TemplateConfig{}.max_flows();
    if (flows < 1 || flows > max_flows) {
      fail(who + ": 'flows' must be in [1, " + std::to_string(max_flows) +
               "], got " + std::to_string(flows),
           w.find("flows"));
    }
    spec.flow_count = static_cast<std::uint32_t>(flows);
  } else if (kind == "burst") {
    spec.kind = WorkloadSpec::Kind::kBurst;
    spec.burst = parse_burst_pattern(
        w, {"kind", "ingress", "egress", "batched"}, who);
    spec.burst_batched = bool_or(w, "batched", spec.burst_batched, who);
  } else {
    const std::vector<std::string> kinds = {"none", "tcp", "cbr", "burst"};
    std::string msg = who + ": unknown kind '" + kind + "'";
    const std::string hint = suggest_nearest(kind, kinds);
    if (!hint.empty()) msg += " (did you mean '" + hint + "'?)";
    fail(msg, w.find("kind"));
  }
  spec.ingress = parse_endpoint(need(w, "ingress", Json::Type::kString, who),
                                who + ".ingress");
  spec.egress = parse_endpoint(need(w, "egress", Json::Type::kString, who),
                               who + ".egress");
  if (const Json* v = w.find("ack_ingress")) {
    spec.ack_ingress = parse_endpoint(*v, who + ".ack_ingress");
  }
  if (const Json* v = w.find("ack_egress")) {
    spec.ack_egress = parse_endpoint(*v, who + ".ack_egress");
  }
  if (spec.ack_ingress.has_value() != spec.ack_egress.has_value()) {
    fail(who + ": ack_ingress and ack_egress must be given together", &w);
  }
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
  if (t.workload.kind == WorkloadSpec::Kind::kBurst) {
    for (const char* r : {"burst_workload", "burst_sink"}) {
      if (by_name.count(r) != 0) {
        fail("block name '" + std::string(r) +
             "' is reserved for the burst workload");
      }
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
  const Json root = [&text] {
    try {
      return json::parse(text, "topology JSON");
    } catch (const json::ParseError& e) {
      throw TopologyError(e.what());
    }
  }();
  if (!root.is(Json::Type::kObject)) {
    fail("top level must be an object", &root);
  }
  check_keys(root,
             with_time_units({"name", "seed", "blocks", "edges", "workload"},
                             {"duration"}),
             "topology");

  TopologyFile t;
  t.name = string_or(root, "name", "", "topology");
  t.seed = static_cast<std::uint64_t>(
      count_or(root, "seed", static_cast<std::size_t>(t.seed), "topology"));
  t.duration = time_or(root, "duration", t.duration, "topology");

  const Json& blocks = need(root, "blocks", Json::Type::kArray, "topology");
  if (blocks.array.empty()) fail("'blocks' must not be empty", &blocks);
  for (std::size_t i = 0; i < blocks.array.size(); ++i) {
    t.blocks.push_back(parse_block(blocks.array[i], i));
  }

  if (const Json* edges = root.find("edges")) {
    if (!edges->is(Json::Type::kArray)) {
      fail("'edges' must be an array", edges);
    }
    for (std::size_t i = 0; i < edges->array.size(); ++i) {
      const Json& e = edges->array[i];
      const std::string who = "edges[" + std::to_string(i) + "]";
      if (!e.is(Json::Type::kObject)) fail(who + ": must be an object", &e);
      check_keys(e, with_time_units({"from", "to"}, {"propagation"}), who);
      EdgeSpec edge;
      edge.from = parse_endpoint(need(e, "from", Json::Type::kString, who),
                                 who + ".from");
      edge.to =
          parse_endpoint(need(e, "to", Json::Type::kString, who), who + ".to");
      edge.propagation = time_or(e, "propagation", 0, who);
      t.edges.push_back(edge);
    }
  }

  if (const Json* w = root.find("workload")) t.workload = parse_workload(*w);

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
  const WorkloadSpec& w = topo.workload;
  if (w.kind == WorkloadSpec::Kind::kTcp) {
    static const std::vector<std::string> kCc = {"newreno", "cubic", "bbr"};
    if (std::find(kCc.begin(), kCc.end(), w.cc) == kCc.end()) {
      std::string msg = "workload: unknown cc '" + w.cc + "'";
      const std::string hint = suggest_nearest(w.cc, kCc);
      if (!hint.empty()) msg += " (did you mean '" + hint + "'?)";
      fail(msg);
    }
    if (w.mss == 0) fail("workload: 'mss' must be positive");
    if (w.mss > tcp::kMaxMss) {
      fail("workload: 'mss' must be at most " + std::to_string(tcp::kMaxMss) +
           " (a " + std::to_string(net::kEthMaxFrame) + " B frame less " +
           std::to_string(net::kEthFcsLen) + " B FCS and " +
           std::to_string(tcp::kSegmentHeaderLen) + " B of headers), got " +
           std::to_string(w.mss));
    }
    if (w.bottleneck_gbps < 0) {
      fail("workload: 'bottleneck_gbps' must not be negative");
    }
  } else if (w.kind == WorkloadSpec::Kind::kCbr) {
    if (w.rate_gbps <= 0) fail("workload: 'rate_gbps' must be positive");
    if (w.frame_size < net::kEthMinFrame ||
        w.frame_size > net::kEthMaxFrame) {
      fail("workload: 'frame_size' must be in [64, 1518]");
    }
  } else if (w.kind == WorkloadSpec::Kind::kBurst) {
    try {
      w.burst.validate();
    } catch (const burst::BurstError& e) {
      fail("workload: " + std::string(e.what()));
    }
  }
  for (const auto& b : topo.blocks) {
    if (b.type != "burst_source") continue;
    try {
      b.burst.pattern.validate();
    } catch (const burst::BurstError& e) {
      fail("block '" + b.name + "': " + std::string(e.what()));
    }
  }
}

TopologyTrialReport run_topology_trial(const TopologyFile& topo,
                                       std::uint64_t trial_seed,
                                       Picos duration,
                                       const fault::FaultPlan* plan,
                                       telemetry::TraceRecorder* trace,
                                       Picos series_interval) {
  if (duration == 0) duration = topo.duration;
  TopologyTrialReport report;

  sim::Engine eng;
  if (trace) eng.set_trace(trace);
  core::OsntDevice dev{eng};
  Graph g{eng};
  topo.build(eng, g, trial_seed, duration);

  const WorkloadSpec& w = topo.workload;

  // Burst workloads are graph-native: the source and sink join the graph
  // itself (so the series loop below picks up their channels) rather than
  // riding the device ports. Names are reserved at validate() time.
  burst::BurstSourceBlock* burst_src = nullptr;
  SinkBlock* burst_sink = nullptr;
  if (w.kind == WorkloadSpec::Kind::kBurst) {
    burst::BurstSourceConfig bcfg;
    bcfg.pattern = w.burst;
    // Stream tag 0x10B0: decorrelated from the 0x1090+i block streams.
    bcfg.pattern.seed = derive_seed(trial_seed, 0x10B0);
    bcfg.batched = w.burst_batched;
    bcfg.horizon = duration;
    burst_src =
        &g.emplace<burst::BurstSourceBlock>(eng, "burst_workload", bcfg);
    burst_sink = &g.emplace<SinkBlock>(eng, "burst_sink");
    g.connect("burst_workload", 0, w.ingress.block, w.ingress.port);
    g.connect(w.egress.block, w.egress.port, "burst_sink", 0);
  }
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
    arm_faults();
    g.start();
    core::TrafficSpec spec;
    spec.rate = gen::RateSpec::gbps(w.rate_gbps);
    spec.frame_size = w.frame_size;
    spec.flow_count = w.flow_count;
    spec.seed = trial_seed;
    report.cbr = core::run_capture_test(eng, dev, 0, 1, spec, duration);
    finish_series();
  } else if (w.kind == WorkloadSpec::Kind::kBurst) {
    arm_faults();
    g.start();
    eng.run_until(duration);
    auto& r = report.burst;
    r.frames = burst_src->frames_out();
    r.bursts = burst_src->bursts_emitted();
    r.tx_bytes = burst_src->wire_bytes();
    r.rx_frames = burst_sink->frames_in();
    r.rx_bytes = burst_sink->bytes();
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
