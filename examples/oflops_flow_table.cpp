// Demo Part II: OFLOPS-turbo against an OpenFlow switch — flow-table
// modification latency via control AND data plane, plus forwarding
// consistency during a large table update.
//
// The switch here is a graph::OpenFlowSwitchBlock inside a scenario
// graph rather than a hand-cabled dut::OpenFlowSwitch: the same four
// OSNT ports attach through Graph::input()/connect_output(), and the
// block owns its control channel. Measurement modules are unchanged.
//
//   $ ./oflops_flow_table
#include <algorithm>
#include <cstdio>
#include <memory>

#include "osnt/graph/dut_blocks.hpp"
#include "osnt/graph/graph.hpp"
#include "osnt/oflops/consistency.hpp"
#include "osnt/oflops/context.hpp"
#include "osnt/oflops/echo_rtt.hpp"
#include "osnt/oflops/flowmod_latency.hpp"
#include "osnt/oflops/packet_in_latency.hpp"

using namespace osnt;

namespace {

/// The canonical four-cable topology, expressed as a scenario graph:
/// OSNT port i ↔ graph port i of one OpenFlow switch block.
struct GraphTestbed {
  sim::Engine eng;
  core::OsntDevice osnt;
  graph::Graph g;
  graph::OpenFlowSwitchBlock* sw = nullptr;
  dut::SnmpAgent snmp;
  std::unique_ptr<oflops::OflopsContext> ctx;

  explicit GraphTestbed(const dut::OpenFlowSwitchConfig& sw_cfg)
      : osnt(eng), g(eng), snmp(eng) {
    sw = &g.emplace<graph::OpenFlowSwitchBlock>(eng, "sw", sw_cfg);
    const std::size_t n = std::min(osnt.num_ports(), sw->dut().num_ports());
    for (std::size_t i = 0; i < n; ++i) {
      osnt.port(i).out_link().connect(g.input("sw", i));
      g.connect_output("sw", i, osnt.port(i).rx());
    }
    snmp.register_counter("ifInOctets.1", [this] {
      std::uint64_t total = 0;
      for (std::size_t i = 0; i < sw->dut().num_ports(); ++i)
        total += sw->dut().port(i).rx().bytes_received();
      return total;
    });
    snmp.register_counter("ifOutOctets.1", [this] {
      std::uint64_t total = 0;
      for (std::size_t i = 0; i < sw->dut().num_ports(); ++i)
        total += sw->dut().port(i).tx().bytes_sent();
      return total;
    });
    snmp.register_counter("ofFlowTableSize.0",
                          [this] { return sw->dut().table().size(); });
    ctx = std::make_unique<oflops::OflopsContext>(eng, osnt, sw->controller(),
                                                  &snmp);
    g.start();
  }
};

}  // namespace

int main() {
  std::printf("Part II demo: OpenFlow switch evaluation (OFLOPS-turbo)\n\n");

  // A production-like switch: barrier acks before hardware commit.
  dut::OpenFlowSwitchConfig sw_cfg;
  sw_cfg.commit_base = 2 * kPicosPerMilli;
  sw_cfg.commit_per_entry = 2 * kPicosPerMicro;

  {
    GraphTestbed tb{sw_cfg};
    oflops::EchoRttModule echo;
    tb.ctx->run(echo).print();
  }
  {
    GraphTestbed tb{sw_cfg};
    oflops::PacketInLatencyModule pin;
    tb.ctx->run(pin).print();
  }
  {
    GraphTestbed tb{sw_cfg};
    oflops::FlowModLatencyConfig cfg;
    cfg.table_size = 128;
    cfg.rounds = 20;
    oflops::FlowModLatencyModule mod{cfg};
    tb.ctx->run(mod, 120 * kPicosPerSec).print();
    std::printf("  (positive data_minus_control_ms = the switch acks rules "
                "before hardware applies them)\n");
  }
  {
    GraphTestbed tb{sw_cfg};
    oflops::ConsistencyConfig cfg;
    cfg.rule_count = 128;
    oflops::ConsistencyModule mod{cfg};
    tb.ctx->run(mod, 120 * kPicosPerSec).print();
    std::printf("  (stale packets = frames forwarded by already-replaced "
                "rules during the update window)\n");
  }
  return 0;
}
