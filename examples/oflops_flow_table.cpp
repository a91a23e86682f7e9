// Demo Part II: OFLOPS-turbo against an OpenFlow switch — flow-table
// modification latency via control AND data plane, plus forwarding
// consistency during a large table update.
//
// Each run builds oflops::Testbed: four OSNT ports cabled to a 4-port
// OpenFlow switch, its control channel, and the SNMP agent through which
// the modules learn when their rules are in hardware.
//
//   $ ./oflops_flow_table
#include <cstdio>

#include "osnt/oflops/consistency.hpp"
#include "osnt/oflops/context.hpp"
#include "osnt/oflops/echo_rtt.hpp"
#include "osnt/oflops/flowmod_latency.hpp"
#include "osnt/oflops/packet_in_latency.hpp"

using namespace osnt;

int main() {
  std::printf("Part II demo: OpenFlow switch evaluation (OFLOPS-turbo)\n\n");

  // A production-like switch: barrier acks before hardware commit.
  dut::OpenFlowSwitchConfig sw_cfg;
  sw_cfg.commit_base = 2 * kPicosPerMilli;
  sw_cfg.commit_per_entry = 2 * kPicosPerMicro;

  {
    oflops::Testbed tb{sw_cfg};
    oflops::EchoRttModule echo;
    tb.ctx.run(echo).print();
  }
  {
    oflops::Testbed tb{sw_cfg};
    oflops::PacketInLatencyModule pin;
    tb.ctx.run(pin).print();
  }
  {
    oflops::Testbed tb{sw_cfg};
    oflops::FlowModLatencyConfig cfg;
    cfg.table_size = 128;
    cfg.rounds = 20;
    oflops::FlowModLatencyModule mod{cfg};
    tb.ctx.run(mod, 120 * kPicosPerSec).print();
    std::printf("  (positive data_minus_control_ms = the switch acks rules "
                "before hardware applies them)\n");
  }
  {
    oflops::Testbed tb{sw_cfg};
    oflops::ConsistencyConfig cfg;
    cfg.rule_count = 128;
    oflops::ConsistencyModule mod{cfg};
    tb.ctx.run(mod, 120 * kPicosPerSec).print();
    std::printf("  (stale packets = frames forwarded by already-replaced "
                "rules during the update window)\n");
  }
  return 0;
}
