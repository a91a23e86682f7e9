// OflopsContext: the runtime a measurement module sees — unified access
// to the OSNT data plane, the OpenFlow control channel, SNMP, and timers.
// Testbed is the canonical four-cable topology of the demo (Figure 2):
// OSNT port i ↔ switch port i, controller on the control channel.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "osnt/core/device.hpp"
#include "osnt/dut/openflow_switch.hpp"
#include "osnt/dut/snmp.hpp"
#include "osnt/oflops/module.hpp"
#include "osnt/openflow/channel.hpp"
#include "osnt/sim/engine.hpp"

namespace osnt::oflops {

class OflopsContext {
 public:
  /// await_table() polls `snmp` for "ofFlowTableSize.0", the switch's
  /// committed rule count, which Testbed registers.
  OflopsContext(sim::Engine& eng, core::OsntDevice& osnt,
                openflow::ControlChannel::Endpoint& ctrl,
                dut::SnmpAgent& snmp);

  // --- control plane ---
  std::uint32_t send(const openflow::OfMessage& msg) { return ctrl_->send(msg); }
  /// Send `rules`, then a barrier, and call the module's on_timer(timer_id)
  /// when the switch answers that barrier. If the control session comes
  /// back first, the rules and a new barrier go again and the report
  /// counts one degraded round.
  void install(std::vector<openflow::FlowMod> rules, std::uint64_t timer_id);

  // --- data plane ---
  [[nodiscard]] core::OsntDevice& osnt() noexcept { return *osnt_; }

  // --- SNMP ---
  /// Call the module's on_timer(timer_id) once the switch reports, over
  /// SNMP, at least `rules` entries in its hardware table. A barrier
  /// cannot tell this: on a production-like switch it covers the agent,
  /// not the commits. Polls once per agent refresh.
  void await_table(std::size_t rules, std::uint64_t timer_id);

  // --- timers ---
  void timer_in(Picos dt, std::uint64_t timer_id);

  [[nodiscard]] Picos now() const noexcept { return eng_->now(); }

  /// Run one module to completion and return its report. Events are
  /// routed to the module for the duration. The run stops early, saying
  /// why in Report::stopped, after `timeout` of simulated time or at once
  /// when the switch refuses a flow_mod: a module measures the table it
  /// asked for or nothing. The report ends with `channel_disconnects`
  /// and `degraded_rounds` when either is non-zero.
  Report run(MeasurementModule& module, Picos timeout = 60 * kPicosPerSec);

 private:
  /// An install whose barrier the switch has not answered yet.
  struct Install {
    std::vector<openflow::FlowMod> rules;
    std::uint32_t barrier_xid = 0;
    std::uint64_t timer_id = 0;
  };
  void send_install(Install& in);

  sim::Engine* eng_;
  core::OsntDevice* osnt_;
  openflow::ControlChannel::Endpoint* ctrl_;
  dut::SnmpAgent* snmp_;
  MeasurementModule* active_ = nullptr;
  /// Set when the switch refused a flow_mod during the current run.
  std::string refused_;
  std::vector<Install> installs_;
  std::uint64_t disconnects_ = 0;
  std::uint64_t degraded_rounds_ = 0;
};

/// The demo topology in one object: a 4-port OSNT tester cabled 1:1 to a
/// 4-port OpenFlow switch, a control channel, and an SNMP agent publishing
/// the switch's table size.
struct Testbed {
  sim::Engine eng;
  core::OsntDevice osnt;
  openflow::ControlChannel chan;
  dut::OpenFlowSwitch sw;
  dut::SnmpAgent snmp;
  OflopsContext ctx;

  explicit Testbed(
      dut::OpenFlowSwitchConfig sw_cfg = dut::OpenFlowSwitchConfig(),
      core::DeviceConfig osnt_cfg = core::DeviceConfig(),
      openflow::ChannelConfig chan_cfg = openflow::ChannelConfig());
};

}  // namespace osnt::oflops
