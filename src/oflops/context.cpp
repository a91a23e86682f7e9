#include "osnt/oflops/context.hpp"

#include <algorithm>
#include <cstdio>

namespace osnt::oflops {
namespace {
/// The switch's committed rule count: Testbed publishes it, await_table
/// polls it.
constexpr const char* kFlowTableSizeOid = "ofFlowTableSize.0";

/// Why a run stopped at a refused flow_mod, naming the refusal's code.
std::string refusal(std::uint16_t code) {
  using namespace openflow::ofpfmfc;
  return "the switch refused a flow_mod: " +
         (code == kAllTablesFull ? std::string("OFPFMFC_ALL_TABLES_FULL")
          : code == kBadCommand  ? std::string("OFPFMFC_BAD_COMMAND")
                                 : "OFPFMFC code " + std::to_string(code));
}
}  // namespace

OflopsContext::OflopsContext(sim::Engine& eng, core::OsntDevice& osnt,
                             openflow::ControlChannel::Endpoint& ctrl,
                             dut::SnmpAgent& snmp)
    : eng_(&eng), osnt_(&osnt), ctrl_(&ctrl), snmp_(&snmp) {}

void OflopsContext::await_table(std::size_t rules, std::uint64_t timer_id) {
  snmp_->get(kFlowTableSizeOid,
             [this, rules, timer_id](std::string, std::uint64_t v, Picos) {
               if (!active_) return;
               if (v >= rules) {
                 active_->on_timer(*this, timer_id);
                 return;
               }
               // The agent serves a snapshot; polling faster than it
               // refreshes would read the same value again.
               eng_->schedule_in(snmp_->refresh_interval(),
                                 [this, rules, timer_id] {
                                   await_table(rules, timer_id);
                                 });
             });
}

void OflopsContext::install(std::vector<openflow::FlowMod> rules,
                            std::uint64_t timer_id) {
  installs_.push_back({std::move(rules), 0, timer_id});
  send_install(installs_.back());
}

void OflopsContext::send_install(Install& in) {
  for (const openflow::FlowMod& fm : in.rules) ctrl_->send(fm);
  in.barrier_xid = ctrl_->send(openflow::BarrierRequest{});
}

void OflopsContext::timer_in(Picos dt, std::uint64_t timer_id) {
  eng_->schedule_in(dt, [this, timer_id] {
    if (active_) active_->on_timer(*this, timer_id);
  });
}

Report OflopsContext::run(MeasurementModule& module, Picos timeout) {
  active_ = &module;
  refused_.clear();
  installs_.clear();
  disconnects_ = 0;
  degraded_rounds_ = 0;
  // Route control-plane and data-plane events to the module; a refused
  // flow_mod ends the run instead, and the answer to an install's barrier
  // fires that install's timer.
  ctrl_->set_handler([this](const openflow::Decoded& d) {
    if (!active_) return;
    const auto* err = std::get_if<openflow::ErrorMsg>(&d.msg);
    if (err && err->type == openflow::ofpet::kFlowModFailed) {
      refused_ = refusal(err->code);
      return;
    }
    if (std::holds_alternative<openflow::BarrierReply>(d.msg)) {
      const auto it = std::find_if(
          installs_.begin(), installs_.end(),
          [&d](const Install& in) { return in.barrier_xid == d.xid; });
      if (it != installs_.end()) {
        const std::uint64_t timer_id = it->timer_id;
        installs_.erase(it);
        active_->on_timer(*this, timer_id);
        return;
      }
    }
    active_->on_of_message(*this, d);
  });
  ctrl_->set_status_handler([this](bool up) {
    if (!active_) return;
    if (!up) {
      ++disconnects_;
      return;
    }
    // Whatever an unanswered install had in flight died with the old
    // session, so send it again. Each flow_mod is an ADD that replaces
    // the entry with its match, so a copy that did land is rewritten in
    // place.
    for (Install& in : installs_) {
      ++degraded_rounds_;
      send_install(in);
    }
  });
  osnt_->capture().set_on_record([this](const mon::CaptureRecord& rec) {
    if (active_) active_->on_capture(*this, rec);
  });

  module.start(*this);

  const Picos deadline = eng_->now() + timeout;
  while (!module.finished() && refused_.empty() && eng_->now() < deadline &&
         !eng_->empty()) {
    eng_->step();
  }

  active_ = nullptr;
  ctrl_->set_status_handler(nullptr);
  osnt_->capture().set_on_record(nullptr);
  Report rep = module.report();
  if (disconnects_ > 0)
    rep.add("channel_disconnects", static_cast<double>(disconnects_));
  if (degraded_rounds_ > 0)
    rep.add("degraded_rounds", static_cast<double>(degraded_rounds_));
  rep.stopped = refused_;
  if (rep.stopped.empty() && !module.finished()) {
    char why[48];
    std::snprintf(why, sizeof why, "hit the %0.1fs timeout",
                  to_seconds(timeout));
    rep.stopped = eng_->empty() ? "no event left to run" : why;
  }
  return rep;
}

Testbed::Testbed(dut::OpenFlowSwitchConfig sw_cfg, core::DeviceConfig osnt_cfg,
                 openflow::ChannelConfig chan_cfg)
    : osnt(eng, osnt_cfg), chan(eng, chan_cfg),
      sw(eng, chan, sw_cfg),
      snmp(eng), ctx(eng, osnt, chan.controller(), snmp) {
  const std::size_t n = std::min(osnt.num_ports(), sw.num_ports());
  for (std::size_t i = 0; i < n; ++i) hw::connect(osnt.port(i), sw.port(i));
  snmp.register_counter(kFlowTableSizeOid, [this] { return sw.table().size(); });
}

}  // namespace osnt::oflops
