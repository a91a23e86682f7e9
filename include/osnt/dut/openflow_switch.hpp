// OpenFlow 1.0 switch model — the device under test in Part II of the
// demo. The data plane is a flow-table pipeline over 10G ports; the
// control plane is a serial agent with a service-time model plus an
// asynchronous TCAM-commit stage. The separation is deliberate: on real
// switches a flow_mod is acknowledged (even barriered) by the agent CPU
// well before the rule lands in the hardware table, which is exactly the
// control-vs-data-plane gap and the forwarding-consistency window
// OFLOPS-turbo measures.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "osnt/common/random.hpp"
#include "osnt/hw/port.hpp"
#include "osnt/openflow/channel.hpp"
#include "osnt/openflow/flow_table.hpp"
#include "osnt/sim/engine.hpp"

namespace osnt::dut {

struct OpenFlowSwitchConfig {
  std::size_t num_ports = 4;

  // --- data plane ---
  Picos pipeline_latency = 700 * kPicosPerNano;
  double latency_jitter_ns = 25.0;
  std::size_t queue_bytes = 128 * 1024;
  /// Extra per-packet cost for each header-modifying action (VLAN set).
  /// Near-zero on switches that rewrite in the pipeline; large
  /// (tens of µs) on those that punt modifications to the slow path —
  /// the contrast the ActionLatency OFLOPS module measures.
  Picos action_modify_latency = 50 * kPicosPerNano;
  /// Egress queue rate shares, as fractions of line rate, per queue id
  /// (every port gets the same queue set). Queue 0 is the default path.
  /// OFPAT_ENQUEUE selects a queue; its shaper caps the drain rate.
  std::vector<double> queue_rates = {1.0, 0.5, 0.1};
  openflow::FlowTableConfig table{};

  // --- control plane service model ---
  /// Agent CPU time to parse/handle one control message.
  Picos agent_service = 20 * kPicosPerMicro;
  /// Gaussian jitter on the agent service time (1 sigma, ns).
  double agent_jitter_ns = 2000.0;
  /// Hardware (TCAM) commit: base cost per rule write...
  Picos commit_base = 1 * kPicosPerMilli;
  /// ...plus a component growing with current table occupancy (TCAM
  /// reshuffle), per existing entry.
  Picos commit_per_entry = 500 * kPicosPerNano;
  /// When true, barrier replies only after pending commits hit hardware
  /// (spec-faithful). When false (default, matching observed commercial
  /// behaviour), barrier covers agent processing only.
  bool barrier_covers_commit = false;

  // --- packet_in path ---
  /// Token-bucket rate limit on packet_in generation (0 = unlimited).
  double packet_in_limit_pps = 2000.0;

  std::uint64_t seed = 17;
};

class OpenFlowSwitch {
 public:
  using Config = OpenFlowSwitchConfig;

  /// The caller cables the ports itself (oflops::Testbed cables them to
  /// an OSNT tester). `chan.switch_end()` is claimed by this switch. Both
  /// must outlive it.
  OpenFlowSwitch(sim::Engine& eng, openflow::ControlChannel& chan,
                 Config cfg = Config());

  OpenFlowSwitch(const OpenFlowSwitch&) = delete;
  OpenFlowSwitch& operator=(const OpenFlowSwitch&) = delete;

  [[nodiscard]] std::size_t num_ports() const noexcept { return ports_.size(); }
  [[nodiscard]] hw::EthPort& port(std::size_t i) { return *ports_.at(i); }
  [[nodiscard]] const openflow::FlowTable& table() const noexcept {
    return table_;
  }

  // --- counters ---
  [[nodiscard]] std::uint64_t frames_forwarded() const noexcept {
    return forwarded_;
  }
  [[nodiscard]] std::uint64_t table_misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t packet_ins_sent() const noexcept {
    return packet_ins_;
  }
  [[nodiscard]] std::uint64_t packet_ins_rate_limited() const noexcept {
    return packet_ins_limited_;
  }
  [[nodiscard]] std::uint64_t flow_mods_committed() const noexcept {
    return commits_done_;
  }
  /// Frames that went through a non-default egress queue shaper.
  [[nodiscard]] std::uint64_t frames_shaped() const noexcept {
    return enqueue_shaped_;
  }

 private:
  void on_control(openflow::Decoded& d);
  void on_frame(std::size_t in_port, net::Packet&& pkt, Picos first_bit,
                Picos last_bit);
  void execute_actions(const std::vector<openflow::Action>& actions,
                       net::Packet&& pkt, Picos release);
  void send_packet_in(std::size_t in_port, const net::Packet& pkt);
  /// Serial agent CPU: returns the completion time of a job started now.
  Picos agent_run(Picos cost);

  sim::Engine* eng_;
  Config cfg_;
  Rng rng_;
  openflow::ControlChannel::Endpoint* ctrl_;
  std::vector<std::unique_ptr<hw::EthPort>> ports_;
  openflow::FlowTable table_;

  Picos agent_busy_ = 0;
  Picos commit_busy_ = 0;
  /// shaper_free_[port][queue]: when that queue's shaper next admits.
  std::vector<std::vector<Picos>> shaper_free_;
  std::uint64_t enqueue_shaped_ = 0;
  double pin_tokens_ = 0.0;
  Picos pin_last_refill_ = 0;

  std::uint64_t forwarded_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t packet_ins_ = 0;
  std::uint64_t packet_ins_limited_ = 0;
  std::uint64_t commits_done_ = 0;
};

}  // namespace osnt::dut
