// ClosedLoopWorkload: N congestion-controlled flows between two OSNT
// ports. The sender side lives on port kTxPort: per-flow tcp::Flow state
// machines emit TCP/IPv4 frames into one shared gen::ClosedLoopSource,
// which the port's TX pipeline drains at the configured bottleneck rate
// (the queue bound is the bottleneck buffer). The receiver side hangs off
// port kRxPort's monitor pipeline tap: per-flow delayed-ACK reassembly
// state that transmits cumulative/duplicate ACKs back through the reverse
// path — so loss injected anywhere on the path (osnt::fault BER windows,
// flaps) closes the control loop. What lies between the two ports is the
// caller's: graph::run_topology_trial cables them through a topology, or
// back to back when the topology has no blocks.
//
// Built for flow counts in the 10k–1M range (DESIGN.md §12): the flows
// live in one array allocated at construction and indexed by flow id,
// each allocating only its congestion controller until it sends;
// receiver state is split hot/cold so the per-ACK touch set stays
// cache-resident, and the per-frame demux is pure index arithmetic over
// the flow addressing scheme — no map lookups anywhere on the RX tap
// path.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "osnt/core/device.hpp"
#include "osnt/gen/closed_loop.hpp"
#include "osnt/mon/latency_probe.hpp"
#include "osnt/sim/engine.hpp"
#include "osnt/tcp/flow.hpp"

namespace osnt::tcp {

/// Device port carrying the data direction (and receiving ACKs).
inline constexpr std::size_t kTxPort = 0;
/// Device port receiving data (and transmitting ACKs).
inline constexpr std::size_t kRxPort = 1;
/// Receiver delayed-ACK timer (RFC 1122 allows up to 500 ms; sim-scaled
/// like the RTO bounds, see DESIGN.md §11).
inline constexpr Picos kDelayedAckTimeout = 200 * kPicosPerMicro;

struct WorkloadConfig {
  std::size_t flows = 1;
  std::string cc = "newreno";
  std::uint32_t mss = 1448;          ///< 1448 ⇒ 1518 B frames with options
  std::uint64_t seed = 1;            ///< trial seed; flows derive substreams
  double bottleneck_gbps = 0.0;      ///< TX drain rate; 0 = port line rate
  std::size_t queue_segments = 256;  ///< bottleneck buffer, in frames
  std::uint64_t rwnd_bytes = std::uint64_t{1} << 20;
  std::uint64_t bytes_per_flow = 0;  ///< 0 = unbounded (duration-limited)
  Picos min_rto = kPicosPerMilli;    ///< sim-scaled; see DESIGN.md §11
  Picos max_rto = 250 * kPicosPerMilli;
  /// Arm the per-flow R-TCP-style RateLimitDetector (DESIGN.md §15).
  /// Off by default; off is byte-identical to pre-detector builds.
  bool rate_limit_detector = false;
};

// --- flow addressing -------------------------------------------------
// The demux must invert a frame's {dst IP, dst port} back to a flow index
// in O(1), so the index is split across the header fields: the low
// kPortIndexBits land in the port number, the high bits in the third IP
// octet. Good for kMaxFlows = 2^21 flows before an octet would overflow.
inline constexpr std::uint16_t kSenderPortBase = 40000;
inline constexpr std::uint16_t kReceiverPortBase = 50000;
inline constexpr std::uint32_t kPortIndexBits = 13;
inline constexpr std::uint32_t kPortsPerGroup = 1u << kPortIndexBits;  // 8192
inline constexpr std::size_t kMaxFlows = std::size_t{kPortsPerGroup} << 8;

/// Sender-side endpoint of flow `i`: 10.0.<i/8192>.1:<40000 + i%8192>.
[[nodiscard]] inline net::Ipv4Addr sender_ip_of(std::size_t i) noexcept {
  return net::Ipv4Addr::of(10, 0, static_cast<std::uint8_t>(i >> kPortIndexBits),
                           1);
}
/// Receiver-side endpoint of flow `i`: 10.1.<i/8192>.1:<50000 + i%8192>.
[[nodiscard]] inline net::Ipv4Addr receiver_ip_of(std::size_t i) noexcept {
  return net::Ipv4Addr::of(10, 1, static_cast<std::uint8_t>(i >> kPortIndexBits),
                           1);
}
[[nodiscard]] inline std::uint16_t sender_port_of(std::size_t i) noexcept {
  return static_cast<std::uint16_t>(kSenderPortBase +
                                    (i & (kPortsPerGroup - 1)));
}
[[nodiscard]] inline std::uint16_t receiver_port_of(std::size_t i) noexcept {
  return static_cast<std::uint16_t>(kReceiverPortBase +
                                    (i & (kPortsPerGroup - 1)));
}

inline constexpr std::size_t kNoFlow = static_cast<std::size_t>(-1);

/// Invert a data frame's destination {ip, port} to its flow index, or
/// kNoFlow for foreign traffic. Pure arithmetic — the O(1) demux.
[[nodiscard]] inline std::size_t flow_index_of_data(
    net::Ipv4Addr dst_ip, std::uint16_t dst_port) noexcept {
  const std::uint32_t off = static_cast<std::uint32_t>(dst_port) -
                            kReceiverPortBase;  // unsigned: below-base wraps big
  if (off >= kPortsPerGroup) return kNoFlow;
  const std::uint32_t v = dst_ip.v;
  if ((v >> 16) != ((10u << 8) | 1u) || (v & 0xffu) != 1u) return kNoFlow;
  return (static_cast<std::size_t>((v >> 8) & 0xffu) << kPortIndexBits) | off;
}

/// Same inversion for the ACK direction (dst is the sender endpoint).
[[nodiscard]] inline std::size_t flow_index_of_ack(
    net::Ipv4Addr dst_ip, std::uint16_t dst_port) noexcept {
  const std::uint32_t off =
      static_cast<std::uint32_t>(dst_port) - kSenderPortBase;
  if (off >= kPortsPerGroup) return kNoFlow;
  const std::uint32_t v = dst_ip.v;
  if ((v >> 16) != (10u << 8) || (v & 0xffu) != 1u) return kNoFlow;
  return (static_cast<std::size_t>((v >> 8) & 0xffu) << kPortIndexBits) | off;
}

// --- receiver state, split hot/cold ----------------------------------

/// The per-segment receiver touch set: everything the in-order fast path
/// reads or writes, packed to 48 bytes (¾ of a cache line, no map, no
/// EventId indirection beyond the lazy delack handle).
struct ReceiverHot {
  std::uint64_t rcv_nxt = 0;  ///< absolute stream offset (wire seq − ISN)
  std::uint64_t bytes_in_order = 0;
  std::uint64_t acks_sent = 0;
  sim::EventId delack_timer{};  ///< lazy: armed once, checked on fire
  std::uint32_t isn = 0;
  std::uint32_t pending_ack_segs = 0;
  std::uint32_t last_tsval = 0;  ///< tsval of last in-order arrival
};
static_assert(sizeof(ReceiverHot) <= 48, "per-segment touch set grew");
/// Per-flow sender state, histograms excluded: they live in the
/// workload's one FlowTelemetry shard. 528 bytes with libstdc++.
static_assert(sizeof(Flow) <= 576, "per-flow sender state grew");

/// Loss-episode state: only touched when a hole opens or a spurious
/// retransmit lands, so it stays out of the hot array entirely.
struct ReceiverCold {
  std::map<std::uint64_t, std::uint64_t> ooo;  ///< [start, end) intervals
  std::uint64_t ooo_segs = 0;
  std::uint64_t below_window_segs = 0;  ///< spurious-retransmit arrivals
};

/// Aggregate result of one closed-loop trial
/// (ClosedLoopWorkload::report, carried in graph::TopologyTrialReport).
struct TcpTrialReport {
  std::uint64_t bytes_acked = 0;
  std::uint64_t segs_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t rto_fires = 0;
  std::uint64_t fast_retx = 0;
  std::uint64_t cwnd_reductions = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t emit_rejects = 0;
  double goodput_bps = 0.0;
  double min_flow_rate_bps = 0.0;  ///< slowest flow's delivery-rate sample
  double max_flow_rate_bps = 0.0;
  // Rate-limit detector aggregates (0 when the detector is off).
  std::uint64_t rld_detections = 0;
  double rld_rate_bps = 0.0;  ///< mean rate of the flows detecting at the end
  Picos rld_detect_time = 0;  ///< mean first-sample→detect latency of the
                              ///< flows that ever detected
  // In-plane RTT summary (from the workload's tcp.rtt probe): p99 and
  // the observed floor, so callers can report queueing inflation.
  double rtt_p99_ns = 0.0;
  double rtt_min_ns = 0.0;

  friend bool operator==(const TcpTrialReport&,
                         const TcpTrialReport&) = default;
};

class ClosedLoopWorkload {
 public:
  /// Reconfigures kTxPort's generator pipeline and installs monitor taps
  /// on both ports. Bulk timers (RTO, delayed ACK, pacing) follow the
  /// engine's routing: the timing wheel by default, the heap after
  /// Engine::set_wheel_enabled(false) — identical results either way
  /// (DESIGN.md §12). The engine and device must outlive the workload;
  /// the workload must be destroyed before either (it cancels its timers
  /// and detaches its taps in the destructor).
  ClosedLoopWorkload(sim::Engine& eng, core::OsntDevice& dev,
                     WorkloadConfig cfg);
  ~ClosedLoopWorkload();

  ClosedLoopWorkload(const ClosedLoopWorkload&) = delete;
  ClosedLoopWorkload& operator=(const ClosedLoopWorkload&) = delete;

  /// Start the TX pipeline and open every flow's window.
  void start();

  [[nodiscard]] std::size_t num_flows() const { return flows_.size(); }
  [[nodiscard]] Flow& flow(std::size_t i) { return *flows_[i]; }
  [[nodiscard]] const Flow& flow(std::size_t i) const { return *flows_[i]; }
  [[nodiscard]] const ReceiverHot& receiver(std::size_t i) const {
    return recv_hot_.at(i);
  }
  [[nodiscard]] const ReceiverCold& receiver_cold(std::size_t i) const {
    return recv_cold_.at(i);
  }
  [[nodiscard]] const gen::ClosedLoopSource& source() const {
    return *source_;
  }

  // --- aggregates across flows ---
  /// Every flow's FlowStats, summed.
  [[nodiscard]] FlowStats total_stats() const;
  [[nodiscard]] std::uint64_t total_bytes_acked() const {
    return total_stats().bytes_acked;
  }
  [[nodiscard]] std::uint64_t total_retransmits() const {
    return total_stats().retransmits;
  }
  [[nodiscard]] std::uint64_t total_rto_fires() const {
    return total_stats().rto_fires;
  }
  [[nodiscard]] std::uint64_t total_acks_sent() const;
  [[nodiscard]] std::uint64_t total_ooo_segs() const;
  /// Delayed-ACK timer cancels avoided by the lazy one-armed-timer
  /// scheme (each would have been a cancel + re-arm pair pre-§12).
  [[nodiscard]] std::uint64_t delack_cancels_saved() const {
    return delack_cancels_saved_;
  }
  /// In-plane RTT probe fed by every flow's accepted RTT samples (the
  /// RTO estimator's input stream), classed by flow DSCP (flow index
  /// mod 4). Flushed under tcp.rtt.* at destruction.
  [[nodiscard]] const mon::LatencyProbe& rtt_probe() const {
    return rtt_probe_;
  }
  /// Application goodput (cum-acked bytes) over `window`, in bits/s.
  [[nodiscard]] double goodput_bps(Picos window) const;
  /// Every aggregate in one row, from one walk over the flows; `window`
  /// scales the goodput figure.
  [[nodiscard]] TcpTrialReport report(Picos window) const;

 private:
  void on_data_frame(const net::ParsedPacket& p, const net::Packet& pkt,
                     Picos first_bit);
  void on_ack_frame(const net::ParsedPacket& p, const net::Packet& pkt,
                    Picos first_bit);
  void send_ack(std::size_t idx, Picos now);
  void schedule_delack(std::size_t idx);

  sim::Engine* eng_;
  core::OsntDevice* dev_;
  WorkloadConfig cfg_;
  gen::ClosedLoopSource* source_ = nullptr;  ///< owned by the TX pipeline
  /// Every flow records into this shard; declared before flows_ so it
  /// outlives them. Flushed under tcp.* at destruction.
  FlowTelemetry telemetry_;
  /// Flow i at index i, sized once at construction. A Flow can be
  /// neither copied nor moved, so each is constructed in place; every
  /// slot is engaged from the constructor until the destructor.
  std::vector<std::optional<Flow>> flows_;
  std::vector<ReceiverHot> recv_hot_;
  std::vector<ReceiverCold> recv_cold_;
  std::uint64_t delack_cancels_saved_ = 0;
  mon::LatencyProbe rtt_probe_;
};

}  // namespace osnt::tcp
