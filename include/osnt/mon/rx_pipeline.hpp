// Per-port receive pipeline, the OSNT monitor datapath:
//
//   RX MAC → timestamp (first bit, disciplined clock) → stats block
//          → wildcard filter → DMA ring admission → cutter/hash
//          → DMA (loss-limited) → host
//
// The pipeline never back-pressures the MAC: anything the DMA path cannot
// take is dropped and counted, exactly like the hardware. The ring is
// asked before the cutter runs, so a refused frame is never cut or hashed.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "osnt/hw/dma.hpp"
#include "osnt/hw/mac10g.hpp"
#include "osnt/mon/cutter.hpp"
#include "osnt/mon/filter.hpp"
#include "osnt/mon/latency_probe.hpp"
#include "osnt/mon/stats_block.hpp"
#include "osnt/sim/engine.hpp"
#include "osnt/telemetry/histogram.hpp"
#include "osnt/tstamp/clock.hpp"
#include "osnt/tstamp/embed.hpp"

namespace osnt::mon {

struct RxConfig {
  std::uint8_t port_id = 0;
  bool capture_enabled = true;
  CutterConfig cutter{};
  /// In-plane RTT probe (LatencyProbe): decode the embedded TX stamp at
  /// `probe_embed_offset` before the filter/DMA stages and record
  /// the device-clock latency per traffic class (IPv4 DSCP). Frames whose
  /// bytes at the offset do not decode to a plausible stamp (delta outside
  /// [0, kProbeWindowNs)) are skipped — unstamped traffic decodes to
  /// absurd deltas, which is what makes the probe safe to leave on.
  bool rtt_probe = true;
  std::size_t probe_embed_offset = tstamp::kDefaultEmbedOffset;
};

class RxPipeline {
 public:
  using Config = RxConfig;

  /// Installs itself as the RX MAC handler. All referenced components
  /// must outlive the pipeline. The DMA engine is typically shared by all
  /// four ports of a device — that is what makes the path loss-limited.
  RxPipeline(sim::Engine& eng, hw::RxMac& mac, tstamp::DisciplinedClock& clock,
             hw::DmaEngine& dma, Config cfg = Config());
  /// Merges this pipeline's shard (path counters, the sim-time one-way
  /// latency histogram) into the telemetry registry under `mon.rx.*`.
  ~RxPipeline();

  [[nodiscard]] FilterTable& filters() noexcept { return filters_; }
  [[nodiscard]] PacketCutter& cutter() noexcept { return cutter_; }
  [[nodiscard]] StatsBlock& stats() noexcept { return stats_; }
  [[nodiscard]] const StatsBlock& stats() const noexcept { return stats_; }

  void set_capture_enabled(bool on) noexcept { cfg_.capture_enabled = on; }
  void set_rtt_probe_enabled(bool on) noexcept { cfg_.rtt_probe = on; }

  /// In-sim frame tap: invoked for every parseable frame after the stats
  /// block, before the capture path (so filter/DMA state cannot hide
  /// traffic from it). This is the seam protocol endpoints build on —
  /// osnt::tcp hangs its senders/receivers here so ACK generation rides
  /// the same monitor datapath as measurement. The parse is shared with
  /// the stats block; `first_bit` is MAC-receipt (pre-queueing) sim time.
  using FrameTap =
      std::function<void(const net::ParsedPacket&, const net::Packet&,
                         Picos first_bit)>;
  void set_tap(FrameTap tap) { tap_ = std::move(tap); }

  /// Probe counter: counts frames matching `rule` before the capture
  /// filter and DMA (like a dedicated hardware match counter). Used by
  /// measurement code to count DUT-delivered probe frames independently
  /// of capture-path loss.
  void set_probe(std::optional<FilterRule> rule) noexcept {
    probe_ = std::move(rule);
    probe_seen_ = 0;
  }
  [[nodiscard]] std::uint64_t probe_seen() const noexcept { return probe_seen_; }

  /// The in-plane RTT probe (per-class log2 histograms over the embedded
  /// TX stamp → RX device stamp delta, pre-DMA). Empty when cfg.rtt_probe
  /// is off or no stamped traffic arrived.
  [[nodiscard]] const LatencyProbe& rtt_probe() const noexcept {
    return rtt_probe_;
  }

  // --- counters ---
  [[nodiscard]] std::uint64_t seen() const noexcept { return seen_; }
  [[nodiscard]] std::uint64_t captured() const noexcept { return captured_; }
  [[nodiscard]] std::uint64_t filtered_out() const noexcept { return filtered_; }
  [[nodiscard]] std::uint64_t dma_drops() const noexcept { return dma_drops_; }

 private:
  void on_frame(net::Packet&& pkt, Picos first_bit, Picos last_bit);

  sim::Engine* eng_;
  tstamp::DisciplinedClock* clock_;
  hw::DmaEngine* dma_;
  Config cfg_;
  FilterTable filters_;
  PacketCutter cutter_;
  StatsBlock stats_;
  std::optional<FilterRule> probe_;
  std::uint64_t probe_seen_ = 0;
  FrameTap tap_;

  std::uint64_t seen_ = 0;
  std::uint64_t captured_ = 0;
  std::uint64_t filtered_ = 0;
  std::uint64_t dma_drops_ = 0;
  /// Ground-truth one-way latency (tx_truth → first bit at the monitor),
  /// in nanoseconds of *sim* time — the shard behind `mon.rx.latency_ns`.
  telemetry::Log2Histogram latency_ns_;
  /// Device-observable in-plane latency (embedded stamp vs RX stamp),
  /// flushed under `mon.rx.rtt.*`.
  LatencyProbe rtt_probe_;
  telemetry::TraceRecorder::TrackId trace_track_ = 0;
  bool trace_track_set_ = false;
};

}  // namespace osnt::mon
