// High-level measurement API — the "programmer-friendly" layer the paper
// describes for building throughput / latency / jitter tests in software.
// Callers cable a device-under-test between two OSNT ports, describe the
// traffic, and get distributions back.
#pragma once

#include <cstdint>
#include <memory>

#include "osnt/common/stats.hpp"
#include "osnt/core/device.hpp"
#include "osnt/gen/models.hpp"
#include "osnt/gen/rate.hpp"
#include "osnt/gen/source.hpp"

namespace osnt::core {

/// Declarative traffic description; expanded into a source + gap model.
struct TrafficSpec {
  gen::RateSpec rate = gen::RateSpec::line_rate(1.0);

  enum class Sizes : std::uint8_t { kFixed, kImix };
  Sizes sizes = Sizes::kFixed;
  std::size_t frame_size = 64;      ///< for kFixed (incl. FCS)

  enum class Arrivals : std::uint8_t { kCbr, kPoisson, kBurst };
  Arrivals arrivals = Arrivals::kCbr;
  std::size_t burst_len = 32;       ///< for kBurst

  std::uint32_t flow_count = 1;
  /// UDP destination port shared by every probe flow — the selector the
  /// measurement uses to tell probe frames from other traffic.
  std::uint16_t dst_port = 5001;
  std::uint64_t frame_count = 0;    ///< 0 = until duration expires
  std::uint64_t seed = 1;
};

[[nodiscard]] std::unique_ptr<gen::PacketSource> make_source(
    const TrafficSpec& spec);
[[nodiscard]] std::unique_ptr<gen::GapModel> make_gap_model(
    const TrafficSpec& spec);

/// Result of a generate→DUT→capture run between two ports of one device.
struct RunResult {
  std::uint64_t tx_frames = 0;
  std::uint64_t rx_frames = 0;       ///< frames seen by the monitor port
  std::uint64_t captured = 0;        ///< records that survived the DMA path
  std::uint64_t dma_drops = 0;
  double offered_gbps = 0.0;         ///< measured at the generator
  double delivered_gbps = 0.0;       ///< measured at the monitor
  SampleSet latency_ns;              ///< embedded-stamp one-way latency
  SampleSet jitter_ns;               ///< |latency[i] - latency[i-1]| (RFC3550-ish)
  [[nodiscard]] double loss_fraction() const noexcept {
    return tx_frames == 0
               ? 0.0
               : 1.0 - static_cast<double>(rx_frames) /
                           static_cast<double>(tx_frames);
  }
};

/// Drive traffic out of `tx_port`, capture on `rx_port`, for `duration` of
/// simulated time (plus drain time), and collect latency/loss statistics.
/// The caller must already have cabled the ports (through a DUT or
/// back-to-back). The RX port's filter table is reprogrammed to capture
/// only the probe stream (selected by `spec.dst_port`), and rx_frames is
/// counted with a pre-DMA probe counter, so competing traffic on the
/// monitor port does not pollute the measurement.
/// `capture_filter`, when given, replaces the default capture rule (e.g.
/// to capture only a subset of the probe flows); the probe *counter*
/// always selects the full probe stream by `spec.dst_port`.
[[nodiscard]] RunResult run_capture_test(
    sim::Engine& eng, OsntDevice& dev, std::size_t tx_port,
    std::size_t rx_port, const TrafficSpec& spec, Picos duration,
    const mon::FilterRule* capture_filter = nullptr);

}  // namespace osnt::core
