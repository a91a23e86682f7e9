// In-plane latency/RTT measurement (cf. P4TG's histogram-based RTT
// monitoring in the data plane): per-traffic-class log2 histograms fed at
// MAC-receipt time, *before* the cutter/filter/DMA stages, so the
// distribution covers every delivered frame even when the loss-limited
// DMA path drops capture records. Host-side `HostCapture::latency_ns`
// only sees the survivors — under load its quantiles are biased toward
// whatever the DMA ring happened to keep; the probe is the unbiased
// population (DESIGN.md §14).
//
// The hot path is batch-structured: observe() packs (latency, class) into
// one u64 and appends to a fixed ring; the bit_width bucketing runs in a
// tight drain loop once per kBatch samples, the way a hardware pipeline
// would retire a burst of stamps per clock. Accessors drain implicitly.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "osnt/telemetry/histogram.hpp"

namespace osnt::mon {

class LatencyProbe {
 public:
  /// Traffic classes tracked separately (DSCP & kClassMask). Four matches
  /// the hardware design point: per-class histograms fit the register
  /// budget, and workloads tag flows round-robin across them.
  static constexpr std::size_t kClasses = 4;
  static constexpr std::uint8_t kClassMask = kClasses - 1;
  /// Samples buffered between drains of the batch ring.
  static constexpr std::size_t kBatch = 128;
  /// Largest representable latency: the class tag rides in the low 2 bits
  /// of the packed word, so values clamp at 2^62-1 ns (~146 years).
  static constexpr std::uint64_t kMaxNs = (std::uint64_t{1} << 62) - 1;

  /// Record one sample. `tclass` beyond kClasses wraps via kClassMask.
  void observe(std::uint64_t latency_ns, std::uint8_t tclass) noexcept {
    if (latency_ns > kMaxNs) latency_ns = kMaxNs;
    batch_[pending_++] = (latency_ns << 2) | (tclass & kClassMask);
    if (pending_ == kBatch) drain();
  }

  /// Record a pre-collected burst (generator/monitor batch hot path).
  void observe_batch(const std::uint64_t* latency_ns, std::size_t n,
                     std::uint8_t tclass) noexcept;

  /// Retire buffered samples into the per-class histograms. Called
  /// automatically when the ring fills and by every accessor, so readers
  /// never see a stale distribution.
  void drain() const noexcept;

  [[nodiscard]] const telemetry::Log2Histogram& of_class(
      std::size_t k) const noexcept {
    drain();
    return hist_[k & kClassMask];
  }
  /// All classes merged into one distribution.
  [[nodiscard]] telemetry::Log2Histogram merged() const noexcept;
  [[nodiscard]] std::uint64_t samples() const noexcept;

  /// Merge into the telemetry registry under `<prefix>rtt.*`:
  /// `<prefix>rtt.ns` (merged histogram), `<prefix>rtt.class<k>.ns` for
  /// each non-empty class, and the `<prefix>rtt.samples` counter. A no-op
  /// when no samples were observed, so idle probes add no metric names.
  void flush(const std::string& prefix) const;

  void reset() noexcept;

 private:
  // drain() is logically const (observe order is preserved; accessors
  // just retire the buffer early), so the storage is mutable.
  mutable std::array<std::uint64_t, kBatch> batch_;
  mutable std::size_t pending_ = 0;
  mutable std::array<telemetry::Log2Histogram, kClasses> hist_{};
};

}  // namespace osnt::mon
