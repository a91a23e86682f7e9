#include "osnt/mon/latency_probe.hpp"

#include "osnt/telemetry/registry.hpp"

namespace osnt::mon {

void LatencyProbe::observe_batch(const std::uint64_t* latency_ns,
                                 std::size_t n, std::uint8_t tclass) noexcept {
  const std::uint64_t tag = tclass & kClassMask;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t v =
        latency_ns[i] > kMaxNs ? kMaxNs : latency_ns[i];
    batch_[pending_++] = (v << 2) | tag;
    if (pending_ == kBatch) drain();
  }
}

void LatencyProbe::drain() const noexcept {
  for (std::size_t i = 0; i < pending_; ++i) {
    const std::uint64_t packed = batch_[i];
    hist_[packed & kClassMask].record(packed >> 2);
  }
  pending_ = 0;
}

telemetry::Log2Histogram LatencyProbe::merged() const noexcept {
  drain();
  telemetry::Log2Histogram out = hist_[0];
  for (std::size_t k = 1; k < kClasses; ++k) out.merge(hist_[k]);
  return out;
}

std::uint64_t LatencyProbe::samples() const noexcept {
  drain();
  std::uint64_t n = 0;
  for (const auto& h : hist_) n += h.count();
  return n;
}

void LatencyProbe::flush(const std::string& prefix) const {
  drain();
  std::uint64_t total = 0;
  for (const auto& h : hist_) total += h.count();
  if (total == 0) return;
  auto& reg = telemetry::registry();
  reg.histogram(prefix + "rtt.ns").merge(merged());
  for (std::size_t k = 0; k < kClasses; ++k) {
    if (hist_[k].count() == 0) continue;
    reg.histogram(prefix + "rtt.class" + std::to_string(k) + ".ns")
        .merge(hist_[k]);
  }
  reg.counter(prefix + "rtt.samples").add(total);
}

void LatencyProbe::reset() noexcept {
  pending_ = 0;
  for (auto& h : hist_) h.reset();
}

}  // namespace osnt::mon
