#include "osnt/hw/dma.hpp"

#include <algorithm>
#include <memory>

#include "osnt/net/packet.hpp"
#include "osnt/telemetry/registry.hpp"

namespace osnt::hw {

DmaEngine::~DmaEngine() {
  if (!telemetry::enabled() || (delivered_ == 0 && drops_ == 0 && stalls_ == 0))
    return;
  auto& reg = telemetry::registry();
  reg.counter("hw.dma.records_delivered").add(delivered_);
  reg.counter("hw.dma.bytes_delivered").add(bytes_delivered_);
  reg.counter("hw.dma.drops_ring_full").add(drops_);
  reg.gauge("hw.dma.ring_high_water")
      .update_max(static_cast<std::int64_t>(ring_hw_));
  reg.counter("hw.dma.stalls_injected").add(stalls_);
}

void DmaEngine::inject_stall(Picos duration) {
  if (duration <= 0) return;
  bus_free_ = std::max(bus_free_, eng_->now()) + duration;
  ++stalls_;
}

bool DmaEngine::admit() noexcept {
  if (in_ring_ < cfg_.ring_entries) return true;
  ++drops_;
  return false;
}

bool DmaEngine::enqueue(DmaRecord rec) {
  if (!admit()) return false;
  ++in_ring_;
  ring_hw_ = in_ring_ > ring_hw_ ? in_ring_ : ring_hw_;
  const std::size_t bus_bytes =
      rec.payload.size() + cfg_.per_record_overhead_bytes;
  const Picos now = eng_->now();
  const Picos start = std::max(now, bus_free_);
  const Picos xfer =
      net::serialization_time(bus_bytes, cfg_.gbps);
  bus_free_ = start + xfer;
  const sim::Engine::CategoryScope cat(*eng_, sim::EventCategory::kHw);
  bus_.push(bus_free_, std::move(rec));
  return true;
}

void DmaEngine::Complete::operator()(DmaRecord&& rec) const {
  --dma->in_ring_;
  ++dma->delivered_;
  dma->bytes_delivered_ += rec.payload.size();
  if (dma->handler_) dma->handler_(std::move(rec));
}

}  // namespace osnt::hw
