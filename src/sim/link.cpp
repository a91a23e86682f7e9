#include "osnt/sim/link.hpp"

#include <cmath>
#include <memory>
#include <utility>

namespace osnt::sim {

void Link::set_bit_error_rate(double ber, std::uint64_t seed) noexcept {
  ber_ = ber;
  rng_ = ber > 0.0 ? std::make_unique<Rng>(seed) : nullptr;
}

void Link::carry(net::Packet pkt, Picos tx_start, Picos tx_end) {
  if (!sink_) {
    ++dark_;
    return;
  }
  if (!up_) {
    ++lost_down_;
    return;
  }
  ++carried_;
  if (ber_ > 0.0 && rng_ && !pkt.empty()) {
    // P(frame hit) = 1 - (1-ber)^bits, numerically stable for tiny ber.
    const double bits = static_cast<double>(pkt.line_len()) * 8.0;
    const double p_hit = -std::expm1(bits * std::log1p(-ber_));
    if (rng_->chance(p_hit)) {
      const auto byte = rng_->uniform_int(0, pkt.size() - 1);
      const auto bit = rng_->uniform_int(0, 7);
      pkt.data[byte] ^= static_cast<std::uint8_t>(1u << bit);
      pkt.fcs_bad = true;
      ++corrupted_;
    }
  }
  const Picos first_bit = tx_start + propagation_ + extra_delay_;
  const Picos last_bit = tx_end + propagation_ + extra_delay_;
  // Deliver at last-bit arrival: sinks are store-and-forward MACs. The
  // first-bit time rides along for MAC-receipt timestamping semantics.
  const Engine::CategoryScope cat(*eng_, EventCategory::kLink);
  if (last_bit == eng_->now()) {
    // Zero-delay hop invoked at the frame's own arrival instant (a graph
    // backplane edge): hand over synchronously instead of paying a full
    // engine event for a no-op timestamp.
    sink_->on_frame(std::move(pkt), first_bit, last_bit);
    return;
  }
  in_flight_.push(last_bit, TimedFrame{std::move(pkt), first_bit, last_bit});
}

}  // namespace osnt::sim
