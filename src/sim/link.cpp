#include "osnt/sim/link.hpp"

#include <cmath>
#include <memory>
#include <utility>

namespace osnt::sim {

bool BitErrors::corrupt(net::Packet& pkt, Rng& rng) {
  if (ber_ <= 0.0 || pkt.empty()) return false;
  if (pkt.line_len() != line_len_) {
    line_len_ = pkt.line_len();
    // Numerically stable for tiny ber.
    const double bits = static_cast<double>(line_len_) * 8.0;
    p_hit_ = -std::expm1(bits * std::log1p(-ber_));
  }
  if (!rng.chance(p_hit_)) return false;
  const auto byte = rng.uniform_int(0, pkt.size() - 1);
  const auto bit = rng.uniform_int(0, 7);
  pkt.data[byte] ^= static_cast<std::uint8_t>(1u << bit);
  pkt.fcs_bad = true;
  return true;
}

void Link::set_bit_error_rate(double ber, std::uint64_t seed) noexcept {
  errors_ = BitErrors(ber);
  rng_ = ber > 0.0 ? std::make_unique<Rng>(seed) : nullptr;
}

void Link::carry(net::Packet&& pkt, Picos tx_start, Picos tx_end) {
  if (!sink_) {
    ++dark_;
    return;
  }
  if (!up_) {
    ++lost_down_;
    return;
  }
  ++carried_;
  if (rng_ && errors_.corrupt(pkt, *rng_)) ++corrupted_;
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
