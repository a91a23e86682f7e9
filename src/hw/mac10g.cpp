#include "osnt/hw/mac10g.hpp"

#include <algorithm>

namespace osnt::hw {

Picos TxMac::frame_air_time(const net::Packet& pkt) const noexcept {
  return net::serialization_time(pkt.line_len(), cfg_.gbps);
}

std::optional<Picos> TxMac::transmit(net::Packet&& pkt) {
  const Picos now = eng_->now();
  const Picos start = std::max(now, next_free_);
  if (cfg_.queue_limit_bytes != 0) {
    // Approximate FIFO occupancy by the backlog the serializer still owes:
    // everything scheduled after `now` in byte terms.
    const Picos backlog_time = next_free_ - now;
    const double bytes_backlog =
        backlog_time > 0
            ? static_cast<double>(backlog_time) * cfg_.gbps / (8.0 * 1000.0)
            : 0.0;
    if (bytes_backlog + static_cast<double>(pkt.wire_len()) >
        static_cast<double>(cfg_.queue_limit_bytes)) {
      ++drops_;
      return std::nullopt;
    }
  }
  const Picos air = frame_air_time(pkt);
  const Picos end = start + air;
  next_free_ = end;
  ++frames_;
  if (link_) link_->carry(std::move(pkt), start, end);
  return start;
}

void RxMac::on_frame(net::Packet&& pkt, Picos first_bit, Picos last_bit) {
  if (pkt.fcs_bad) {
    ++crc_errors_;
    return;
  }
  const std::size_t wire = pkt.wire_len();
  if (wire < net::kEthMinFrame) {
    ++runts_;
    return;
  }
  if (wire > net::kEthMaxFrame && !cfg_.accept_oversize) {
    ++giants_;
    return;
  }
  ++frames_;
  pkt.rx_truth = last_bit;
  if (handler_) handler_(std::move(pkt), first_bit, last_bit);
}

}  // namespace osnt::hw
