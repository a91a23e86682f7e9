// A full-duplex 10GbE port: TX MAC + RX MAC + the outbound wire. Ports are
// cabled together with connect(), which wires each side's TX link to the
// other side's RX MAC — the software equivalent of plugging in a fiber.
#pragma once

#include <cstdint>

#include "osnt/hw/mac10g.hpp"
#include "osnt/sim/engine.hpp"
#include "osnt/sim/link.hpp"

namespace osnt::hw {

struct EthPortConfig {
  TxMac::Config tx{};
  RxMac::Config rx{};
};

class EthPort {
 public:
  using Config = EthPortConfig;
  /// The outbound wire: 2 m of fiber.
  static constexpr Picos kPropagation = sim::fiber_delay(2.0);

  EthPort(sim::Engine& eng, Config cfg = Config())
      : tx_(eng, cfg.tx), rx_(eng, cfg.rx), out_(eng, kPropagation) {
    tx_.attach(out_);
  }

  EthPort(const EthPort&) = delete;
  EthPort& operator=(const EthPort&) = delete;

  [[nodiscard]] TxMac& tx() noexcept { return tx_; }
  [[nodiscard]] RxMac& rx() noexcept { return rx_; }
  [[nodiscard]] const TxMac& tx() const noexcept { return tx_; }
  [[nodiscard]] const RxMac& rx() const noexcept { return rx_; }
  [[nodiscard]] sim::Link& out_link() noexcept { return out_; }

  [[nodiscard]] bool cabled() const noexcept { return out_.connected(); }

 private:
  TxMac tx_;
  RxMac rx_;
  sim::Link out_;
};

/// Cable two ports together (both directions).
void connect(EthPort& a, EthPort& b);

}  // namespace osnt::hw
