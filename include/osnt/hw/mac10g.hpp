// 10GbE MAC models. The TX MAC serializes frames at line rate with
// preamble + IFG overhead and a bounded staging FIFO; the RX MAC
// validates framing and hands frames (with first-bit arrival time, for
// MAC-receipt timestamping) to its handler.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "osnt/common/time.hpp"
#include "osnt/net/packet.hpp"
#include "osnt/sim/engine.hpp"
#include "osnt/sim/link.hpp"

namespace osnt::hw {

/// Transmit-side 10GbE MAC.
struct TxMacConfig {
  double gbps = 10.0;
  /// Max backlog (bytes of frame data) the staging FIFO accepts beyond
  /// the frame in flight; 0 = unbounded (generator-style, upstream is
  /// rate-controlled).
  std::size_t queue_limit_bytes = 0;
};

class TxMac {
 public:
  using Config = TxMacConfig;

  TxMac(sim::Engine& eng, Config cfg = Config()) noexcept : eng_(&eng), cfg_(cfg) {}

  void attach(sim::Link& link) noexcept { link_ = &link; }

  /// Queue a frame for transmission at the current simulation time.
  /// Returns the wire start-of-frame time, or nullopt if the staging FIFO
  /// is full and the frame was dropped.
  std::optional<Picos> transmit(net::Packet&& pkt);

  /// Time at which the serializer becomes idle.
  [[nodiscard]] Picos next_free() const noexcept { return next_free_; }
  [[nodiscard]] bool idle() const noexcept { return eng_->now() >= next_free_; }

  /// Serialization window (line occupancy) for a frame of this size.
  [[nodiscard]] Picos frame_air_time(const net::Packet& pkt) const noexcept;

  // counters
  [[nodiscard]] std::uint64_t frames_sent() const noexcept { return frames_; }
  [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }

 private:
  sim::Engine* eng_;
  Config cfg_;
  sim::Link* link_ = nullptr;
  Picos next_free_ = 0;
  std::uint64_t frames_ = 0;
  std::uint64_t drops_ = 0;
};

struct RxMacConfig {
  double gbps = 10.0;
  /// Accept frames above net::kEthMaxFrame (1518 B untagged, incl. FCS).
  bool accept_oversize = false;
};

/// Receive-side 10GbE MAC.
class RxMac final : public sim::FrameSink {
 public:
  using Config = RxMacConfig;
  /// first_bit = arrival of the frame's first bit at the MAC (the moment
  /// OSNT timestamps); last_bit = store-and-forward completion.
  using Handler =
      std::function<void(net::Packet&&, Picos first_bit, Picos last_bit)>;

  RxMac(sim::Engine& eng, Config cfg = Config()) noexcept : eng_(&eng), cfg_(cfg) {}

  void set_handler(Handler h) { handler_ = std::move(h); }

  void on_frame(net::Packet&& pkt, Picos first_bit, Picos last_bit) override;

  [[nodiscard]] std::uint64_t frames_received() const noexcept { return frames_; }
  [[nodiscard]] std::uint64_t runts() const noexcept { return runts_; }
  [[nodiscard]] std::uint64_t giants() const noexcept { return giants_; }
  /// Frames discarded for an FCS mismatch (wire corruption).
  [[nodiscard]] std::uint64_t crc_errors() const noexcept { return crc_errors_; }

 private:
  sim::Engine* eng_;
  Config cfg_;
  Handler handler_;
  std::uint64_t frames_ = 0;
  std::uint64_t runts_ = 0;
  std::uint64_t giants_ = 0;
  std::uint64_t crc_errors_ = 0;
};

}  // namespace osnt::hw
