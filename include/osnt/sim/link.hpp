// Point-to-point wire model. A Link is unidirectional: the transmit MAC
// pushes frames whose serialization window it already computed; the link
// adds propagation delay and hands the frame to the connected sink.
// A Cable bundles the two directions between two ports.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "osnt/common/random.hpp"
#include "osnt/common/time.hpp"
#include "osnt/net/packet.hpp"
#include "osnt/sim/engine.hpp"
#include "osnt/sim/lane.hpp"

namespace osnt::sim {

/// Anything that can terminate a wire (an RX MAC).
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  /// `first_bit` / `last_bit` are arrival times at this sink. Frames cross
  /// every hop by reference: a sink that keeps the frame moves it into its
  /// own storage (a lane entry, a closure, a queue), one that drops it
  /// just returns, and one that needs a second frame copies it
  /// (`net::Packet{pkt}`). A copy shares the bytes and the first write
  /// through either copy copies them, so a mutable span must not be held
  /// across a copy. The caller's storage must outlive the call and
  /// must not be reachable from the sink, so the caller moves a stored
  /// frame into a local first (FifoLane does).
  virtual void on_frame(net::Packet&& pkt, Picos first_bit, Picos last_bit) = 0;
};

/// A frame and the two bit times it travels with: arrival times on a
/// link, departure times out of a serializer.
struct TimedFrame {
  net::Packet pkt;
  Picos first_bit;
  Picos last_bit;
};

/// Propagation delay of `meters` of fiber (~4.9 ns/m).
[[nodiscard]] constexpr Picos fiber_delay(double meters) noexcept {
  return static_cast<Picos>(meters * 4'900.0);  // ps
}

/// The frame-hit model of a bit-error channel, shared by Link and
/// graph::DelayBerBlock: a frame of L line bytes is hit with probability
/// P = 1 - (1-ber)^(8L); a hit flips one random bit and marks the FCS
/// bad for the receiver to discard.
class BitErrors {
 public:
  explicit BitErrors(double ber = 0.0) noexcept : ber_(ber) {}
  /// One chance() draw from `rng`, then on a hit the byte and bit to
  /// flip; true when `pkt` was corrupted. A zero BER or an empty frame
  /// draws nothing. The flip writes through the copying accessor, so a
  /// frame that shares its bytes gets its own copy first.
  bool corrupt(net::Packet& pkt, Rng& rng);

 private:
  double ber_;
  std::size_t line_len_ = 0;  ///< P depends only on the line length, and
  double p_hit_ = 0.0;        ///< streams repeat lengths: keep the last
};

class Link {
 public:
  /// `propagation` is the one-way flight time of a bit.
  Link(Engine& eng, Picos propagation = fiber_delay(2.0)) noexcept
      : eng_(&eng), propagation_(propagation) {}

  void connect(FrameSink& sink) noexcept { sink_ = &sink; }
  [[nodiscard]] bool connected() const noexcept { return sink_ != nullptr; }
  [[nodiscard]] Picos propagation() const noexcept { return propagation_; }

  /// Inject a bit error rate (errors per transmitted bit). Frames hit by
  /// at least one error are delivered corrupted (a random payload bit is
  /// flipped and the FCS-bad flag set) so the RX MAC counts/drops them.
  void set_bit_error_rate(double ber, std::uint64_t seed = 33) noexcept;
  [[nodiscard]] std::uint64_t frames_corrupted() const noexcept {
    return corrupted_;
  }

  /// Administrative/physical link state. Frames entering a downed link
  /// are lost (counted) — a fiber pull.
  void set_up(bool up) noexcept { up_ = up; }
  [[nodiscard]] bool is_up() const noexcept { return up_; }
  [[nodiscard]] std::uint64_t frames_lost_down() const noexcept {
    return lost_down_;
  }

  /// Fault seam: additional one-way delay applied on top of propagation
  /// (a latency-jitter spike — rerouted path, PAUSE storm). Negative
  /// clamps to zero; frames already in flight keep their old delay, so
  /// after a cut a later frame can arrive before an earlier one.
  void set_extra_delay(Picos extra) noexcept {
    extra_delay_ = extra > 0 ? extra : 0;
  }
  [[nodiscard]] Picos extra_delay() const noexcept { return extra_delay_; }

  /// Carry a frame whose first bit enters the wire at `tx_start` and whose
  /// last bit enters at `tx_end`. Frames on an unconnected link are
  /// counted and discarded (a dark fiber). Takes the frame under the
  /// FrameSink::on_frame ownership rule.
  void carry(net::Packet&& pkt, Picos tx_start, Picos tx_end);

  [[nodiscard]] std::uint64_t frames_carried() const noexcept { return carried_; }
  [[nodiscard]] std::uint64_t frames_lost_dark() const noexcept { return dark_; }

 private:
  /// Hands a frame to the sink at its last-bit arrival.
  struct Deliver {
    Link* link;
    void operator()(TimedFrame&& f) const {
      link->sink_->on_frame(std::move(f.pkt), f.first_bit, f.last_bit);
    }
  };

  Engine* eng_;
  FrameSink* sink_ = nullptr;
  Picos propagation_;
  Picos extra_delay_ = 0;
  BitErrors errors_;
  std::unique_ptr<Rng> rng_;  ///< null while the BER is 0
  bool up_ = true;
  std::uint64_t carried_ = 0;
  std::uint64_t dark_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t lost_down_ = 0;
  FifoLane<TimedFrame, Deliver> in_flight_{*eng_, Deliver{this}};
};

}  // namespace osnt::sim
