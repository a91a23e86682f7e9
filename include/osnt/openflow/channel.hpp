// Simulated OpenFlow control channel: an in-simulation TCP-ish byte
// stream between the controller (OFLOPS) and the switch agent, with
// configurable latency, bandwidth and in-order delivery. Messages are
// serialized to real OF 1.0 bytes on send and re-framed/decoded on
// delivery, so wire-format bugs are observable.
#pragma once

#include <cstdint>
#include <functional>

#include "osnt/common/time.hpp"
#include "osnt/openflow/messages.hpp"
#include "osnt/sim/engine.hpp"

namespace osnt::openflow {

struct ChannelConfig {
  Picos latency = 50 * kPicosPerMicro;  ///< one-way propagation+stack delay
  double mbps = 1000.0;                 ///< control-channel bandwidth
  /// Session-reconnect policy after a disconnect: probe attempt k fires
  /// after 2 ms * 2^k (capped at 100 ms). The FSM gives up after
  /// `reconnect_max_attempts` probes so a permanently dead link cannot
  /// keep the event queue alive forever; a later
  /// set_link_available(true) still restores the session directly.
  std::size_t reconnect_max_attempts = 16;
};

class ControlChannel {
 public:
  using Config = ChannelConfig;
  using Handler = std::function<void(Decoded)>;
  /// Session status callback: `up` false on disconnect, true on
  /// reconnect. Fired at the sim time of the transition.
  using StatusHandler = std::function<void(bool up)>;

  class Endpoint {
   public:
    /// Serialize and send to the peer; delivered in order after the
    /// channel delay. Returns the assigned xid (auto-increment when
    /// `xid` is 0). Sends while the session is down are dropped and
    /// counted — a closed TCP socket, not a queue.
    std::uint32_t send(const OfMessage& msg, std::uint32_t xid = 0);

    void set_handler(Handler h) { handler_ = std::move(h); }
    void set_status_handler(StatusHandler h) { status_ = std::move(h); }

    [[nodiscard]] std::uint64_t messages_sent() const noexcept { return sent_; }
    [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return bytes_; }
    /// Sends attempted while the session was down.
    [[nodiscard]] std::uint64_t messages_dropped() const noexcept {
      return dropped_down_;
    }
   private:
    friend class ControlChannel;
    ControlChannel* chan_ = nullptr;
    Endpoint* peer_ = nullptr;
    Handler handler_;
    StatusHandler status_;
    Picos tx_free_ = 0;  ///< this direction's serialization backlog
    std::uint32_t next_xid_ = 1;
    std::uint64_t sent_ = 0;
    std::uint64_t bytes_ = 0;
    std::uint64_t dropped_down_ = 0;
  };

  explicit ControlChannel(sim::Engine& eng, Config cfg = Config());
  ControlChannel(const ControlChannel&) = delete;
  ControlChannel& operator=(const ControlChannel&) = delete;
  /// Merges session/loss counters into telemetry (`openflow.channel.*`).
  ~ControlChannel();

  [[nodiscard]] Endpoint& controller() noexcept { return a_; }
  [[nodiscard]] Endpoint& switch_end() noexcept { return b_; }

  /// Tear down the session now: in-flight messages of the old session are
  /// lost (counted at what would have been their delivery time), both
  /// status handlers fire with up=false, and the reconnect FSM starts
  /// probing with exponential backoff.
  void disconnect();
  [[nodiscard]] bool connected() const noexcept { return connected_; }

  /// Physical availability of the control link — the fault injector's
  /// seam. Going unavailable tears the session down (as above); probes
  /// fail until availability returns, after which the next probe (or a
  /// direct kick, if the FSM already gave up) restores the session.
  void set_link_available(bool available);
  [[nodiscard]] bool link_available() const noexcept { return link_available_; }

  [[nodiscard]] std::uint64_t disconnects() const noexcept {
    return disconnects_;
  }
  [[nodiscard]] std::uint64_t reconnects() const noexcept {
    return reconnects_;
  }
  /// Messages that were on the wire when their session died.
  [[nodiscard]] std::uint64_t messages_lost_in_flight() const noexcept {
    return lost_in_flight_;
  }
  [[nodiscard]] std::uint64_t reconnect_probes() const noexcept {
    return probes_;
  }

 private:
  void transmit(Endpoint& from, const OfMessage& msg, std::uint32_t xid);
  void schedule_probe_(std::size_t attempt);
  void restore_session_();
  void notify_(bool up);

  sim::Engine* eng_;
  Config cfg_;
  Endpoint a_;
  Endpoint b_;
  bool connected_ = true;
  bool link_available_ = true;
  bool probing_ = false;  ///< a reconnect probe is scheduled
  /// Session epoch: bumped on every disconnect. Delivery events capture
  /// the epoch they were sent under; a mismatch at delivery time means
  /// the message died with its session.
  std::uint64_t epoch_ = 0;
  std::uint64_t disconnects_ = 0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t lost_in_flight_ = 0;
  std::uint64_t probes_ = 0;
};

}  // namespace osnt::openflow
