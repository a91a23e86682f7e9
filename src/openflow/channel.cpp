#include "osnt/openflow/channel.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "osnt/common/log.hpp"
#include "osnt/telemetry/registry.hpp"

namespace osnt::openflow {
namespace {

/// Reconnect backoff: probe attempt k fires after kReconnectBase * 2^k,
/// capped at kReconnectMaxBackoff.
constexpr Picos kReconnectBase = 2 * kPicosPerMilli;
constexpr Picos kReconnectMaxBackoff = 100 * kPicosPerMilli;

Picos reconnect_backoff(std::size_t attempt) noexcept {
  Picos d = kReconnectBase;
  for (std::size_t i = 0; i < attempt && d < kReconnectMaxBackoff; ++i) d *= 2;
  return std::min(d, kReconnectMaxBackoff);
}

}  // namespace

ControlChannel::ControlChannel(sim::Engine& eng, Config cfg)
    : eng_(&eng), cfg_(cfg) {
  a_.chan_ = this;
  a_.peer_ = &b_;
  b_.chan_ = this;
  b_.peer_ = &a_;
}

ControlChannel::~ControlChannel() {
  if (!telemetry::enabled()) return;
  if (disconnects_ == 0 && lost_in_flight_ == 0 &&
      a_.dropped_down_ + b_.dropped_down_ == 0) {
    return;
  }
  auto& reg = telemetry::registry();
  reg.counter("openflow.channel.disconnects").add(disconnects_);
  reg.counter("openflow.channel.reconnects").add(reconnects_);
  reg.counter("openflow.channel.lost_in_flight").add(lost_in_flight_);
  reg.counter("openflow.channel.dropped_session_down")
      .add(a_.dropped_down_ + b_.dropped_down_);
  reg.counter("openflow.channel.reconnect_probes").add(probes_);
}

std::uint32_t ControlChannel::Endpoint::send(const OfMessage& msg,
                                             std::uint32_t xid) {
  if (xid == 0) xid = next_xid_++;
  chan_->transmit(*this, msg, xid);
  return xid;
}

void ControlChannel::transmit(Endpoint& from, const OfMessage& msg,
                              std::uint32_t xid) {
  if (!connected_) {
    // A closed socket: the send fails immediately, nothing is queued for
    // the next session. Callers learn about it via the status handler.
    ++from.dropped_down_;
    return;
  }
  Bytes wire = encode(msg, xid);
  from.bytes_ += wire.size();
  ++from.sent_;

  // Byte-stream semantics: serialization is FIFO per direction.
  const Picos now = eng_->now();
  const Picos start = std::max(now, from.tx_free_);
  const Picos ser = static_cast<Picos>(static_cast<double>(wire.size()) * 8.0 *
                                       1e6 / cfg_.mbps);  // bits / Mb/s → ps
  from.tx_free_ = start + ser;
  const Picos deliver = from.tx_free_ + cfg_.latency;

  Endpoint* peer = from.peer_;
  eng_->schedule_at(
      deliver, [this, peer, epoch = epoch_, wire = std::move(wire)] {
        if (epoch != epoch_ || !connected_) {
          // The session this message was sent under died while the bytes
          // were in flight — TCP would have RST the stream.
          ++lost_in_flight_;
          return;
        }
        auto decoded = decode(ByteSpan{wire.data(), wire.size()});
        if (!decoded) {
          OSNT_ERROR("control channel: undecodable message of %zu bytes",
                     wire.size());
          return;
        }
        if (peer->handler_) peer->handler_(std::move(*decoded));
      });
}

void ControlChannel::disconnect() {
  if (!connected_) return;
  connected_ = false;
  ++epoch_;
  ++disconnects_;
  // The session's serialization backlog dies with its socket.
  a_.tx_free_ = 0;
  b_.tx_free_ = 0;
  OSNT_INFO("control channel: session down at t=%lld ps",
            static_cast<long long>(eng_->now()));
  notify_(false);
  if (!probing_) schedule_probe_(0);
}

void ControlChannel::set_link_available(bool available) {
  if (link_available_ == available) return;
  link_available_ = available;
  if (!available) {
    disconnect();
  } else if (!connected_ && !probing_) {
    // The FSM already gave up (or the link flapped between probes with
    // none scheduled): kick one fresh probe at base backoff.
    schedule_probe_(0);
  }
}

void ControlChannel::schedule_probe_(std::size_t attempt) {
  probing_ = true;
  eng_->schedule_in(reconnect_backoff(attempt), [this, attempt] {
    probing_ = false;
    if (connected_) return;  // something else restored the session
    ++probes_;
    if (link_available_) {
      restore_session_();
      return;
    }
    if (attempt + 1 < cfg_.reconnect_max_attempts) {
      schedule_probe_(attempt + 1);
    } else {
      OSNT_WARN("control channel: giving up after %zu reconnect probes",
                cfg_.reconnect_max_attempts);
    }
  });
}

void ControlChannel::restore_session_() {
  connected_ = true;
  ++reconnects_;
  OSNT_INFO("control channel: session restored at t=%lld ps",
            static_cast<long long>(eng_->now()));
  notify_(true);
}

void ControlChannel::notify_(bool up) {
  // Controller first: deterministic order, and the controller is the one
  // that re-drives state (re-sent flow_mods) on reconnect.
  if (a_.status_) a_.status_(up);
  if (b_.status_) b_.status_(up);
}

}  // namespace osnt::openflow
