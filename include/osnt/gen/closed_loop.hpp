// ClosedLoopSource: the seam between a stateful transport sender and the
// open-loop TX pipeline. Protocol endpoints offer() ready-to-send frames
// into a bounded queue (the model of a shallow bottleneck buffer — a full
// queue tail-drops, which is precisely the congestion signal closed-loop
// senders exist to react to); the TX pipeline pulls from the queue at its
// configured rate. While the queue is dry the source reports blocked() so
// the pipeline parks instead of terminating; offering into an empty queue
// kicks the pipeline awake through the registered callback.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "osnt/gen/source.hpp"

namespace osnt::gen {

class ClosedLoopSource final : public PacketSource {
 public:
  /// `queue_limit` bounds the number of queued frames (0 = unbounded —
  /// only sensible for tests; real bottlenecks are shallow).
  explicit ClosedLoopSource(std::size_t queue_limit = 0)
      : queue_limit_(queue_limit) {}

  /// Called by the pipeline owner after set_source/start: wakes the
  /// pipeline when offer() refills an empty queue (TxPipeline::kick).
  void set_kick(std::function<void()> kick) { kick_ = std::move(kick); }

  /// True when the next offer() would tail-drop. Senders may probe this
  /// before serializing a frame and skip the build entirely.
  [[nodiscard]] bool full() const {
    return queue_limit_ != 0 && queue_.size() >= queue_limit_;
  }

  /// Record a tail-drop for a frame the sender elided building because
  /// full() was already true — keeps drops() identical to the path where
  /// the frame is built and then refused by offer().
  void note_tail_drop() { ++drops_; }

  /// Enqueue a frame for transmission. Returns false (and counts a drop)
  /// when the queue is full — the frame is lost exactly as a full switch
  /// buffer would lose it.
  bool offer(net::Packet&& pkt) {
    if (full()) {
      ++drops_;
      return false;
    }
    const bool was_empty = queue_.empty();
    queue_.push_back(std::move(pkt));
    ++offered_;
    if (was_empty && kick_) kick_();
    return true;
  }

  /// After close(), a drained queue ends generation instead of parking.
  void close() { closed_ = true; }

  [[nodiscard]] std::optional<TimedPacket> next() override {
    if (queue_.empty()) return std::nullopt;
    TimedPacket tp{std::move(queue_.front()), std::nullopt};
    queue_.pop_front();
    return tp;
  }

  [[nodiscard]] bool blocked() const override { return !closed_; }

  [[nodiscard]] std::size_t queued() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t offered() const { return offered_; }
  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  [[nodiscard]] std::size_t queue_limit() const { return queue_limit_; }

 private:
  std::size_t queue_limit_;
  std::deque<net::Packet> queue_;
  std::function<void()> kick_;
  bool closed_ = false;
  std::uint64_t offered_ = 0;
  std::uint64_t drops_ = 0;
};

}  // namespace osnt::gen
