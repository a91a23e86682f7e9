// Functional-block dataplane: the Block interface. A Block is a named
// node with a fixed number of input and output ports; frames arrive on an
// input port via on_frame() (delivered by the owning Graph over the
// sim::Link seam) and leave through emit(), which hands them to whatever
// Link the Graph wired onto that output port. Blocks in the LANA fb_*
// style: a queue, an AQM, a rate limiter, a whole switch — anything that
// transforms, delays, drops, or fans out frames.
//
// Determinism rules for block authors (DESIGN.md §13):
//   - all randomness through an osnt::Rng seeded from the block config
//     (the topology loader derives per-block seeds from the trial seed);
//   - all time from engine().now() / the frame's bit times, never the
//     host clock;
//   - per-block telemetry flushes once, at destruction, under
//     `graph.<name>.*` — counter merges commute, so sharded trials stay
//     byte-identical at any --jobs;
//   - schedule events under EventCategory::kDut (emit() and Link::carry
//     handle their own categories).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "osnt/common/time.hpp"
#include "osnt/net/packet.hpp"
#include "osnt/sim/engine.hpp"
#include "osnt/telemetry/trace.hpp"

namespace osnt::sim {
class Link;
}

namespace osnt::graph {

class Graph;

/// Wiring or lookup failure while assembling a graph.
class GraphError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Block {
 public:
  /// `name` must be unique within the owning Graph; it is the stable
  /// identity telemetry (`graph.<name>.*`) and trace tracks
  /// (`graph/<name>`) key on.
  Block(sim::Engine& eng, std::string name, std::size_t num_inputs,
        std::size_t num_outputs);
  virtual ~Block();

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t num_inputs() const noexcept { return num_in_; }
  [[nodiscard]] std::size_t num_outputs() const noexcept {
    return outs_.size();
  }

  /// Called once by Graph::start(), in block-insertion order. Blocks with
  /// internal timers or sources arm themselves here.
  virtual void start() {}

  /// A frame's last bit arrived on `in_port` at `last_bit` (sim time ==
  /// now). Implementations drop, transform, queue, or emit() it. The frame
  /// comes by reference, under sim::FrameSink::on_frame's ownership rule:
  /// a block that keeps or forwards it moves it (emit(), a lane entry), a
  /// block that drops it just returns, and a block that sends it out more
  /// than once copies it (`net::Packet{pkt}`) for all but the last. A copy
  /// shares the bytes; a block that rewrites them writes through
  /// mut_bytes(), which copies shared bytes first, and holds no mutable
  /// span across a copy.
  virtual void on_frame(std::size_t in_port, net::Packet&& pkt,
                        Picos first_bit, Picos last_bit) = 0;

  // --- counters (also flushed to graph.<name>.* at destruction) ---
  [[nodiscard]] std::uint64_t frames_in() const noexcept { return frames_in_; }
  [[nodiscard]] std::uint64_t frames_out() const noexcept {
    return frames_out_;
  }
  /// Frames this block decided not to forward (policy drops + frames
  /// emitted into unwired output ports).
  [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }
  /// Wire bytes delivered to this block (intrinsic, like frames_in) —
  /// flushed as graph.<name>.frame_bytes so series-derived Gbps needs no
  /// separate tap.
  [[nodiscard]] std::uint64_t bytes_in() const noexcept { return bytes_in_; }

 protected:
  [[nodiscard]] sim::Engine& engine() noexcept { return *eng_; }
  [[nodiscard]] Picos now() const noexcept;

  /// Forward a frame out `out_port` with the given serialization window.
  /// Unwired ports count the frame as a drop (a dark fiber stub), so a
  /// partially-wired topology stays runnable and observable.
  void emit(std::size_t out_port, net::Packet&& pkt, Picos tx_start,
            Picos tx_end);

  /// Record a policy drop (tail drop, RED early drop, nonconforming...).
  void count_drop() noexcept { ++drops_; }

 private:
  friend class Graph;

  /// Graph-side entry: counts, traces, then dispatches to on_frame().
  void deliver(std::size_t in_port, net::Packet&& pkt, Picos first_bit,
               Picos last_bit);

  sim::Engine* eng_;
  std::string name_;
  std::size_t num_in_;
  std::vector<sim::Link*> outs_;  ///< wired by Graph; may hold nullptr
  std::uint64_t frames_in_ = 0;
  std::uint64_t frames_out_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t bytes_in_ = 0;
  telemetry::TraceRecorder::TrackId track_ = 0;
  bool traced_ = false;
};

}  // namespace osnt::graph
