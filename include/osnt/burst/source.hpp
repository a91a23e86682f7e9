// BurstSourceBlock: a graph source that plays a BurstSchedule into the
// dataplane. Two emission modes share one schedule, so their frame
// streams are byte- and time-identical:
//
//   batched (default)  ONE engine event per Burst; the handler walks the
//                      SoA range cloning prebuilt per-flow template
//                      packets — the MoonGen-style hot path
//   naive              one engine event per frame, each crafting its
//                      packet from scratch — the reference baseline the
//                      BENCH_engine.json `burst_pps` gate measures against
//
// Frames leave with tx_truth/tx_start at their scheduled departure and a
// serialization window at the pattern rate, exactly the TxPipeline
// convention, so downstream monitor blocks see honest latency samples.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "osnt/burst/schedule.hpp"
#include "osnt/graph/block.hpp"
#include "osnt/net/packet.hpp"

namespace osnt::burst {

struct BurstSourceConfig {
  PatternConfig pattern;
  bool batched = true;
  /// Schedule length. The topology loader fills this from the run
  /// duration when the JSON leaves it unset; start() throws without one.
  Picos horizon = 0;
};

class BurstSourceBlock final : public graph::Block {
 public:
  BurstSourceBlock(sim::Engine& eng, std::string name,
                   BurstSourceConfig cfg = {});
  ~BurstSourceBlock() override;

  /// Builds the schedule and templates, then arms the first emission
  /// event (category kGen). Schedule offsets are relative to now().
  void start() override;

  /// Sources have no inputs; a stray frame is counted as a drop.
  void on_frame(std::size_t in_port, net::Packet&& pkt, Picos first_bit,
                Picos last_bit) override;

  [[nodiscard]] const BurstSourceConfig& config() const noexcept {
    return cfg_;
  }
  /// Valid after start().
  [[nodiscard]] const BurstSchedule* schedule() const noexcept {
    return sched_.get();
  }
  [[nodiscard]] std::uint64_t bursts_emitted() const noexcept {
    return bursts_;
  }
  /// Wire bytes emitted (incl. FCS, excl. preamble/IFG).
  [[nodiscard]] std::uint64_t wire_bytes() const noexcept {
    return wire_bytes_;
  }

  /// The frame a schedule slot produces, independent of emission mode:
  /// template `flow_id` padded to `frame_size`. Exposed for tests.
  [[nodiscard]] static net::Packet make_frame(const PatternConfig& cfg,
                                              std::uint32_t flow_id,
                                              std::size_t frame_size);

 private:
  void arm_burst(std::size_t burst_idx);
  void emit_burst(std::size_t burst_idx);
  void arm_frame(std::size_t burst_idx, std::size_t offset_in_burst);
  void emit_one(std::size_t frame_idx, Picos burst_start);

  BurstSourceConfig cfg_;
  std::unique_ptr<BurstSchedule> sched_;
  std::vector<net::Packet> templates_;  ///< batched mode, one per flow id
  Picos origin_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t bursts_ = 0;
  std::uint64_t wire_bytes_ = 0;
};

}  // namespace osnt::burst
