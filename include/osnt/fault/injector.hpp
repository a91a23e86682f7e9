// Applies a FaultPlan to a live testbed. Constructing an Injector arms
// the plan: every event is scheduled on the trial's engine (category
// kFault, visible in --trace) against the Targets it was given.
// Faults act through the models' existing public seams, so an injected
// run is just a run: same engine, same determinism, same telemetry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "osnt/fault/plan.hpp"
#include "osnt/sim/engine.hpp"

namespace osnt::core {
class OsntDevice;
}
namespace osnt::graph {
class Block;
class Graph;
}  // namespace osnt::graph
namespace osnt::openflow {
class ControlChannel;
}

namespace osnt::fault {

/// The models a plan may reach. Each is optional and non-owning, and
/// must outlive the engine's run.
struct Targets {
  /// Link events address its port out-links by port index (-1 = all of
  /// them); dma_stall and gps_loss reach its DMA engine and GPS.
  core::OsntDevice* device = nullptr;
  /// rate_limit and queue_cap name one of its blocks.
  graph::Graph* graph = nullptr;
  /// ctrl_disconnect takes its link down.
  openflow::ControlChannel* channel = nullptr;
};

class Injector {
 public:
  /// Normalizes the plan and schedules every event on the engine. An
  /// event whose device or channel is not given is skipped with a
  /// warning; a rate_limit / queue_cap naming no eligible block of the
  /// graph is a PlanError (a chaos plan aimed at a block that does not
  /// exist is a bad plan, not a benign mismatch), as is a malformed
  /// plan. A construction that throws schedules nothing.
  Injector(sim::Engine& eng, FaultPlan plan, Targets targets);
  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;
  /// Merges `fault.injected.<kind>` / `fault.skipped` into telemetry.
  ~Injector();

  /// Fault activations that actually fired (counted at their start time).
  [[nodiscard]] std::uint64_t injected(FaultKind k) const noexcept {
    return injected_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::uint64_t injected_total() const noexcept;
  /// Plan events dropped at construction because their target was not
  /// given.
  [[nodiscard]] std::uint64_t skipped() const noexcept { return skipped_; }

 private:
  void arm_event_(const FaultEvent& ev, std::size_t ordinal,
                  std::uint64_t plan_seed, const Targets& targets,
                  graph::Block* block);
  void window_(const FaultEvent& ev,
               const std::function<void(int step, int steps)>& apply,
               sim::EventFn restore = nullptr);
  void mark_(FaultKind kind, Picos at, Picos duration);

  sim::Engine* eng_;
  std::uint64_t injected_[kFaultKindCount] = {};
  std::uint64_t skipped_ = 0;
  telemetry::TraceRecorder::TrackId trace_tracks_[kFaultKindCount] = {};
  bool tracing_ = false;
};

}  // namespace osnt::fault
