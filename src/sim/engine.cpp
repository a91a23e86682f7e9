#include "osnt/sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "osnt/telemetry/registry.hpp"

namespace osnt::sim {

namespace {
// One ambient config per thread: runner workers set it for the trial they
// execute; engines on unrelated threads are unaffected.
thread_local WatchdogConfig g_ambient_watchdog{};
}  // namespace

WatchdogScope::WatchdogScope(WatchdogConfig cfg) noexcept
    : prev_(g_ambient_watchdog) {
  g_ambient_watchdog = cfg;
}

WatchdogScope::~WatchdogScope() { g_ambient_watchdog = prev_; }

Engine::Engine() {
  const WatchdogConfig wd = g_ambient_watchdog;
  budget_ = wd.event_budget;
  set_wall_deadline_in(wd.wall_budget_ms);
}

void Engine::check_watchdog_() const {
  if (budget_ != 0 && processed_ >= budget_) {
    throw WatchdogError(
        WatchdogKind::kEventBudget,
        "sim: event budget exhausted after " + std::to_string(processed_) +
            " events at t=" + std::to_string(now_) + " ps (livelock watchdog)");
  }
  // Amortize the clock read: a stuck simulation still dispatches events,
  // so sampling every 1024 keeps the deadline responsive and cheap.
  if (wall_armed_ && (processed_ & 0x3ffu) == 0 &&
      std::chrono::steady_clock::now() >= wall_deadline_) {
    throw WatchdogError(
        WatchdogKind::kWallClock,
        "sim: wall-clock deadline exceeded after " +
            std::to_string(processed_) + " events at t=" +
            std::to_string(now_) + " ps (stall watchdog)");
  }
}

Engine::~Engine() {
  // One engine is one telemetry shard: merge its plain local counters into
  // the process-wide registry exactly once. Every merge op commutes
  // (counter adds, gauge maxes), so concurrent trials on any number of
  // runner workers produce identical registry totals.
  if (!telemetry::enabled()) return;
  if (processed_ == 0 && cancelled_ == 0 && meta_.empty()) return;
  auto& reg = telemetry::registry();
  reg.counter("sim.engine.engines").inc();
  reg.counter("sim.engine.events_fired").add(processed_);
  reg.counter("sim.engine.events_cancelled").add(cancelled_);
  // The "impl" token excludes a stat from kSimOnly snapshots (like
  // "wall"): these depend on how timers were *routed* (wheel vs heap,
  // eager vs lazy slot release), not on what the simulation did, and
  // kSimOnly must stay byte-identical across timer-routing configs.
  reg.gauge("sim.engine.impl.heap_high_water")
      .update_max(static_cast<std::int64_t>(heap_hw_));
  reg.gauge("sim.engine.live_high_water")
      .update_max(static_cast<std::int64_t>(live_hw_));
  reg.gauge("sim.engine.impl.slab_slots")
      .update_max(static_cast<std::int64_t>(meta_.size()));
  if (wheel_.scheduled() != 0 || wheel_spilled_ != 0) {
    reg.counter("sim.engine.wheel.impl.scheduled").add(wheel_.scheduled());
    reg.counter("sim.engine.wheel.impl.cancelled").add(wheel_.cancelled());
    reg.counter("sim.engine.wheel.impl.drained").add(wheel_.drained());
    reg.counter("sim.engine.wheel.impl.cascaded").add(wheel_.cascaded());
    reg.counter("sim.engine.wheel.impl.spilled").add(wheel_spilled_);
  }
  for (std::size_t c = 0; c < kEventCategoryCount; ++c) {
    if (handler_ns_[c] == 0) continue;
    reg.counter(std::string("sim.engine.handler_ns.wall.") +
                event_category_name(static_cast<EventCategory>(c)))
        .add(handler_ns_[c]);
  }
}

void Engine::add_block_() {
  assert(blocks_.size() < (std::size_t{1} << (32 - kSlotBlockShift)) &&
         "event slab exhausted");
  const auto base = static_cast<std::uint32_t>(blocks_.size())
                    << kSlotBlockShift;
  blocks_.push_back(std::make_unique<UniqueFn[]>(kSlotBlockSize));
  meta_.resize(meta_.size() + kSlotBlockSize);
  wheel_.ensure_capacity(meta_.size());  // wheel nodes parallel the slab
  // Chain the fresh block into the free list, lowest index first so slot
  // acquisition order stays intuitive in debuggers.
  for (std::uint32_t i = kSlotBlockSize; i-- > 0;) {
    meta_[base + i].next_free = free_head_;
    free_head_ = base + i;
  }
}

bool Engine::cancel(EventId id) {
  if (!id) return false;
  const auto slot = static_cast<std::uint32_t>(id.v & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id.v >> 32);
  if (slot >= meta_.size()) return false;
  SlotMeta& m = meta_[slot];
  if (m.gen != gen || m.state != State::kPending) return false;
  fn_(slot).reset();
  --live_;
  ++cancelled_;
  if (m.where == Where::kWheel) {
    // The heap never saw this entry, so there is nothing to skim: unlink
    // from its bucket and recycle the slot right away.
    wheel_.cancel(slot);
    release_slot_(slot);
    return true;
  }
  // Lazy deletion: free the captures now, skim the heap entry when it
  // surfaces. The slot stays reserved until then so it can't be reused
  // while the heap still points at it.
  m.state = State::kCancelled;
  return true;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_until(Picos t) {
  Picos when;
  for (;;) {
    if (watchdog_on_ && live_ != 0) check_watchdog_();
    const std::uint32_t slot = pop_next_live_(t, when);
    if (slot == kNilSlot) break;
    now_ = when;
    ++processed_;
    dispatch_(slot);
  }
  now_ = std::max(now_, t);
}

}  // namespace osnt::sim
