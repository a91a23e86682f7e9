// Discrete-event simulation engine. Single-threaded, deterministic:
// events at equal times fire in scheduling order. All hardware models
// (MACs, DMA, switch pipelines, clocks) hang off one Engine.
//
// Hot-path design (see DESIGN.md "Event core"): closures are emplaced
// directly into a generation-counted slab of slots recycled through a
// free list, so the steady state schedules and fires events with zero
// heap allocations. Slots live in fixed 256-entry blocks whose addresses
// never move, which lets a closure execute in place even when it
// schedules new events (reentrant slab growth). The priority queue is a
// 4-ary heap of slim 16-byte {time, seq, slot} entries; cancellation is
// lazy (a cancelled slot's entry is skimmed off the heap head when it
// surfaces). EventId packs {generation, slot}, so a stale id from a
// fired event can never cancel the slot's next occupant. Streams of
// in-order frames go through sim::FifoLane (lane.hpp), which keeps only
// its head in the heap.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "osnt/common/time.hpp"
#include "osnt/sim/timer_wheel.hpp"
#include "osnt/sim/unique_fn.hpp"
#include "osnt/telemetry/trace.hpp"

namespace osnt::sim {

/// Move-only: packet-carrying closures are captured by move, not wrapped
/// in shared_ptr to satisfy a copyability requirement.
using EventFn = UniqueFn;

/// Coarse attribution of scheduled events to the component that scheduled
/// them: tags telemetry counters and trace tracks without the engine ever
/// inspecting a closure. Set via Engine::CategoryScope at the scheduling
/// call site; rides in a padding byte of the slot metadata.
enum class EventCategory : std::uint8_t {
  kGeneric = 0,  ///< uncategorized (timers, test closures)
  kGen,          ///< generator TX pipeline pacing
  kLink,         ///< in-flight frames on a link
  kHw,           ///< MAC/DMA hardware models
  kDut,          ///< device-under-test internals
  kMon,          ///< monitor-side bookkeeping
  kFault,        ///< fault-injection schedule (osnt::fault::Injector)
  kTcp,          ///< transport-layer timers (osnt::tcp pacing, RTO, ACKs)
};
inline constexpr std::size_t kEventCategoryCount = 8;

[[nodiscard]] constexpr const char* event_category_name(
    EventCategory c) noexcept {
  constexpr const char* kNames[kEventCategoryCount] = {
      "generic", "gen", "link", "hw", "dut", "mon", "fault", "tcp"};
  return kNames[static_cast<std::size_t>(c)];
}

/// Which watchdog tripped.
enum class WatchdogKind : std::uint8_t {
  kEventBudget,  ///< deterministic: the Nth dispatched event
  kWallClock,    ///< host-time safety net; inherently nondeterministic
};

/// Thrown out of step()/run()/run_until() when a watchdog trips. The
/// engine stays destructible (pending closures are freed by the slab),
/// but the simulation it was driving is dead — catch at trial scope.
class WatchdogError : public std::runtime_error {
 public:
  WatchdogError(WatchdogKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  [[nodiscard]] WatchdogKind kind() const noexcept { return kind_; }

 private:
  WatchdogKind kind_;
};

/// Watchdog limits a new Engine adopts at construction. Zero = off.
struct WatchdogConfig {
  std::uint64_t event_budget = 0;    ///< max dispatched events per engine
  std::uint64_t wall_budget_ms = 0;  ///< wall-clock ms from construction
};

/// The trial runner cannot reach into engines a trial constructs for
/// itself, so watchdog limits travel ambiently: a WatchdogScope sets a
/// thread-local config and every Engine built on that thread while the
/// scope is alive adopts it. Scopes nest (inner wins, restored on exit).
class WatchdogScope {
 public:
  explicit WatchdogScope(WatchdogConfig cfg) noexcept;
  ~WatchdogScope();
  WatchdogScope(const WatchdogScope&) = delete;
  WatchdogScope& operator=(const WatchdogScope&) = delete;

 private:
  WatchdogConfig prev_;
};

template <typename T, typename Fire>
class FifoLane;

/// Handle for cancellation. Default-constructed id is never issued.
struct EventId {
  std::uint64_t v = 0;
  [[nodiscard]] explicit operator bool() const noexcept { return v != 0; }
  friend bool operator==(const EventId&, const EventId&) = default;
};

class Engine {
 public:
  /// Adopts the thread's ambient WatchdogConfig (see WatchdogScope).
  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  /// Merges this engine's counters into the process-wide telemetry
  /// registry (when telemetry is enabled) — one engine is one shard, and
  /// merging at end of life keeps the event hot path free of atomics.
  ~Engine();

  [[nodiscard]] Picos now() const noexcept { return now_; }

  /// RAII tag: events scheduled while the scope is alive carry `cat`.
  class CategoryScope {
   public:
    CategoryScope(Engine& eng, EventCategory cat) noexcept
        : eng_(&eng), prev_(eng.cat_) {
      eng.cat_ = cat;
    }
    ~CategoryScope() { eng_->cat_ = prev_; }
    CategoryScope(const CategoryScope&) = delete;
    CategoryScope& operator=(const CategoryScope&) = delete;

   private:
    Engine* eng_;
    EventCategory prev_;
  };

  /// Attach a sim-time trace recorder; every fired event becomes a
  /// zero-width slice on its category's track. The recorder must outlive
  /// the engine (or be detached with nullptr first). Null disables.
  void set_trace(telemetry::TraceRecorder* tr) {
    trace_ = tr;
    if (tr) {
      for (std::size_t c = 0; c < kEventCategoryCount; ++c) {
        trace_tracks_[c] = tr->track(
            std::string("engine/") +
            event_category_name(static_cast<EventCategory>(c)));
      }
    }
  }
  [[nodiscard]] telemetry::TraceRecorder* trace() const noexcept {
    return trace_;
  }

  /// Accumulate per-category wall time spent inside handlers (two clock
  /// reads per event — leave off unless profiling; the totals flush to
  /// `sim.engine.handler_ns.wall.<category>` counters).
  void set_handler_timing(bool on) noexcept { timing_ = on; }

  /// Schedule `fn` at absolute time `t` (>= now; earlier is clamped to now).
  /// The callable is emplaced straight into its slab slot.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, UniqueFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule_at(Picos t, F&& fn) {
    const std::uint32_t slot = acquire_slot_();
    fn_(slot).emplace(std::forward<F>(fn));
    return arm_(t, slot, meta_[slot]);
  }
  EventId schedule_at(Picos t, EventFn fn) {
    const std::uint32_t slot = acquire_slot_();
    fn_(slot) = std::move(fn);
    return arm_(t, slot, meta_[slot]);
  }

  /// Schedule `fn` `dt` picoseconds from now (negative clamps to now).
  template <typename F>
  EventId schedule_in(Picos dt, F&& fn) {
    return schedule_at(now_ + dt, std::forward<F>(fn));
  }

  /// Timer-class variant of schedule_at for coarse *bulk* timers — RTO,
  /// delayed ACK, pacing at ≥ tens-of-ns pitch — of which a large flow
  /// count arms millions. Routed to the hierarchical timing wheel (O(1)
  /// schedule/cancel) instead of the O(log n) heap; entries migrate to
  /// the heap only when due, carrying their exact {time, seq} keys, so
  /// firing order — and kSimOnly telemetry — is identical to schedule_at
  /// for any configuration. Sub-tick times, times at/behind the wheel
  /// cursor, and times past the ~281 s horizon spill to the heap.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, UniqueFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule_bulk_at(Picos t, F&& fn) {
    const std::uint32_t slot = acquire_slot_();
    fn_(slot).emplace(std::forward<F>(fn));
    return arm_bulk_(t, slot, meta_[slot]);
  }
  EventId schedule_bulk_at(Picos t, EventFn fn) {
    const std::uint32_t slot = acquire_slot_();
    fn_(slot) = std::move(fn);
    return arm_bulk_(t, slot, meta_[slot]);
  }
  template <typename F>
  EventId schedule_bulk_in(Picos dt, F&& fn) {
    return schedule_bulk_at(now_ + dt, std::forward<F>(fn));
  }

  /// Route schedule_bulk_* to the heap instead of the wheel (A/B baseline
  /// for benchmarks and equivalence tests). Firing order is unaffected.
  void set_wheel_enabled(bool on) noexcept { wheel_enabled_ = on; }
  [[nodiscard]] bool wheel_enabled() const noexcept { return wheel_enabled_; }
  [[nodiscard]] const TimerWheel& wheel() const noexcept { return wheel_; }
  /// Bulk timers the wheel refused (sub-tick, at/behind cursor, or past
  /// the horizon) that fell back to the heap.
  [[nodiscard]] std::uint64_t wheel_spilled() const noexcept {
    return wheel_spilled_;
  }

  /// Cancel a pending event. Returns false if already fired/cancelled.
  bool cancel(EventId id);

  /// Override/disable the event-budget watchdog (0 = unlimited). The
  /// budget counts dispatched events over the engine's whole life, so it
  /// is exactly reproducible: the same simulation dies on the same event.
  void set_event_budget(std::uint64_t budget) noexcept {
    budget_ = budget;
    watchdog_on_ = budget_ != 0 || wall_armed_;
  }
  [[nodiscard]] std::uint64_t event_budget() const noexcept { return budget_; }

  /// Arm (or disarm with 0) a wall-clock deadline `ms` from now. Checked
  /// every 1024 events — a safety net for handlers that block, not a
  /// precise timer, and nondeterministic by nature (see DESIGN.md §10).
  void set_wall_deadline_in(std::uint64_t ms) noexcept {
    wall_armed_ = ms != 0;
    if (wall_armed_) {
      wall_deadline_ = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(static_cast<std::int64_t>(ms));
    }
    watchdog_on_ = budget_ != 0 || wall_armed_;
  }

  /// Run a single event. Returns false when the queue is empty.
  /// Throws WatchdogError once a trip point is reached.
  bool step() {
    // Check only while work remains: a budget that exactly covers the
    // run must drain the queue, not trip on the way out.
    if (watchdog_on_ && live_ != 0) check_watchdog_();
    Picos t;
    const std::uint32_t slot =
        pop_next_live_(std::numeric_limits<Picos>::max(), t);
    if (slot == kNilSlot) return false;
    now_ = t;
    ++processed_;
    dispatch_(slot);
    return true;
  }

  /// Run until the queue is empty.
  void run();

  /// Run all events with time <= t, then advance now to exactly t.
  void run_until(Picos t);

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t pending() const noexcept { return live_; }
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return processed_;
  }
  [[nodiscard]] std::uint64_t events_cancelled() const noexcept {
    return cancelled_;
  }
  /// Deepest the heap has ever been (includes lazily-cancelled entries).
  [[nodiscard]] std::size_t heap_high_water() const noexcept {
    return heap_hw_;
  }
  /// Most events simultaneously live (scheduled, not yet fired/cancelled).
  [[nodiscard]] std::size_t live_high_water() const noexcept {
    return live_hw_;
  }
  /// Slab capacity in slots (a multiple of the 256-entry block size).
  [[nodiscard]] std::size_t slab_slots() const noexcept {
    return meta_.size();
  }

 private:
  template <typename T, typename Fire>
  friend class FifoLane;

  /// The ordering key and tag an event takes when it is scheduled.
  struct Reservation {
    std::uint32_t seq;
    EventCategory cat;
  };

  /// The first half of every schedule: the next seq, the current category,
  /// and one more live event. FifoLane calls it at push time, so
  /// live_high_water and pending() count a lane entry before the heap
  /// sees it, exactly as for a plain schedule_at.
  Reservation reserve() noexcept {
    ++live_;
    live_hw_ = live_ > live_hw_ ? live_ : live_hw_;
    return Reservation{next_seq_++, cat_};
  }

  /// The second half for a FifoLane entry that became its lane's head:
  /// the reserved key goes in the heap (`t` already clamped), not counted
  /// live again.
  template <typename F>
  void schedule_reserved(Picos t, Reservation r, F&& fn) {
    const std::uint32_t slot = acquire_slot_();
    fn_(slot).emplace(std::forward<F>(fn));
    heap_arm_(t, r, slot, meta_[slot]);
  }

  static constexpr std::uint32_t kNilSlot =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint32_t kSlotBlockShift = 8;
  static constexpr std::uint32_t kSlotBlockSize = 1u << kSlotBlockShift;

  /// Slim 16-byte heap entry; the closure stays put in the slab while
  /// entries are sifted around.
  struct HeapEntry {
    Picos time;
    std::uint32_t seq;  ///< tiebreaker: FIFO among same-time events
    std::uint32_t slot;
  };

  enum class State : std::uint8_t { kFree, kPending, kCancelled, kRunning };

  /// Slot bookkeeping lives in a dense parallel array (12 B/slot) so the
  /// cancel-check on the pop path stays L1-resident even when the closure
  /// slab has outgrown the cache.
  /// Which structure currently holds a kPending slot's {time, seq} entry.
  enum class Where : std::uint8_t { kHeap, kWheel };

  struct SlotMeta {
    std::uint32_t gen = 1;  ///< bumped on release; stale ids mismatch
    std::uint32_t next_free = kNilSlot;
    State state = State::kFree;
    /// EventCategory of the pending event; rides in padding, so the
    /// telemetry tag costs no slot-metadata footprint at all.
    std::uint8_t category = 0;
    /// Rides in the remaining padding byte: cancel() must know whether to
    /// unlink from the wheel (eager, O(1)) or mark for the lazy heap skim.
    Where where = Where::kHeap;
  };

  /// `seq` is a wrapping 32-bit counter; events pending at the same time
  /// always span far less than 2^31 seqs, so circular comparison gives the
  /// exact FIFO order while keeping heap entries at 16 bytes.
  static bool before_(const HeapEntry& a, const HeapEntry& b) noexcept {
    // Bitwise (not short-circuit) composition so the comparison compiles to
    // flag ops + cmov: the sift loops select among random keys, and a
    // branchy two-field compare costs a mispredict per level.
    const bool lt = a.time < b.time;
    const bool eq = a.time == b.time;
    const bool seq_lt = static_cast<std::int32_t>(a.seq - b.seq) < 0;
    return lt | (eq & seq_lt);
  }

  [[nodiscard]] static EventId id_of_(std::uint32_t slot,
                                      std::uint32_t gen) noexcept {
    return EventId{(static_cast<std::uint64_t>(gen) << 32) | slot};
  }

  [[nodiscard]] UniqueFn& fn_(std::uint32_t i) noexcept {
    return blocks_[i >> kSlotBlockShift][i & (kSlotBlockSize - 1)];
  }

  void heap_arm_(Picos t, Reservation r, std::uint32_t slot, SlotMeta& m) {
    m.state = State::kPending;
    m.category = static_cast<std::uint8_t>(r.cat);
    m.where = Where::kHeap;
    heap_push_(HeapEntry{t, r.seq, slot});
  }

  EventId arm_(Picos t, std::uint32_t slot, SlotMeta& m) {
    heap_arm_(t > now_ ? t : now_, reserve(), slot, m);
    return id_of_(slot, m.gen);
  }

  /// arm_ with wheel routing. The seq is consumed identically on both
  /// routes, so the fired (time, seq) order — and every sim-only counter
  /// derived from it — does not depend on where the entry waited.
  EventId arm_bulk_(Picos t, std::uint32_t slot, SlotMeta& m) {
    const Picos when = t > now_ ? t : now_;
    const Reservation r = reserve();
    if (wheel_enabled_ && wheel_.schedule(when, r.seq, slot)) {
      m.state = State::kPending;
      m.category = static_cast<std::uint8_t>(r.cat);
      m.where = Where::kWheel;
    } else {
      if (wheel_enabled_) ++wheel_spilled_;
      heap_arm_(when, r, slot, m);
    }
    return id_of_(slot, m.gen);
  }

  std::uint32_t acquire_slot_() {
    if (free_head_ == kNilSlot) add_block_();
    const std::uint32_t slot = free_head_;
    free_head_ = meta_[slot].next_free;
    // Overlap the next acquisition's slab write-miss with this event's setup.
    if (free_head_ != kNilSlot) __builtin_prefetch(&fn_(free_head_), 1, 1);
    return slot;
  }

  /// Precondition: the slot's closure is already empty — consume() emptied
  /// it on the fire path, cancel() reset it before the lazy skim.
  void release_slot_(std::uint32_t slot) noexcept {
    SlotMeta& m = meta_[slot];
    // Bump the generation so any EventId still pointing here goes stale.
    // gen 0 is reserved: it would make {gen, slot 0} collide with the null id.
    if (++m.gen == 0) m.gen = 1;
    m.state = State::kFree;
    m.next_free = free_head_;
    free_head_ = slot;
  }

  /// Run the closure in place (block addresses are stable, so reentrant
  /// scheduling can't move it), then recycle the slot. While running, the
  /// slot is off both the heap and the free list: kRunning just makes a
  /// same-generation cancel from within the callback report false, as a
  /// fired event always has.
  void fire_(std::uint32_t slot) {
    fn_(slot).consume();  // invoke + destroy in one dispatch
    release_slot_(slot);
  }

  /// fire_ plus the observability hooks. One predictable branch each for
  /// tracing and handler timing when both are off — the hot-path cost the
  /// bench_telemetry gate holds to single digits.
  void dispatch_(std::uint32_t slot) {
    const std::uint8_t cat = meta_[slot].category;
    if (trace_) {
      trace_->complete(trace_tracks_[cat],
                       event_category_name(static_cast<EventCategory>(cat)),
                       now_, 0);
    }
    if (timing_) {
      const auto t0 = std::chrono::steady_clock::now();
      fire_(slot);
      handler_ns_[cat] += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    } else {
      fire_(slot);
    }
  }

  /// Skim cancelled entries off the heap head, drain any due wheel
  /// buckets into the heap, then pop the next live event if its time is
  /// <= `limit`. Returns its slot (kRunning, already off the heap) and
  /// fills `time`, or kNilSlot.
  ///
  /// Order matters: cancelled heads are skimmed *before* the drain bound
  /// is computed, so the bound is the live heap head. A cancelled head's
  /// (possibly earlier) time must not mask a due wheel bucket, or a live
  /// heap entry could fire ahead of a wheel entry that sorts before it.
  std::uint32_t pop_next_live_(Picos limit, Picos& time) {
    for (;;) {
      while (!heap_.empty() &&
             meta_[heap_.front().slot].state == State::kCancelled) {
        release_slot_(heap_.front().slot);
        heap_pop_();
      }
      if (wheel_.has_pending()) {
        const Picos head =
            heap_.empty() ? std::numeric_limits<Picos>::max()
                          : heap_.front().time;
        const Picos bound = head < limit ? head : limit;
        const Picos due = wheel_.next_due();
        if (due <= bound) {
          // Migrate the earliest due bucket onto the heap with its exact
          // arm-time keys; the heap merges it into the global (time, seq)
          // order. Draining only to `due` — not all the way to `bound` —
          // keeps far-future entries parked in O(1) buckets instead of
          // mass-migrating the whole window when the heap happens to be
          // empty; the loop re-evaluates with the updated heap head.
          wheel_.drain_until(due, [this](Picos t, std::uint32_t seq,
                                         std::uint32_t slot) {
            meta_[slot].where = Where::kHeap;
            heap_push_(HeapEntry{t, seq, slot});
          });
          continue;  // the heap head may have changed
        }
      }
      if (heap_.empty() || heap_.front().time > limit) return kNilSlot;
      const HeapEntry top = heap_.front();
      meta_[top.slot].state = State::kRunning;
      --live_;
      heap_pop_();
      // Overlap the next closure's slab miss with this one's execution.
      if (!heap_.empty()) __builtin_prefetch(&fn_(heap_.front().slot), 1, 1);
      time = top.time;
      return top.slot;
    }
  }

  // Hole-shifting sift-up/down: one final store instead of a swap per level.
  void heap_push_(const HeapEntry& e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    heap_hw_ = heap_.size() > heap_hw_ ? heap_.size() : heap_hw_;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!before_(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void heap_pop_() {
    const HeapEntry tail = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    // Floyd's variant: walk the min-child path all the way to a leaf, then
    // bubble the tail up — skips the per-level tail comparison, and the
    // tail (a former leaf) almost always belongs near the bottom anyway.
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      const std::size_t last = first + 4 < n ? first + 4 : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        best = before_(heap_[c], heap_[best]) ? c : best;
      }
      heap_[i] = heap_[best];
      i = best;
    }
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!before_(tail, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = tail;
  }

  void add_block_();
  /// Out of line: the throw paths stay off the step() fast path.
  void check_watchdog_() const;

  Picos now_ = 0;
  std::uint32_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t live_ = 0;  ///< scheduled and not yet fired/cancelled
  std::size_t live_hw_ = 0;
  std::size_t heap_hw_ = 0;
  EventCategory cat_ = EventCategory::kGeneric;
  std::uint64_t budget_ = 0;  ///< 0 = unlimited
  std::chrono::steady_clock::time_point wall_deadline_{};
  bool wall_armed_ = false;
  bool watchdog_on_ = false;  ///< budget_ != 0 || wall_armed_
  bool timing_ = false;
  telemetry::TraceRecorder* trace_ = nullptr;
  telemetry::TraceRecorder::TrackId trace_tracks_[kEventCategoryCount] = {};
  std::uint64_t handler_ns_[kEventCategoryCount] = {};
  std::vector<HeapEntry> heap_;
  /// Staging area for schedule_bulk_* timers; drains into heap_ when due.
  TimerWheel wheel_;
  bool wheel_enabled_ = true;
  std::uint64_t wheel_spilled_ = 0;  ///< bulk timers the wheel refused
  /// Fixed-size blocks: closure addresses are stable across slab growth,
  /// so a closure can run in place while scheduling new events.
  std::vector<std::unique_ptr<UniqueFn[]>> blocks_;
  std::vector<SlotMeta> meta_;  ///< parallel to slot indices
  std::uint32_t free_head_ = kNilSlot;
};

}  // namespace osnt::sim
