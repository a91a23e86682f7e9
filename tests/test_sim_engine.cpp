// Discrete-event engine invariants: ordering, determinism, cancellation.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "osnt/sim/engine.hpp"
#include "osnt/sim/lane.hpp"
#include "osnt/telemetry/trace.hpp"

namespace osnt::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(300, [&] { order.push_back(3); });
  e.schedule_at(100, [&] { order.push_back(1); });
  e.schedule_at(200, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 300);
}

TEST(Engine, SameTimeIsFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    e.schedule_at(50, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, ScheduleInPastClampsToNow) {
  Engine e;
  e.schedule_at(100, [] {});
  e.run();
  Picos fired_at = -1;
  e.schedule_at(50, [&] { fired_at = e.now(); });
  e.run();
  EXPECT_EQ(fired_at, 100);
}

TEST(Engine, NestedScheduling) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) e.schedule_in(10, recurse);
  };
  e.schedule_at(0, recurse);
  e.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(e.now(), 40);
}

TEST(Engine, CancelPreventsFiring) {
  Engine e;
  bool fired = false;
  const EventId id = e.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelTwiceFails) {
  Engine e;
  const EventId id = e.schedule_at(10, [] {});
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, CancelAfterFireFails) {
  Engine e;
  const EventId id = e.schedule_at(10, [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, CancelDefaultIdFails) {
  Engine e;
  EXPECT_FALSE(e.cancel(EventId{}));
}

TEST(Engine, RunUntilAdvancesExactly) {
  Engine e;
  int fired = 0;
  e.schedule_at(100, [&] { ++fired; });
  e.schedule_at(200, [&] { ++fired; });
  e.schedule_at(300, [&] { ++fired; });
  e.run_until(200);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.now(), 200);
  EXPECT_EQ(e.pending(), 1u);
  e.run_until(1000);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(e.now(), 1000);
}

TEST(Engine, RunUntilWithCancelledHead) {
  Engine e;
  bool fired = false;
  const EventId id = e.schedule_at(50, [&] { fired = true; });
  e.schedule_at(150, [] {});
  e.cancel(id);
  e.run_until(100);
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.now(), 100);
  EXPECT_EQ(e.pending(), 1u);
}

TEST(Engine, PendingCountsLiveEventsOnly) {
  Engine e;
  const EventId a = e.schedule_at(10, [] {});
  e.schedule_at(20, [] {});
  EXPECT_EQ(e.pending(), 2u);
  e.cancel(a);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, EventsProcessedCounter) {
  Engine e;
  for (int i = 0; i < 7; ++i) e.schedule_at(i, [] {});
  e.run();
  EXPECT_EQ(e.events_processed(), 7u);
}

TEST(Engine, StaleIdCannotCancelSlotReuse) {
  // After an event fires, its slot goes back on the free list and its
  // generation is bumped. A new event reusing the slot must be immune to
  // the old (now stale) EventId.
  Engine e;
  const EventId first = e.schedule_at(10, [] {});
  e.run();  // fires `first`; its slot is recycled

  // The engine hands out slots LIFO, so this reuses the same slot.
  bool fired = false;
  const EventId second = e.schedule_at(20, [&] { fired = true; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(e.cancel(first));  // stale id: different generation
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, StaleIdAfterCancelCannotCancelSlotReuse) {
  // Same as above, but the first occupant was cancelled rather than fired.
  Engine e;
  const EventId first = e.schedule_at(10, [] { FAIL(); });
  EXPECT_TRUE(e.cancel(first));
  e.run_until(15);  // drains the cancelled entry, recycling the slot

  bool fired = false;
  e.schedule_at(20, [&] { fired = true; });
  EXPECT_FALSE(e.cancel(first));
  e.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, CancelFromWithinRunningEventReturnsFalse) {
  // An event cancelling itself while running is a no-op: it already left
  // the pending set, exactly as if it had finished firing.
  Engine e;
  EventId self;
  bool saw_false = false;
  self = e.schedule_at(5, [&] { saw_false = !e.cancel(self); });
  e.run();
  EXPECT_TRUE(saw_false);
  EXPECT_EQ(e.events_processed(), 1u);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, FifoOrderSurvivesSlabGrowth) {
  // More same-time events than one 256-entry slab block: growth must not
  // disturb FIFO order among equal timestamps.
  constexpr int kEvents = 1000;
  Engine e;
  std::vector<int> order;
  order.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    e.schedule_at(42, [&order, i] { order.push_back(i); });
  }
  e.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, EventBudgetKillsLivelock) {
  Engine e;
  e.set_event_budget(1000);
  // A self-rescheduling event at a fixed time: sim time never advances,
  // so only the event budget can stop this.
  std::uint64_t fired = 0;
  std::function<void()> self = [&] {
    ++fired;
    e.schedule_at(e.now(), [&] { self(); });
  };
  e.schedule_at(0, [&] { self(); });
  try {
    e.run();
    FAIL() << "livelock was not killed";
  } catch (const WatchdogError& err) {
    EXPECT_EQ(err.kind(), WatchdogKind::kEventBudget);
  }
  EXPECT_EQ(e.events_processed(), 1000u);
  EXPECT_EQ(fired, 1000u);
}

TEST(Engine, BudgetExactlySufficientDoesNotTrip) {
  Engine e;
  e.set_event_budget(10);
  int fired = 0;
  for (int i = 0; i < 10; ++i) e.schedule_at(i, [&] { ++fired; });
  EXPECT_NO_THROW(e.run());
  EXPECT_EQ(fired, 10);
}

TEST(Engine, WatchdogScopeIsAdoptedByNewEngines) {
  {
    const WatchdogScope wd{WatchdogConfig{.event_budget = 5}};
    Engine e;  // constructed inside the scope → inherits the budget
    EXPECT_EQ(e.event_budget(), 5u);
    for (int i = 0; i < 20; ++i) e.schedule_at(i, [] {});
    EXPECT_THROW(e.run(), WatchdogError);
  }
  Engine outside;  // scope restored → unlimited again
  EXPECT_EQ(outside.event_budget(), 0u);
  for (int i = 0; i < 20; ++i) outside.schedule_at(i, [] {});
  EXPECT_NO_THROW(outside.run());
}

TEST(Engine, WallClockDeadlineKillsRunawayRun) {
  Engine e;
  e.set_wall_deadline_in(50);  // ms
  std::function<void()> self = [&] { e.schedule_at(e.now(), [&] { self(); }); };
  e.schedule_at(0, [&] { self(); });
  try {
    e.run();
    FAIL() << "wall deadline did not fire";
  } catch (const WatchdogError& err) {
    EXPECT_EQ(err.kind(), WatchdogKind::kWallClock);
  }
}

TEST(Engine, DeterministicInterleaving) {
  // Two runs with the same schedule produce identical orders.
  auto run_once = [] {
    Engine e;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      e.schedule_at((i * 37) % 100, [&order, i] { order.push_back(i); });
    }
    e.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------- lanes

using FireLog = std::vector<std::pair<int, Picos>>;

/// Owns heap memory, so ASan sees a lane entry that leaks or is freed twice.
struct LaneItem {
  std::unique_ptr<int> tag;
};

struct LaneScenario;

struct LaneFire {
  LaneScenario* s;
  void operator()(LaneItem&& item) const;
};

/// A seeded mix of monotone lane pushes, out-of-order pushes, plain events
/// on the same picoseconds, cancels, and pushes made from handlers. With
/// `lanes_on` false every push is a plain schedule_at instead: the
/// reference a lane must match event for event.
struct LaneScenario {
  static constexpr std::size_t kLanes = 4;
  static constexpr Picos kStep = 1000;

  LaneScenario(bool on, std::uint32_t seed) : lanes_on(on), rng(seed) {
    eng.set_trace(&trace);
    for (std::size_t i = 0; i < kLanes; ++i) {
      lanes.push_back(std::make_unique<FifoLane<LaneItem, LaneFire>>(
          eng, LaneFire{this}));
    }
  }

  void on_fire(int tag) {
    log.emplace_back(tag, eng.now());
    if (budget > 0 && rng() % 3 == 0) {
      --budget;
      ++nested;
      step();
    }
  }

  void push(std::size_t lane, Picos t) {
    const int tag = next_tag++;
    const Engine::CategoryScope cat(eng, EventCategory::kLink);
    if (lanes_on) {
      lanes[lane]->push(t, LaneItem{std::make_unique<int>(tag)});
    } else {
      eng.schedule_at(t, [this, tag] { on_fire(tag); });
    }
  }

  void push_monotone(std::size_t lane) {
    // Steps of zero put several entries of one lane on the same picosecond.
    tail[lane] = std::max(tail[lane], eng.now()) +
                 static_cast<Picos>(rng() % 4) * kStep;
    pushed_times.push_back(tail[lane]);
    push(lane, tail[lane]);
  }

  void push_out_of_order(std::size_t lane) {
    if (tail[lane] <= eng.now()) return push_monotone(lane);
    ++out_of_order;
    push(lane, eng.now() + static_cast<Picos>(
                               rng() % static_cast<std::uint64_t>(
                                           tail[lane] - eng.now())));
  }

  void schedule_plain() {
    // Half land exactly on a lane's latest entry time.
    const Picos t = rng() % 2 == 0
                        ? tail[rng() % kLanes]
                        : eng.now() + static_cast<Picos>(rng() % 8) * kStep;
    const int tag = next_tag++;
    ++plain;
    plain_ids.push_back(eng.schedule_at(t, [this, tag] { on_fire(tag); }));
  }

  void step() {
    switch (rng() % 8) {
      case 0: push_out_of_order(rng() % kLanes); break;
      case 1: schedule_plain(); break;
      case 2:
        if (!plain_ids.empty()) eng.cancel(plain_ids[rng() % plain_ids.size()]);
        break;
      default: push_monotone(rng() % kLanes); break;
    }
  }

  /// Seed `n` steps, stop at run_until limits spread over the seeded
  /// lane times (so each lands mid-lane), then drain.
  void run(int n) {
    for (int i = 0; i < n; ++i) step();
    std::vector<Picos> times = pushed_times;
    std::sort(times.begin(), times.end());
    for (std::size_t k = 1; k < 8; ++k) {
      eng.run_until(times[k * times.size() / 8] + (k % 2 == 0 ? 0 : 1));
      pending_after.push_back(eng.pending());
    }
    eng.run();
  }

  [[nodiscard]] std::string trace_json() const {
    std::ostringstream os;
    trace.write_chrome_json(os);
    return os.str();
  }

  bool lanes_on;
  std::mt19937 rng;
  telemetry::TraceRecorder trace;
  Engine eng;
  std::vector<std::unique_ptr<FifoLane<LaneItem, LaneFire>>> lanes;
  Picos tail[kLanes] = {};
  std::vector<Picos> pushed_times;
  std::vector<EventId> plain_ids;
  std::vector<std::size_t> pending_after;
  FireLog log;
  int next_tag = 0;
  int budget = 1000;  ///< steps handlers may still take
  int nested = 0;
  int out_of_order = 0;
  int plain = 0;
};

void LaneFire::operator()(LaneItem&& item) const { s->on_fire(*item.tag); }

TEST(Engine, LaneFiringOrderMatchesPlainScheduleExactly) {
  for (std::uint32_t seed : {1u, 7u, 42u, 1234u}) {
    LaneScenario lanes(true, seed);
    LaneScenario ref(false, seed);
    // ~600 entries per lane: every lane spans several chunks.
    lanes.run(4000);
    ref.run(4000);
    SCOPED_TRACE(seed);
    EXPECT_EQ(lanes.log, ref.log);
    EXPECT_EQ(lanes.pending_after, ref.pending_after);
    EXPECT_EQ(lanes.eng.events_processed(), ref.eng.events_processed());
    EXPECT_EQ(lanes.eng.events_cancelled(), ref.eng.events_cancelled());
    EXPECT_EQ(lanes.eng.live_high_water(), ref.eng.live_high_water());
    EXPECT_EQ(lanes.trace_json(), ref.trace_json());  // same categories
    EXPECT_LE(lanes.eng.heap_high_water(),
              LaneScenario::kLanes + static_cast<std::size_t>(
                                         lanes.plain + lanes.out_of_order));
    // Guard against the scenario degenerating into something trivial.
    EXPECT_LT(lanes.eng.heap_high_water(), ref.eng.heap_high_water());
    EXPECT_GT(lanes.out_of_order, 0);
    EXPECT_GT(lanes.nested, 0);
    EXPECT_GT(lanes.eng.events_cancelled(), 0u);
    EXPECT_TRUE(std::adjacent_find(lanes.log.begin(), lanes.log.end(),
                                   [](const auto& a, const auto& b) {
                                     return a.second == b.second;
                                   }) != lanes.log.end());
  }
}

TEST(Engine, LaneWatchdogTripsOnTheSameEvent) {
  const auto run_budgeted = [](bool on) {
    LaneScenario s(on, 99);
    s.eng.set_event_budget(2500);
    EXPECT_THROW(s.run(4000), WatchdogError);
    return std::make_pair(s.log, s.eng.events_processed());
  };
  const auto lanes = run_budgeted(true);
  const auto ref = run_budgeted(false);
  EXPECT_EQ(lanes, ref);
  EXPECT_EQ(lanes.second, 2500u);
}

TEST(Engine, LaneKeepsOneHeapEntryWhateverItsDepth) {
  Engine e;
  std::vector<int> fired;
  struct Record {
    std::vector<int>* out;
    void operator()(int&& v) const { out->push_back(v); }
  };
  FifoLane<int, Record> lane(e, Record{&fired});
  for (int i = 0; i < 1000; ++i) lane.push(10 + i / 3, int{i});
  EXPECT_EQ(e.pending(), 1000u);
  EXPECT_EQ(e.live_high_water(), 1000u);
  EXPECT_EQ(e.heap_high_water(), 1u);
  e.run();
  ASSERT_EQ(fired.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(Engine, LaneTeardownWithPendingEntriesIsLeakFree) {
  // Entries span several chunks and an out-of-order push waits in the
  // heap as a plain event. Either owner may go first: the engine never
  // invokes the lane on teardown, and the lane never touches the engine.
  struct Count {
    int* n;
    void operator()(LaneItem&&) const { ++*n; }
  };
  for (const bool engine_first : {true, false}) {
    int fired = 0;
    auto eng = std::make_unique<Engine>();
    auto lane = std::make_unique<FifoLane<LaneItem, Count>>(*eng, Count{&fired});
    for (int i = 0; i < 1000; ++i) {
      lane->push(1000 + i, LaneItem{std::make_unique<int>(i)});
    }
    lane->push(3000, LaneItem{std::make_unique<int>(-1)});  // joins the tail
    lane->push(1500, LaneItem{std::make_unique<int>(-2)});  // out of order
    eng->run_until(1299);
    EXPECT_EQ(fired, 300);
    EXPECT_EQ(eng->pending(), 702u);
    if (engine_first) {
      eng.reset();
      lane.reset();
    } else {
      lane.reset();
      eng.reset();
    }
  }
}

}  // namespace
}  // namespace osnt::sim
