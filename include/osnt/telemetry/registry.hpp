// Process-wide metrics registry (the software twin of OSNT's monitoring
// registers): named counters, gauges, and log2 histograms, cheap enough
// to leave compiled in and enabled. Counters are plain relaxed atomics;
// a histogram record is a branch-free bucket increment. High-rate layers
// do not even pay the atomic per event — they accumulate in plain local
// shards (one sim::Engine / pipeline = one shard) and merge into the
// registry once, at end of life; merging is commutative (sums, maxes,
// bucket adds), which is what keeps `--jobs N` snapshots byte-identical
// for any worker count.
//
// Naming convention: metric names are dot-separated families
// (`sim.engine.*`, `gen.tx.*`, `mon.rx.*`, `hw.dma.*`, `core.runner.*`).
// Anything derived from the host's wall clock — as opposed to simulated
// time — MUST have a "wall" segment in its name; likewise anything
// describing *how* the engine executed (timer routing, slab growth) as
// opposed to what the simulation did MUST have an "impl" segment.
// `Snapshot::kSimOnly` filters both out so determinism checks can compare
// the rest bit-exactly across worker counts and execution strategies.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "osnt/telemetry/histogram.hpp"

namespace osnt::telemetry {

/// Global kill switch. When false, instrumented layers skip their
/// end-of-life merges (the per-event cost is already near zero either
/// way — bench/bench_telemetry.cpp holds that to within single digits).
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Monotonic sum. Relaxed atomic: addition commutes, so concurrent shards
/// merging in any order produce the same total.
class Counter {
 public:
  void add(std::uint64_t n) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time value. `set`/`add` for last-writer-wins readings,
/// `update_max` for high-water marks (max commutes, so high-water gauges
/// stay deterministic under concurrent shard merges; `set` does not and
/// is reserved for wall-domain metrics).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  void update_max(std::int64_t v) noexcept {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Thread-safe log2 histogram: the registry-side accumulator local
/// Log2Histogram shards merge into. Direct record() is also supported for
/// low-rate call sites.
class SharedHistogram {
 public:
  void record(std::uint64_t v) noexcept;
  void merge(const Log2Histogram& shard) noexcept;
  /// Consistent-enough copy for reporting (exact once writers are done).
  [[nodiscard]] Log2Histogram snapshot() const noexcept;
  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> counts_[Log2Histogram::kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

/// Which metrics a snapshot includes. kSimOnly drops every metric whose
/// name has a "wall" (host-clock domain) or "impl" (execution-strategy
/// internals) segment — the remainder is derived from simulated time
/// only and must be byte-identical for any --jobs value or timer routing.
enum class Snapshot : std::uint8_t { kAll, kSimOnly };

class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Lookup-or-create. Returned references are stable for the registry's
  /// lifetime (metrics are never erased; reset() zeroes them in place),
  /// so hot layers resolve once and cache the pointer.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] SharedHistogram& histogram(std::string_view name);

  /// JSON snapshot: {"counters":{...},"gauges":{...},"histograms":{...}}
  /// with names sorted, so identical metric values render identical bytes.
  [[nodiscard]] std::string to_json(Snapshot mode = Snapshot::kAll) const;
  bool write_json(const std::string& path, Snapshot mode = Snapshot::kAll) const;

  /// Zero every registered metric (registrations and addresses survive).
  void reset();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The process-wide registry instance.
[[nodiscard]] Registry& registry();

}  // namespace osnt::telemetry
