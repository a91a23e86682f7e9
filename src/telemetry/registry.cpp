#include "osnt/telemetry/registry.hpp"

#include <cstdio>
#include <map>
#include <mutex>

namespace osnt::telemetry {
namespace {

std::atomic<bool> g_enabled{true};

void atomic_update_min(std::atomic<std::uint64_t>& a,
                       std::uint64_t v) noexcept {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_update_max(std::atomic<std::uint64_t>& a,
                       std::uint64_t v) noexcept {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Shortest round-trippable decimal; identical doubles always render the
/// same bytes, which the determinism checks rely on.
std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Stats excluded from kSimOnly snapshots: a "wall" segment marks
/// host-time measurements, an "impl" segment marks implementation
/// internals that vary with execution strategy (timer routing, slot
/// recycling) while the simulated universe — and everything else in the
/// snapshot — is unchanged. Only whole dot-separated segments count, so a
/// block named "firewall" or "simple_q" keeps its graph.<name>.* stats.
bool is_host_dependent(std::string_view name) noexcept {
  for (;;) {
    const std::size_t dot = name.find('.');
    const std::string_view segment = name.substr(0, dot);
    if (segment == "wall" || segment == "impl") return true;
    if (dot == std::string_view::npos) return false;
    name.remove_prefix(dot + 1);
  }
}

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

void SharedHistogram::record(std::uint64_t v) noexcept {
  counts_[Log2Histogram::bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  atomic_update_min(min_, v);
  atomic_update_max(max_, v);
}

void SharedHistogram::merge(const Log2Histogram& shard) noexcept {
  if (shard.count() == 0) return;
  for (std::size_t b = 0; b < Log2Histogram::kBuckets; ++b) {
    const std::uint64_t c = shard.bucket_count(b);
    if (c) counts_[b].fetch_add(c, std::memory_order_relaxed);
  }
  count_.fetch_add(shard.count(), std::memory_order_relaxed);
  sum_.fetch_add(shard.sum(), std::memory_order_relaxed);
  atomic_update_min(min_, shard.min());
  atomic_update_max(max_, shard.max());
}

Log2Histogram SharedHistogram::snapshot() const noexcept {
  std::array<std::uint64_t, Log2Histogram::kBuckets> counts;
  for (std::size_t b = 0; b < Log2Histogram::kBuckets; ++b)
    counts[b] = counts_[b].load(std::memory_order_relaxed);
  return Log2Histogram::from_parts(counts,
                                   count_.load(std::memory_order_relaxed),
                                   sum_.load(std::memory_order_relaxed),
                                   min_.load(std::memory_order_relaxed),
                                   max_.load(std::memory_order_relaxed));
}

void SharedHistogram::reset() noexcept {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

struct Registry::Impl {
  mutable std::mutex mu;
  // std::map: sorted iteration gives deterministic JSON; unique_ptr keeps
  // metric addresses stable across rehash-free inserts.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<SharedHistogram>, std::less<>> hists;
};

Registry::Registry() : impl_(std::make_unique<Impl>()) {}
Registry::~Registry() = default;

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->counters.find(name);
  if (it == impl_->counters.end()) {
    it = impl_->counters
             .emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->gauges.find(name);
  if (it == impl_->gauges.end()) {
    it = impl_->gauges.emplace(std::string(name), std::make_unique<Gauge>())
             .first;
  }
  return *it->second;
}

SharedHistogram& Registry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->hists.find(name);
  if (it == impl_->hists.end()) {
    it = impl_->hists
             .emplace(std::string(name), std::make_unique<SharedHistogram>())
             .first;
  }
  return *it->second;
}

std::string Registry::to_json(Snapshot mode) const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  const bool all = mode == Snapshot::kAll;
  std::string out = "{\n \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : impl_->counters) {
    if (!all && is_host_dependent(name)) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "  \"" + name + "\": " + std::to_string(c->value());
  }
  out += "\n },\n \"gauges\": {";
  first = true;
  for (const auto& [name, g] : impl_->gauges) {
    if (!all && is_host_dependent(name)) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "  \"" + name + "\": " + std::to_string(g->value());
  }
  out += "\n },\n \"histograms\": {";
  first = true;
  for (const auto& [name, h] : impl_->hists) {
    if (!all && is_host_dependent(name)) continue;
    out += first ? "\n" : ",\n";
    first = false;
    const Log2Histogram snap = h->snapshot();
    out += "  \"" + name + "\": {\"count\": " + std::to_string(snap.count()) +
           ", \"sum\": " + std::to_string(snap.sum()) +
           ", \"min\": " + std::to_string(snap.min()) +
           ", \"max\": " + std::to_string(snap.max()) +
           ", \"p50\": " + fmt_double(snap.quantile(0.50)) +
           ", \"p99\": " + fmt_double(snap.quantile(0.99)) +
           ", \"p999\": " + fmt_double(snap.quantile(0.999)) +
           ", \"buckets\": [";
    bool bfirst = true;
    for (std::size_t b = 0; b < Log2Histogram::kBuckets; ++b) {
      const std::uint64_t c = snap.bucket_count(b);
      if (c == 0) continue;
      if (!bfirst) out += ", ";
      bfirst = false;
      out += '[';
      out += std::to_string(b);
      out += ", ";
      out += std::to_string(c);
      out += ']';
    }
    out += "]}";
  }
  out += "\n }\n}\n";
  return out;
}

bool Registry::write_json(const std::string& path, Snapshot mode) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string json = to_json(mode);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& [name, c] : impl_->counters) c->reset();
  for (auto& [name, g] : impl_->gauges) g->reset();
  for (auto& [name, h] : impl_->hists) h->reset();
}

Registry& registry() {
  static Registry* g = new Registry();  // leaked: usable from any dtor
  return *g;
}

}  // namespace osnt::telemetry
