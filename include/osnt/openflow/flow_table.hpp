// OpenFlow 1.0 flow table: ADD semantics, priority lookup, per-flow
// counters. Lookup is linear in priority order — the software analogue of
// a TCAM walk.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "osnt/common/time.hpp"
#include "osnt/openflow/messages.hpp"

namespace osnt::openflow {

struct FlowEntry {
  OfMatch match;
  std::uint16_t priority = 0x8000;
  std::uint64_t cookie = 0;
  std::vector<Action> actions;
  Picos installed_at = 0;
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
};

struct FlowTableConfig {
  std::size_t max_entries = 4096;
};

class FlowTable {
 public:
  using Config = FlowTableConfig;

  explicit FlowTable(Config cfg = Config()) noexcept : cfg_(cfg) {}

  enum class ModResult : std::uint8_t {
    kAdded,
    kTableFull,
    kUnsupported,  ///< not an ADD, or an ADD with flags or timeouts
  };

  /// Apply a flow_mod at simulated time `now`. The table carries out an
  /// ADD with no flags and no timeouts: it replaces the entry with the
  /// same match and priority (counters reset), or inserts a new one.
  ModResult apply(const FlowMod& mod, Picos now);

  /// Highest-priority entry matching a packet's concrete match; updates
  /// counters when `wire_bytes` > 0. Ties broken by install order.
  [[nodiscard]] const FlowEntry* lookup(const OfMatch& concrete,
                                        std::size_t wire_bytes = 0);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] const std::vector<FlowEntry>& entries() const noexcept {
    return entries_;
  }

  /// Entries matching a stats request (non-strict match, out_port filter).
  [[nodiscard]] std::vector<const FlowEntry*> collect_stats(
      const FlowStatsRequest& req) const;

  [[nodiscard]] std::uint64_t lookups() const noexcept { return lookups_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

 private:
  [[nodiscard]] bool outputs_to(const FlowEntry& e,
                                std::uint16_t port) const noexcept;

  Config cfg_;
  std::vector<FlowEntry> entries_;  ///< kept sorted: priority desc
  std::uint64_t lookups_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace osnt::openflow
