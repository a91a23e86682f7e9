#include "osnt/openflow/flow_table.hpp"

#include <algorithm>

namespace osnt::openflow {

bool FlowTable::outputs_to(const FlowEntry& e,
                           std::uint16_t port) const noexcept {
  if (port == ofpp::kNone) return true;  // no filter
  for (const auto& a : e.actions) {
    if (const auto* out = std::get_if<ActionOutput>(&a);
        out && out->port == port)
      return true;
  }
  return false;
}

FlowTable::ModResult FlowTable::apply(const FlowMod& mod, Picos now) {
  if (mod.command != FlowModCommand::kAdd || mod.flags != 0 ||
      mod.idle_timeout != 0 || mod.hard_timeout != 0)
    return ModResult::kUnsupported;
  // Identical match+priority replaces (per OF 1.0 §4.6).
  for (auto& e : entries_) {
    if (e.priority == mod.priority && e.match == mod.match) {
      e.actions = mod.actions;
      e.cookie = mod.cookie;
      e.installed_at = now;
      e.packet_count = 0;
      e.byte_count = 0;
      return ModResult::kAdded;
    }
  }
  if (entries_.size() >= cfg_.max_entries) return ModResult::kTableFull;
  FlowEntry e;
  e.match = mod.match;
  e.priority = mod.priority;
  e.cookie = mod.cookie;
  e.actions = mod.actions;
  e.installed_at = now;
  // Insert keeping priority-descending, stable among equals.
  const auto pos = std::upper_bound(
      entries_.begin(), entries_.end(), e.priority,
      [](std::uint16_t p, const FlowEntry& x) { return p > x.priority; });
  entries_.insert(pos, std::move(e));
  return ModResult::kAdded;
}

const FlowEntry* FlowTable::lookup(const OfMatch& concrete,
                                   std::size_t wire_bytes) {
  ++lookups_;
  for (auto& e : entries_) {
    if (e.match.matches_packet(concrete)) {
      if (wire_bytes > 0) {
        ++e.packet_count;
        e.byte_count += wire_bytes;
      }
      return &e;
    }
  }
  ++misses_;
  return nullptr;
}

std::vector<const FlowEntry*> FlowTable::collect_stats(
    const FlowStatsRequest& req) const {
  std::vector<const FlowEntry*> out;
  for (const auto& e : entries_) {
    if (req.match.covers(e.match) && outputs_to(e, req.out_port))
      out.push_back(&e);
  }
  return out;
}

}  // namespace osnt::openflow
