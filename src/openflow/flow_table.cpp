#include "osnt/openflow/flow_table.hpp"

#include <algorithm>

namespace osnt::openflow {
namespace {

bool strict_equal(const FlowEntry& e, const FlowMod& mod) noexcept {
  return e.priority == mod.priority && e.match == mod.match;
}

}  // namespace

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
  switch (mod.command) {
    case FlowModCommand::kAdd: {
      if (mod.flags & off::kCheckOverlap) {
        for (const auto& e : entries_) {
          if (e.priority == mod.priority &&
              (e.match.covers(mod.match) || mod.match.covers(e.match)))
            return ModResult::kOverlap;
        }
      }
      // Identical match+priority replaces (per OF 1.0 §4.6).
      for (auto& e : entries_) {
        if (strict_equal(e, mod)) {
          e.actions = mod.actions;
          e.cookie = mod.cookie;
          e.idle_timeout = mod.idle_timeout;
          e.hard_timeout = mod.hard_timeout;
          e.installed_at = now;
          e.last_used = now;
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
      e.idle_timeout = mod.idle_timeout;
      e.hard_timeout = mod.hard_timeout;
      e.installed_at = now;
      e.last_used = now;
      // Insert keeping priority-descending, stable among equals.
      const auto pos = std::upper_bound(
          entries_.begin(), entries_.end(), e.priority,
          [](std::uint16_t p, const FlowEntry& x) { return p > x.priority; });
      entries_.insert(pos, std::move(e));
      return ModResult::kAdded;
    }

    case FlowModCommand::kModify:
    case FlowModCommand::kModifyStrict: {
      const bool strict = mod.command == FlowModCommand::kModifyStrict;
      bool any = false;
      for (auto& e : entries_) {
        const bool hit = strict ? strict_equal(e, mod)
                                : mod.match.covers(e.match);
        if (hit) {
          e.actions = mod.actions;  // counters/timeouts preserved per spec
          any = true;
        }
      }
      if (any) return ModResult::kModified;
      // Per OF 1.0, MODIFY with no match behaves like ADD.
      FlowMod as_add = mod;
      as_add.command = FlowModCommand::kAdd;
      return apply(as_add, now);
    }

    case FlowModCommand::kDelete:
    case FlowModCommand::kDeleteStrict: {
      const bool strict = mod.command == FlowModCommand::kDeleteStrict;
      bool any = false;
      for (auto it = entries_.begin(); it != entries_.end();) {
        const bool hit = (strict ? strict_equal(*it, mod)
                                 : mod.match.covers(it->match)) &&
                         outputs_to(*it, mod.out_port);
        if (hit) {
          it = entries_.erase(it);
          any = true;
        } else {
          ++it;
        }
      }
      return any ? ModResult::kRemoved : ModResult::kNoOp;
    }
  }
  return ModResult::kNoOp;
}

const FlowEntry* FlowTable::lookup(const OfMatch& concrete, Picos now,
                                   std::size_t wire_bytes) {
  ++lookups_;
  for (auto& e : entries_) {
    if (e.match.matches_packet(concrete)) {
      if (wire_bytes > 0) {
        ++e.packet_count;
        e.byte_count += wire_bytes;
        e.last_used = now;
      }
      return &e;
    }
  }
  ++misses_;
  return nullptr;
}

std::size_t FlowTable::expire(Picos now) {
  const std::size_t before = entries_.size();
  for (auto it = entries_.begin(); it != entries_.end();) {
    const bool idle =
        it->idle_timeout != 0 &&
        now - it->last_used >= static_cast<Picos>(it->idle_timeout) * kPicosPerSec;
    const bool hard =
        it->hard_timeout != 0 &&
        now - it->installed_at >=
            static_cast<Picos>(it->hard_timeout) * kPicosPerSec;
    if (idle || hard) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  return before - entries_.size();
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
