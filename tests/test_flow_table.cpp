// Flow table: OF 1.0 ADD semantics, the refusal of every other flow_mod,
// priority ordering, counters, capacity.
#include <gtest/gtest.h>

#include "osnt/openflow/flow_table.hpp"

namespace osnt::openflow {
namespace {

FlowMod add_rule(std::uint32_t dst, std::uint16_t prio, std::uint16_t out) {
  FlowMod fm;
  fm.match = OfMatch::exact_5tuple(1, dst, 17, 10, 20);
  fm.priority = prio;
  fm.actions = {ActionOutput{out}};
  return fm;
}

OfMatch pkt(std::uint32_t dst) {
  OfMatch m;
  m.wildcards = 0;
  m.in_port = 1;
  m.dl_type = 0x0800;
  m.nw_proto = 17;
  m.nw_src = 1;
  m.nw_dst = dst;
  m.tp_src = 10;
  m.tp_dst = 20;
  return m;
}

TEST(FlowTable, AddAndLookup) {
  FlowTable t;
  EXPECT_EQ(t.apply(add_rule(5, 100, 2), 0), FlowTable::ModResult::kAdded);
  EXPECT_EQ(t.size(), 1u);
  const auto* e = t.lookup(pkt(5));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(std::get<ActionOutput>(e->actions[0]).port, 2);
  EXPECT_EQ(t.lookup(pkt(6)), nullptr);
  EXPECT_EQ(t.misses(), 1u);
}

TEST(FlowTable, HigherPriorityWins) {
  FlowTable t;
  FlowMod lo;
  lo.match = OfMatch::any();
  lo.priority = 10;
  lo.actions = {ActionOutput{1}};
  FlowMod hi = add_rule(5, 1000, 9);
  t.apply(lo, 0);
  t.apply(hi, 0);
  EXPECT_EQ(std::get<ActionOutput>(t.lookup(pkt(5))->actions[0]).port, 9);
  EXPECT_EQ(std::get<ActionOutput>(t.lookup(pkt(6))->actions[0]).port, 1);
}

TEST(FlowTable, AddIdenticalReplacesAndResetsCounters) {
  FlowTable t;
  t.apply(add_rule(5, 100, 2), 0);
  (void)t.lookup(pkt(5), 100);
  EXPECT_EQ(t.entries()[0].packet_count, 1u);
  EXPECT_EQ(t.apply(add_rule(5, 100, 3), 50), FlowTable::ModResult::kAdded);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.entries()[0].packet_count, 0u);
  EXPECT_EQ(std::get<ActionOutput>(t.entries()[0].actions[0]).port, 3);
}

TEST(FlowTable, TableFull) {
  FlowTableConfig cfg;
  cfg.max_entries = 3;
  FlowTable t{cfg};
  for (std::uint32_t d = 1; d <= 3; ++d)
    EXPECT_EQ(t.apply(add_rule(d, 100, 1), 0), FlowTable::ModResult::kAdded);
  EXPECT_EQ(t.apply(add_rule(9, 100, 1), 0), FlowTable::ModResult::kTableFull);
}

TEST(FlowTable, RefusesEveryFlowModButAPlainAdd) {
  FlowTable t;
  t.apply(add_rule(5, 100, 2), 0);
  (void)t.lookup(pkt(5), 100);
  // The four other commands, aimed at the installed rule...
  std::vector<FlowMod> refused;
  for (const auto cmd :
       {FlowModCommand::kModify, FlowModCommand::kModifyStrict,
        FlowModCommand::kDelete, FlowModCommand::kDeleteStrict}) {
    refused.push_back(add_rule(5, 100, 3));
    refused.back().command = cmd;
  }
  // ...and ADDs of a new rule with a flag or a timeout.
  for (int i = 0; i < 3; ++i) refused.push_back(add_rule(6, 100, 3));
  refused[4].flags = off::kCheckOverlap;
  refused[5].idle_timeout = 1;
  refused[6].hard_timeout = 1;
  for (const FlowMod& fm : refused)
    EXPECT_EQ(t.apply(fm, 10), FlowTable::ModResult::kUnsupported);
  ASSERT_EQ(t.size(), 1u);
  const FlowEntry& e = t.entries()[0];
  EXPECT_EQ(std::get<ActionOutput>(e.actions[0]).port, 2);
  EXPECT_EQ(e.installed_at, 0);
  EXPECT_EQ(e.packet_count, 1u);
}

TEST(FlowTable, CountersAccumulate) {
  FlowTable t;
  t.apply(add_rule(5, 100, 1), 0);
  (void)t.lookup(pkt(5), 100);
  (void)t.lookup(pkt(5), 200);
  EXPECT_EQ(t.entries()[0].packet_count, 2u);
  EXPECT_EQ(t.entries()[0].byte_count, 300u);
  EXPECT_EQ(t.lookups(), 2u);
}

TEST(FlowTable, CollectStatsFiltersByMatchAndPort) {
  FlowTable t;
  t.apply(add_rule(1, 100, 2), 0);
  t.apply(add_rule(2, 100, 3), 0);
  FlowStatsRequest req;
  req.match = OfMatch::any();
  EXPECT_EQ(t.collect_stats(req).size(), 2u);
  req.out_port = 3;
  EXPECT_EQ(t.collect_stats(req).size(), 1u);
}

}  // namespace
}  // namespace osnt::openflow
