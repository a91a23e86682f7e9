// Flow table: OF 1.0 add/modify/delete semantics, priority ordering,
// counters, timeouts, capacity.
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
  const auto* e = t.lookup(pkt(5), 0);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(std::get<ActionOutput>(e->actions[0]).port, 2);
  EXPECT_EQ(t.lookup(pkt(6), 0), nullptr);
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
  EXPECT_EQ(std::get<ActionOutput>(t.lookup(pkt(5), 0)->actions[0]).port, 9);
  EXPECT_EQ(std::get<ActionOutput>(t.lookup(pkt(6), 0)->actions[0]).port, 1);
}

TEST(FlowTable, AddIdenticalReplacesAndResetsCounters) {
  FlowTable t;
  t.apply(add_rule(5, 100, 2), 0);
  (void)t.lookup(pkt(5), 0, 100);
  EXPECT_EQ(t.entries()[0].packet_count, 1u);
  EXPECT_EQ(t.apply(add_rule(5, 100, 3), 50), FlowTable::ModResult::kAdded);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.entries()[0].packet_count, 0u);
  EXPECT_EQ(std::get<ActionOutput>(t.entries()[0].actions[0]).port, 3);
}

TEST(FlowTable, ModifyPreservesCounters) {
  FlowTable t;
  t.apply(add_rule(5, 100, 2), 0);
  (void)t.lookup(pkt(5), 0, 100);
  FlowMod mod = add_rule(5, 100, 7);
  mod.command = FlowModCommand::kModifyStrict;
  EXPECT_EQ(t.apply(mod, 10), FlowTable::ModResult::kModified);
  EXPECT_EQ(t.entries()[0].packet_count, 1u);  // preserved
  EXPECT_EQ(std::get<ActionOutput>(t.entries()[0].actions[0]).port, 7);
}

TEST(FlowTable, ModifyNoMatchBehavesLikeAdd) {
  FlowTable t;
  FlowMod mod = add_rule(5, 100, 7);
  mod.command = FlowModCommand::kModify;
  EXPECT_EQ(t.apply(mod, 0), FlowTable::ModResult::kAdded);
  EXPECT_EQ(t.size(), 1u);
}

TEST(FlowTable, NonStrictModifyHitsCoveredRules) {
  FlowTable t;
  t.apply(add_rule(5, 100, 2), 0);
  t.apply(add_rule(6, 100, 2), 0);
  FlowMod mod;
  mod.match = OfMatch::any();  // covers both
  mod.command = FlowModCommand::kModify;
  mod.actions = {ActionOutput{8}};
  EXPECT_EQ(t.apply(mod, 0), FlowTable::ModResult::kModified);
  for (const auto& e : t.entries())
    EXPECT_EQ(std::get<ActionOutput>(e.actions[0]).port, 8);
}

TEST(FlowTable, DeleteStrictOnlyExact) {
  FlowTable t;
  t.apply(add_rule(5, 100, 2), 0);
  t.apply(add_rule(5, 200, 2), 0);
  FlowMod del = add_rule(5, 100, 0);
  del.command = FlowModCommand::kDeleteStrict;
  EXPECT_EQ(t.apply(del, 0), FlowTable::ModResult::kRemoved);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.entries()[0].priority, 200);  // the priority-100 rule went
}

TEST(FlowTable, DeleteNonStrictSweepsCovered) {
  FlowTable t;
  for (std::uint32_t d = 1; d <= 5; ++d) t.apply(add_rule(d, 100, 2), 0);
  FlowMod del;
  del.match = OfMatch::any();
  del.command = FlowModCommand::kDelete;
  EXPECT_EQ(t.apply(del, 0), FlowTable::ModResult::kRemoved);
  EXPECT_TRUE(t.empty());
}

TEST(FlowTable, DeleteFiltersByOutPort) {
  FlowTable t;
  t.apply(add_rule(1, 100, 2), 0);
  t.apply(add_rule(2, 100, 3), 0);
  FlowMod del;
  del.match = OfMatch::any();
  del.command = FlowModCommand::kDelete;
  del.out_port = 3;  // only rules outputting to port 3
  t.apply(del, 0);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(std::get<ActionOutput>(t.entries()[0].actions[0]).port, 2);
}

TEST(FlowTable, DeleteNothingIsNoOp) {
  FlowTable t;
  FlowMod del;
  del.match = OfMatch::any();
  del.command = FlowModCommand::kDelete;
  EXPECT_EQ(t.apply(del, 0), FlowTable::ModResult::kNoOp);
}

TEST(FlowTable, TableFull) {
  FlowTableConfig cfg;
  cfg.max_entries = 3;
  FlowTable t{cfg};
  for (std::uint32_t d = 1; d <= 3; ++d)
    EXPECT_EQ(t.apply(add_rule(d, 100, 1), 0), FlowTable::ModResult::kAdded);
  EXPECT_EQ(t.apply(add_rule(9, 100, 1), 0), FlowTable::ModResult::kTableFull);
}

TEST(FlowTable, CheckOverlapRejects) {
  FlowTable t;
  t.apply(add_rule(5, 100, 1), 0);
  FlowMod overlapping;
  overlapping.match = OfMatch::any();  // covers the installed rule
  overlapping.priority = 100;
  overlapping.flags = off::kCheckOverlap;
  EXPECT_EQ(t.apply(overlapping, 0), FlowTable::ModResult::kOverlap);
  // Different priority: no overlap check failure.
  overlapping.priority = 50;
  EXPECT_EQ(t.apply(overlapping, 0), FlowTable::ModResult::kAdded);
}

TEST(FlowTable, IdleTimeoutExpires) {
  FlowTable t;
  FlowMod fm = add_rule(5, 100, 1);
  fm.idle_timeout = 2;  // seconds
  t.apply(fm, 0);
  (void)t.lookup(pkt(5), 1 * kPicosPerSec, 64);  // used at t=1s
  EXPECT_EQ(t.expire(2 * kPicosPerSec), 0u);  // 1 s idle: keep
  EXPECT_EQ(t.expire(4 * kPicosPerSec), 1u);  // 3 s idle: gone
  EXPECT_TRUE(t.empty());
}

TEST(FlowTable, HardTimeoutExpiresEvenWhenUsed) {
  FlowTable t;
  FlowMod fm = add_rule(5, 100, 1);
  fm.hard_timeout = 1;
  t.apply(fm, 0);
  (void)t.lookup(pkt(5), kPicosPerSec - 1, 64);
  EXPECT_EQ(t.expire(kPicosPerSec + 1), 1u);
}

TEST(FlowTable, CountersAccumulate) {
  FlowTable t;
  t.apply(add_rule(5, 100, 1), 0);
  (void)t.lookup(pkt(5), 0, 100);
  (void)t.lookup(pkt(5), 0, 200);
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
