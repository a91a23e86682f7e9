// osnt::json — positions that stay exact deep into a document and are
// tracked in linear time, the nesting limit, and json::Reader's field
// rules as both loaders (topology files, fault plans) surface them.
#include <gtest/gtest.h>

#include <string>

#include "osnt/common/json.hpp"
#include "osnt/fault/plan.hpp"
#include "osnt/graph/topology.hpp"

namespace osnt {
namespace {

TEST(Json, StampsEveryValueWithItsLineAndColumn) {
  const json::Value root = json::parse(
      "{\n"
      "  \"a\": [1,\n"
      "\t\"two\", {\"b\": true}],\n"
      "  \"c\": null\n"
      "}");
  EXPECT_EQ(root.where(), "line 1 column 1");
  const json::Value& a = *root.find("a");
  EXPECT_EQ(a.where(), "line 2 column 8");
  EXPECT_EQ(a.array[0].where(), "line 2 column 9");
  EXPECT_EQ(a.array[1].where(), "line 3 column 2");
  EXPECT_EQ(a.array[2].where(), "line 3 column 9");
  EXPECT_EQ(a.array[2].find("b")->where(), "line 3 column 15");
  EXPECT_EQ(root.find("c")->where(), "line 4 column 8");
}

TEST(Json, ErrorDeepInAMultiLineDocumentHasItsExactPosition) {
  // 400 well-formed lines, then a missing comma on line 402.
  std::string text = "{\"rows\": [\n";
  for (int i = 0; i < 400; ++i) {
    text += "  {\"id\": " + std::to_string(i) + ", \"name\": \"row\"},\n";
  }
  text += "  {\"id\": 400,\n   \"name\": \"row\" \"extra\": 1}\n]}";
  try {
    (void)json::parse(text, "doc");
    FAIL() << "expected a ParseError";
  } catch (const json::ParseError& e) {
    EXPECT_EQ(e.line(), 403u);
    EXPECT_EQ(e.column(), 18u);
    EXPECT_STREQ(e.what(), "doc: expected '}' (line 403 column 18)");
  }
}

TEST(Json, ParsesAMegabyteDocumentInLinearTime) {
  // ctest runs this under a timeout: a position scan from byte 0 for
  // every value would take minutes on a document this size.
  std::string text = "[\n";
  while (text.size() < (1u << 20)) {
    text += "  {\"rate_gbps\": 2.5, \"name\": \"q\", \"queue_frames\": 64},\n";
  }
  text += "  {}\n]";
  const json::Value root = json::parse(text);
  ASSERT_GT(root.array.size(), 15000u);
  EXPECT_EQ(root.array.back().line, root.array.size() + 1);
  EXPECT_EQ(root.array.back().column, 3u);
}

TEST(Json, NestingDeeperThanTheLimitIsAPositionedError) {
  const std::string ok = std::string(json::kMaxDepth, '[') +
                         std::string(json::kMaxDepth, ']');
  EXPECT_NO_THROW((void)json::parse(ok));
  try {
    (void)json::parse(std::string(100000, '['), "doc");
    FAIL() << "expected a ParseError";
  } catch (const json::ParseError& e) {
    EXPECT_EQ(e.line(), 1u);
    EXPECT_EQ(e.column(), json::kMaxDepth + 1);
    EXPECT_STREQ(e.what(),
                 "doc: nesting deeper than 64 levels (line 1 column 65)");
  }
}

TEST(Json, ReaderRejectsWhatItCannotRepresent) {
  const json::Value v = json::parse(
      R"({"big": 18446744073709551616, "max": 18446744073709550000,
          "narrow": 4294967296, "neg": -1, "frac": 0.5,
          "t_us": 1e13, "u_ns": 1, "u_ms": 1})");
  const json::Reader r{v, "ctx"};
  const auto error = [](auto&& read) -> std::string {
    try {
      read();
    } catch (const json::ParseError& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(r.count("max", 0), 18446744073709549568u);
  EXPECT_EQ(error([&] { (void)r.count("big", 0); }),
            "ctx: 'big' must be at most 18446744073709551615, got "
            "1.84467440737096e+19 (line 1 column 9)");
  EXPECT_EQ(error([&] { (void)r.count("narrow", 0, 4294967295u); }),
            "ctx: 'narrow' must be at most 4294967295, got 4294967296 "
            "(line 2 column 21)");
  EXPECT_EQ(error([&] { (void)r.count("neg", 0); }),
            "ctx: 'neg' must be a non-negative integer, got -1 "
            "(line 2 column 40)");
  EXPECT_EQ(error([&] { (void)r.count("frac", 0); }),
            "ctx: 'frac' must be a non-negative integer, got 0.5 "
            "(line 2 column 52)");
  EXPECT_EQ(error([&] { (void)r.time("t", 0); }),
            "ctx: 't' out of range (line 3 column 19)");
  EXPECT_EQ(error([&] { (void)r.time("u", 0); }),
            "ctx: 'u' given in more than one unit (line 3 column 44)");
  EXPECT_EQ(error([&] { (void)r.need_time("v"); }),
            "ctx: missing required key 'v_us' (line 1 column 1)");
  EXPECT_EQ(error([&] { (void)r.need_choice("big", {"a"}); }),
            "ctx: 'big' must be a string, got a number (line 1 column 9)");
  EXPECT_EQ(error([&] { r.allow({"big", "max", "narow", "neg", "frac"},
                                {"t", "u"}); }),
            "ctx: unknown key 'narrow' (did you mean 'narow'?) "
            "(line 2 column 21)");
}

/// The message a loader throws for `text`, or "" when it loads.
template <class Load>
std::string error_of(Load load, const std::string& text) {
  try {
    (void)load(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Json, BothLoadersReportFieldErrorsTheSameWay) {
  const auto topology = [](const std::string& text) {
    return graph::TopologyFile::from_json(text);
  };
  const auto plan = [](const std::string& text) {
    return fault::FaultPlan::from_json(text);
  };
  // Each document puts the offending value at line 2 column 19.
  const auto in_block = [](const std::string& member) {
    return "{\"blocks\": [{\"name\": \"q\", \"type\": \"fifo_queue\",\n  " +
           member + "}]}";
  };
  const auto in_event = [](const std::string& member) {
    return "{\"events\": [{\"type\": \"queue_cap\", \"at_us\": 1, "
           "\"target\": \"q\",\n  " +
           member + "}]}";
  };
  const struct {
    std::string member;
    std::string why;
  } kCases[] = {
      {R"("queue_frames": "8")",
       "'queue_frames' must be a number, got a string"},
      {R"("queue_frames": 2.5)",
       "'queue_frames' must be a non-negative integer, got 2.5"},
      {R"("queue_framse": 8)",
       "unknown key 'queue_framse' (did you mean 'queue_frames'?)"},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(error_of(topology, in_block(c.member)),
              "topology: blocks[0] ('q'): " + c.why + " (line 2 column 19)");
    EXPECT_EQ(error_of(plan, in_event(c.member)),
              "fault plan event 0: " + c.why + " (line 2 column 19)");
  }
  // Two units for one time: the error points at the larger unit's value.
  const std::string twice = "\n  \"duration_us\": 1, \"duration_ms\": 1";
  EXPECT_EQ(error_of(topology,
                     R"({"blocks": [{"name": "q", "type": "sink"}],)" +
                         twice + "}"),
            "topology: 'duration' given in more than one unit "
            "(line 2 column 36)");
  EXPECT_EQ(error_of(plan,
                     R"({"events": [{"type": "dma_stall", "at_us": 1,)" +
                         twice + "}]}"),
            "fault plan event 0: 'duration' given in more than one unit "
            "(line 2 column 36)");
}

}  // namespace
}  // namespace osnt
