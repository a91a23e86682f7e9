// OpenFlow 1.0 wire format: every message type round-trips through
// encode→decode; layout constants match the spec.
#include <gtest/gtest.h>

#include "osnt/openflow/messages.hpp"

namespace osnt::openflow {
namespace {

template <typename T>
T round_trip(const T& msg, std::uint32_t xid = 7) {
  const Bytes wire = encode(msg, xid);
  const auto d = decode(ByteSpan{wire.data(), wire.size()});
  EXPECT_TRUE(d) << "decode failed";
  EXPECT_EQ(d->xid, xid);
  EXPECT_EQ(d->wire_size, wire.size());
  EXPECT_TRUE(std::holds_alternative<T>(d->msg));
  return std::get<T>(d->msg);
}

TEST(OfWire, HeaderLayout) {
  const Bytes wire = encode(BarrierRequest{}, 0x11223344);
  ASSERT_EQ(wire.size(), kHeaderSize);
  EXPECT_EQ(wire[0], kOfVersion);
  EXPECT_EQ(wire[1], 18);  // OFPT_BARRIER_REQUEST
  EXPECT_EQ(load_be16(wire.data() + 2), 8);
  EXPECT_EQ(load_be32(wire.data() + 4), 0x11223344u);
}

TEST(OfWire, EchoCarriesPayload) {
  EchoRequest req;
  req.payload = {1, 2, 3, 4, 5};
  EXPECT_EQ(round_trip(req).payload, req.payload);
  EchoReply rep;
  rep.payload = {9, 8};
  EXPECT_EQ(round_trip(rep).payload, rep.payload);
}

TEST(OfWire, FlowModFixedPart) {
  FlowMod fm;
  fm.match = OfMatch::exact_5tuple(0x0A000001, 0x0A000002, 17, 1000, 2000);
  fm.cookie = 0x1234;
  fm.command = FlowModCommand::kAdd;
  fm.idle_timeout = 30;
  fm.hard_timeout = 60;
  fm.priority = 0x8123;
  fm.out_port = ofpp::kNone;
  fm.flags = off::kCheckOverlap;
  fm.actions = {ActionOutput{3, 0xFFFF}};
  const Bytes wire = encode(fm, 1);
  EXPECT_EQ(wire.size(), 72u + 8u);  // ofp_flow_mod + one action
  const auto back = round_trip(fm);
  EXPECT_EQ(back.match, fm.match);
  EXPECT_EQ(back.cookie, 0x1234u);
  EXPECT_EQ(back.command, FlowModCommand::kAdd);
  EXPECT_EQ(back.idle_timeout, 30);
  EXPECT_EQ(back.priority, 0x8123);
  EXPECT_EQ(back.flags, off::kCheckOverlap);
  ASSERT_EQ(back.actions.size(), 1u);
  EXPECT_EQ(std::get<ActionOutput>(back.actions[0]).port, 3);
}

TEST(OfWire, FlowModMultipleActions) {
  FlowMod fm;
  fm.actions = {ActionSetVlanVid{99}, ActionOutput{2}, ActionEnqueue{3, 1}};
  const auto back = round_trip(fm);
  ASSERT_EQ(back.actions.size(), 3u);
  EXPECT_EQ(std::get<ActionSetVlanVid>(back.actions[0]).vlan_vid, 99);
  EXPECT_EQ(std::get<ActionOutput>(back.actions[1]).port, 2);
  EXPECT_EQ(std::get<ActionEnqueue>(back.actions[2]),
            (ActionEnqueue{3, 1}));
}

TEST(OfWire, PacketIn) {
  PacketIn pin;
  pin.buffer_id = 0xFFFFFFFF;
  pin.total_len = 1500;
  pin.in_port = 3;
  pin.reason = PacketInReason::kNoMatch;
  pin.data.assign(100, 0xAB);
  const auto back = round_trip(pin);
  EXPECT_EQ(back.total_len, 1500);
  EXPECT_EQ(back.in_port, 3);
  EXPECT_EQ(back.reason, PacketInReason::kNoMatch);
  EXPECT_EQ(back.data.size(), 100u);
  EXPECT_EQ(back.data[0], 0xAB);
}

TEST(OfWire, PacketOut) {
  PacketOut po;
  po.in_port = ofpp::kNone;
  po.actions = {ActionOutput{1}};
  po.data.assign(64, 0x55);
  const auto back = round_trip(po);
  ASSERT_EQ(back.actions.size(), 1u);
  EXPECT_EQ(back.data.size(), 64u);
}

TEST(OfWire, Barrier) {
  round_trip(BarrierRequest{});
  round_trip(BarrierReply{});
}

TEST(OfWire, ErrorMsg) {
  ErrorMsg e;
  e.type = 3;  // OFPET_FLOW_MOD_FAILED
  e.code = 0;  // OFPFMFC_ALL_TABLES_FULL
  e.data = {0xDE, 0xAD};
  const auto back = round_trip(e);
  EXPECT_EQ(back.type, 3);
  EXPECT_EQ(back.code, 0);
  EXPECT_EQ(back.data.size(), 2u);
}

TEST(OfWire, FlowStats) {
  FlowStatsRequest req;
  req.table_id = 0xFF;
  req.out_port = ofpp::kNone;
  const auto back_req = round_trip(req);
  EXPECT_EQ(back_req.table_id, 0xFF);

  FlowStatsReply rep;
  FlowStatsEntry e1;
  e1.priority = 100;
  e1.cookie = 7;
  e1.packet_count = 55;
  e1.actions = {ActionOutput{2}};
  FlowStatsEntry e2;
  e2.priority = 200;
  rep.flows = {e1, e2};
  rep.more = true;
  const auto back = round_trip(rep);
  EXPECT_TRUE(back.more);
  EXPECT_FALSE(round_trip(FlowStatsReply{}).more);
  ASSERT_EQ(back.flows.size(), 2u);
  EXPECT_EQ(back.flows[0].priority, 100);
  EXPECT_EQ(back.flows[0].packet_count, 55u);
  ASSERT_EQ(back.flows[0].actions.size(), 1u);
  EXPECT_EQ(back.flows[1].priority, 200);
  EXPECT_TRUE(back.flows[1].actions.empty());
}

TEST(OfWire, EncodeRefusesALengthPastSixteenBits) {
  // 700 entries of 96 B make a 67,212 B reply, past the length field.
  FlowStatsReply rep;
  FlowStatsEntry e;
  e.actions = {ActionOutput{2}};
  rep.flows.assign(700, e);
  EXPECT_THROW((void)encode(rep, 1), EncodeError);
  rep.flows.resize(682);  // 12 + 682 × 96 = 65,484 B fits
  EXPECT_EQ(encode(rep, 1).size(), 65484u);
}

TEST(OfWire, DecodeRejectsShortBuffer) {
  const Bytes wire = encode(BarrierRequest{}, 1);
  EXPECT_FALSE(decode(ByteSpan{wire.data(), 4}));
}

TEST(OfWire, DecodeRejectsWrongVersion) {
  Bytes wire = encode(BarrierRequest{}, 1);
  wire[0] = 0x04;  // OF 1.3
  EXPECT_FALSE(decode(ByteSpan{wire.data(), wire.size()}));
}

TEST(OfWire, DecodeRejectsPartialMessage) {
  const Bytes wire = encode(FlowMod{}, 1);
  EXPECT_FALSE(decode(ByteSpan{wire.data(), wire.size() - 10}));
}

TEST(OfWire, DecodeStopsAtDeclaredLength) {
  Bytes wire = encode(BarrierRequest{}, 1);
  wire.push_back(0xFF);  // trailing bytes of the next message
  const auto d = decode(ByteSpan{wire.data(), wire.size()});
  ASSERT_TRUE(d);
  EXPECT_EQ(d->wire_size, 8u);
}

TEST(OfWire, DecodeRejectsAnUnmodelledType) {
  // OFPT_HELLO, OFPT_FEATURES_REQUEST, OFPT_FLOW_REMOVED, OFPT_PORT_STATUS:
  // header-valid types the model does not carry.
  for (const std::uint8_t type : {0, 5, 11, 12}) {
    Bytes wire = encode(BarrierRequest{}, 1);
    wire[1] = type;
    EXPECT_FALSE(decode(ByteSpan{wire.data(), wire.size()})) << int{type};
  }
}

TEST(OfWire, DecodeRejectsAnUnmodelledActionType) {
  FlowMod fm;
  fm.actions = {ActionSetVlanVid{5}, ActionOutput{2}};
  const Bytes good = encode(fm, 1);
  ASSERT_TRUE(decode(ByteSpan{good.data(), good.size()}));
  ASSERT_EQ(load_be16(good.data() + 72), 1);  // OFPAT_SET_VLAN_VID
  // OFPAT_SET_VLAN_PCP, OFPAT_STRIP_VLAN, OFPAT_SET_NW_DST, OFPAT_VENDOR:
  // each 8 bytes like the action it replaces, so only the type tells the
  // rule apart from one that silently outputs to port 2.
  for (const std::uint16_t type : {2, 3, 7, 0xFFFF}) {
    Bytes wire = good;
    store_be16(wire.data() + 72, type);
    EXPECT_FALSE(decode(ByteSpan{wire.data(), wire.size()})) << type;
  }
  // An output to a reserved port (OFPP_FLOOD) is refused too; the last
  // physical port (OFPP_MAX) is not.
  ASSERT_EQ(load_be16(good.data() + 84), 2);  // the output's port
  Bytes wire = good;
  store_be16(wire.data() + 84, 0xfffb);
  EXPECT_FALSE(decode(ByteSpan{wire.data(), wire.size()}));
  store_be16(wire.data() + 84, ofpp::kMax);
  EXPECT_TRUE(decode(ByteSpan{wire.data(), wire.size()}));
}

TEST(OfWire, MessageTypeMapping) {
  EXPECT_EQ(message_type(OfMessage{EchoRequest{}}), MsgType::kEchoRequest);
  EXPECT_EQ(message_type(OfMessage{FlowMod{}}), MsgType::kFlowMod);
  EXPECT_EQ(message_type(OfMessage{BarrierReply{}}), MsgType::kBarrierReply);
  EXPECT_EQ(message_type(OfMessage{FlowStatsReply{}}), MsgType::kStatsReply);
}

}  // namespace
}  // namespace osnt::openflow
