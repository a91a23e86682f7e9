// OpenFlow 1.0 message types with full wire-format encode/decode. Only
// the subset a switch-evaluation framework exercises is modelled: what
// the OFLOPS modules send (flow_mod, barrier, echo, packet_out, flow
// stats) and what the switch answers with. Each message round-trips
// through the real byte layout, so the control channel carries genuine
// OF 1.0 bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <variant>
#include <vector>

#include "osnt/common/types.hpp"
#include "osnt/openflow/match.hpp"

namespace osnt::openflow {

inline constexpr std::uint8_t kOfVersion = 0x01;
inline constexpr std::size_t kHeaderSize = 8;
/// The longest message the header's 16-bit length field can state.
inline constexpr std::size_t kMaxMessageSize = 0xFFFF;

/// encode() refuses a message longer than kMaxMessageSize rather than
/// wrap its length.
class EncodeError : public std::length_error {
 public:
  using std::length_error::length_error;
};

enum class MsgType : std::uint8_t {
  kError = 1,
  kEchoRequest = 2,
  kEchoReply = 3,
  kPacketIn = 10,
  kPacketOut = 13,
  kFlowMod = 14,
  kStatsRequest = 16,
  kStatsReply = 17,
  kBarrierRequest = 18,
  kBarrierReply = 19,
};

/// Port numbers (OF 1.0 ofp_port). Physical ports run up to kMax; the
/// model sends to none of the reserved ports above it.
namespace ofpp {
inline constexpr std::uint16_t kMax = 0xFF00;
inline constexpr std::uint16_t kNone = 0xFFFF;
}  // namespace ofpp

// ---------------------------------------------------------------- actions

struct ActionOutput {
  std::uint16_t port = 0;
  std::uint16_t max_len = 0xFFFF;
  friend bool operator==(const ActionOutput&, const ActionOutput&) = default;
};

struct ActionSetVlanVid {
  std::uint16_t vlan_vid = 0;
  friend bool operator==(const ActionSetVlanVid&,
                         const ActionSetVlanVid&) = default;
};

/// OFPAT_ENQUEUE: output through a specific egress queue (QoS).
struct ActionEnqueue {
  std::uint16_t port = 0;
  std::uint32_t queue_id = 0;
  friend bool operator==(const ActionEnqueue&, const ActionEnqueue&) = default;
};

using Action = std::variant<ActionOutput, ActionSetVlanVid, ActionEnqueue>;

/// Encoded size of one action (8 bytes, except enqueue = 16).
[[nodiscard]] std::size_t action_wire_size(const Action& a) noexcept;

// --------------------------------------------------------------- messages

struct EchoRequest {
  Bytes payload;
};
struct EchoReply {
  Bytes payload;
};

enum class FlowModCommand : std::uint16_t {
  kAdd = 0,
  kModify = 1,
  kModifyStrict = 2,
  kDelete = 3,
  kDeleteStrict = 4,
};

/// ofp_flow_mod flags.
namespace off {
inline constexpr std::uint16_t kCheckOverlap = 1 << 1;
}  // namespace off

struct FlowMod {
  OfMatch match;
  std::uint64_t cookie = 0;
  FlowModCommand command = FlowModCommand::kAdd;
  std::uint16_t idle_timeout = 0;
  std::uint16_t hard_timeout = 0;
  std::uint16_t priority = 0x8000;
  std::uint32_t buffer_id = 0xFFFFFFFF;
  std::uint16_t out_port = ofpp::kNone;
  std::uint16_t flags = 0;
  std::vector<Action> actions;
};

enum class PacketInReason : std::uint8_t { kNoMatch = 0, kAction = 1 };

struct PacketIn {
  std::uint32_t buffer_id = 0xFFFFFFFF;
  std::uint16_t total_len = 0;
  std::uint16_t in_port = 0;
  PacketInReason reason = PacketInReason::kNoMatch;
  Bytes data;  ///< (possibly truncated) frame
};

struct PacketOut {
  std::uint32_t buffer_id = 0xFFFFFFFF;
  std::uint16_t in_port = ofpp::kNone;
  std::vector<Action> actions;
  Bytes data;
};

struct BarrierRequest {};
struct BarrierReply {};

struct ErrorMsg {
  std::uint16_t type = 0;
  std::uint16_t code = 0;
  Bytes data;
};

/// The error a refused flow_mod gets: OF 1.0's ofp_error_type
/// OFPET_FLOW_MOD_FAILED, with an ofp_flow_mod_failed_code.
namespace ofpet {
inline constexpr std::uint16_t kFlowModFailed = 3;
}  // namespace ofpet
namespace ofpfmfc {
inline constexpr std::uint16_t kAllTablesFull = 0;
inline constexpr std::uint16_t kBadCommand = 4;
}  // namespace ofpfmfc

// Flow statistics (OFPST_FLOW).
struct FlowStatsRequest {
  OfMatch match;
  std::uint8_t table_id = 0xFF;
  std::uint16_t out_port = ofpp::kNone;
};

struct FlowStatsEntry {
  std::uint8_t table_id = 0;
  OfMatch match;
  std::uint32_t duration_sec = 0;
  std::uint32_t duration_nsec = 0;
  std::uint16_t priority = 0;
  std::uint16_t idle_timeout = 0;
  std::uint16_t hard_timeout = 0;
  std::uint64_t cookie = 0;
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
  std::vector<Action> actions;
};

struct FlowStatsReply {
  std::vector<FlowStatsEntry> flows;
  /// OFPSF_REPLY_MORE: another part of this reply follows.
  bool more = false;
};

/// Split a table's flow-stats entries into replies that each encode
/// within kMaxMessageSize, every part but the last flagged `more`.
[[nodiscard]] std::vector<FlowStatsReply> split_flow_stats(
    std::vector<FlowStatsEntry> flows);

using OfMessage =
    std::variant<EchoRequest, EchoReply, FlowMod, PacketIn, PacketOut,
                 BarrierRequest, BarrierReply, ErrorMsg, FlowStatsRequest,
                 FlowStatsReply>;

[[nodiscard]] MsgType message_type(const OfMessage& msg) noexcept;

/// Serialize one message with the given transaction id. Throws
/// EncodeError when it would exceed kMaxMessageSize.
[[nodiscard]] Bytes encode(const OfMessage& msg, std::uint32_t xid);

struct Decoded {
  OfMessage msg;
  std::uint32_t xid = 0;
  std::size_t wire_size = 0;  ///< bytes consumed
};

/// Decode the first complete message in `in`; nullopt when `in` is shorter
/// than the message (framing handled by the caller/channel) or malformed.
[[nodiscard]] std::optional<Decoded> decode(ByteSpan in);

}  // namespace osnt::openflow
