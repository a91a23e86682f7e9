#include "osnt/openflow/messages.hpp"

#include <cstring>
#include <string>

namespace osnt::openflow {
namespace {

// ------------------------------------------------------------ byte writer

class Writer {
 public:
  explicit Writer(Bytes& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    const std::size_t n = out_.size();
    out_.resize(n + 2);
    store_be16(out_.data() + n, v);
  }
  void u32(std::uint32_t v) {
    const std::size_t n = out_.size();
    out_.resize(n + 4);
    store_be32(out_.data() + n, v);
  }
  void u64(std::uint64_t v) {
    const std::size_t n = out_.size();
    out_.resize(n + 8);
    store_be64(out_.data() + n, v);
  }
  void pad(std::size_t n) { out_.resize(out_.size() + n, 0); }
  void bytes(ByteSpan b) { out_.insert(out_.end(), b.begin(), b.end()); }
  void match(const OfMatch& m) {
    const std::size_t n = out_.size();
    out_.resize(n + OfMatch::kWireSize);
    m.write(MutByteSpan{out_.data() + n, OfMatch::kWireSize});
  }

 private:
  Bytes& out_;
};

// -------------------------------------------------------------- reader

class Reader {
 public:
  explicit Reader(ByteSpan in) : in_(in) {}

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return in_.size() - pos_;
  }

  std::uint8_t u8() { return take(1) ? in_[pos_ - 1] : 0; }
  std::uint16_t u16() { return take(2) ? load_be16(&in_[pos_ - 2]) : 0; }
  std::uint32_t u32() { return take(4) ? load_be32(&in_[pos_ - 4]) : 0; }
  std::uint64_t u64() { return take(8) ? load_be64(&in_[pos_ - 8]) : 0; }
  void skip(std::size_t n) { take(n); }
  Bytes rest() {
    Bytes b(in_.begin() + static_cast<std::ptrdiff_t>(pos_), in_.end());
    pos_ = in_.size();
    return b;
  }
  std::optional<OfMatch> match() {
    if (!take(OfMatch::kWireSize)) return std::nullopt;
    return OfMatch::read(in_.subspan(pos_ - OfMatch::kWireSize));
  }

 private:
  bool take(std::size_t n) {
    if (pos_ + n > in_.size()) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  ByteSpan in_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// -------------------------------------------------------------- actions

enum ActionType : std::uint16_t {
  kActOutput = 0,
  kActSetVlanVid = 1,
  kActEnqueue = 11,
};

void write_actions(Writer& w, const std::vector<Action>& actions) {
  for (const auto& a : actions) {
    std::visit(
        [&](const auto& act) {
          using T = std::decay_t<decltype(act)>;
          if constexpr (std::is_same_v<T, ActionOutput>) {
            w.u16(kActOutput);
            w.u16(8);
            w.u16(act.port);
            w.u16(act.max_len);
          } else if constexpr (std::is_same_v<T, ActionSetVlanVid>) {
            w.u16(kActSetVlanVid);
            w.u16(8);
            w.u16(act.vlan_vid);
            w.pad(2);
          } else {
            static_assert(std::is_same_v<T, ActionEnqueue>);
            w.u16(kActEnqueue);
            w.u16(16);
            w.u16(act.port);
            w.pad(6);
            w.u32(act.queue_id);
          }
        },
        a);
  }
}

bool read_actions(Reader& r, std::size_t bytes, std::vector<Action>& out) {
  std::size_t consumed = 0;
  while (consumed < bytes) {
    const std::uint16_t type = r.u16();
    const std::uint16_t len = r.u16();
    if (!r.ok() || len < 8 || len % 8 != 0) return false;
    switch (type) {
      case kActOutput: {
        ActionOutput a;
        a.port = r.u16();
        a.max_len = r.u16();
        if (a.port > ofpp::kMax) return false;  // a reserved port: refuse
        out.emplace_back(a);
        r.skip(len - 8);
        break;
      }
      case kActSetVlanVid: {
        ActionSetVlanVid a;
        a.vlan_vid = r.u16();
        r.skip(2);
        out.emplace_back(a);
        r.skip(len - 8);
        break;
      }
      case kActEnqueue: {
        if (len != 16) return false;
        ActionEnqueue a;
        a.port = r.u16();
        r.skip(6);
        a.queue_id = r.u32();
        out.emplace_back(a);
        break;
      }
      default:
        return false;  // an action the model lacks: refuse, never drop it
    }
    if (!r.ok()) return false;
    consumed += len;
  }
  return consumed == bytes;
}

std::size_t actions_wire_size(const std::vector<Action>& actions) noexcept {
  std::size_t n = 0;
  for (const auto& a : actions) n += action_wire_size(a);
  return n;
}

constexpr std::uint16_t kStatsTypeFlow = 1;
constexpr std::uint16_t kStatsReplyMore = 1;  ///< OFPSF_REPLY_MORE

}  // namespace

std::size_t action_wire_size(const Action& a) noexcept {
  return std::holds_alternative<ActionEnqueue>(a) ? 16 : 8;
}

MsgType message_type(const OfMessage& msg) noexcept {
  return std::visit(
      [](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, EchoRequest>) return MsgType::kEchoRequest;
        else if constexpr (std::is_same_v<T, EchoReply>) return MsgType::kEchoReply;
        else if constexpr (std::is_same_v<T, FlowMod>) return MsgType::kFlowMod;
        else if constexpr (std::is_same_v<T, PacketIn>) return MsgType::kPacketIn;
        else if constexpr (std::is_same_v<T, PacketOut>) return MsgType::kPacketOut;
        else if constexpr (std::is_same_v<T, BarrierRequest>) return MsgType::kBarrierRequest;
        else if constexpr (std::is_same_v<T, BarrierReply>) return MsgType::kBarrierReply;
        else if constexpr (std::is_same_v<T, ErrorMsg>) return MsgType::kError;
        else if constexpr (std::is_same_v<T, FlowStatsRequest>) return MsgType::kStatsRequest;
        else return MsgType::kStatsReply;
      },
      msg);
}

Bytes encode(const OfMessage& msg, std::uint32_t xid) {
  Bytes out;
  Writer w{out};
  // Header placeholder; length patched at the end.
  w.u8(kOfVersion);
  w.u8(static_cast<std::uint8_t>(message_type(msg)));
  w.u16(0);
  w.u32(xid);

  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, BarrierRequest> ||
                      std::is_same_v<T, BarrierReply>) {
          // header only
        } else if constexpr (std::is_same_v<T, EchoRequest> ||
                             std::is_same_v<T, EchoReply>) {
          w.bytes(ByteSpan{m.payload.data(), m.payload.size()});
        } else if constexpr (std::is_same_v<T, FlowMod>) {
          w.match(m.match);
          w.u64(m.cookie);
          w.u16(static_cast<std::uint16_t>(m.command));
          w.u16(m.idle_timeout);
          w.u16(m.hard_timeout);
          w.u16(m.priority);
          w.u32(m.buffer_id);
          w.u16(m.out_port);
          w.u16(m.flags);
          write_actions(w, m.actions);
        } else if constexpr (std::is_same_v<T, PacketIn>) {
          w.u32(m.buffer_id);
          w.u16(m.total_len);
          w.u16(m.in_port);
          w.u8(static_cast<std::uint8_t>(m.reason));
          w.pad(1);
          w.bytes(ByteSpan{m.data.data(), m.data.size()});
        } else if constexpr (std::is_same_v<T, PacketOut>) {
          w.u32(m.buffer_id);
          w.u16(m.in_port);
          w.u16(static_cast<std::uint16_t>(actions_wire_size(m.actions)));
          write_actions(w, m.actions);
          w.bytes(ByteSpan{m.data.data(), m.data.size()});
        } else if constexpr (std::is_same_v<T, ErrorMsg>) {
          w.u16(m.type);
          w.u16(m.code);
          w.bytes(ByteSpan{m.data.data(), m.data.size()});
        } else if constexpr (std::is_same_v<T, FlowStatsRequest>) {
          w.u16(kStatsTypeFlow);
          w.u16(0);  // flags
          w.match(m.match);
          w.u8(m.table_id);
          w.pad(1);
          w.u16(m.out_port);
        } else if constexpr (std::is_same_v<T, FlowStatsReply>) {
          w.u16(kStatsTypeFlow);
          w.u16(m.more ? kStatsReplyMore : 0);
          for (const auto& f : m.flows) {
            const std::size_t entry_len = 88 + actions_wire_size(f.actions);
            w.u16(static_cast<std::uint16_t>(entry_len));
            w.u8(f.table_id);
            w.pad(1);
            w.match(f.match);
            w.u32(f.duration_sec);
            w.u32(f.duration_nsec);
            w.u16(f.priority);
            w.u16(f.idle_timeout);
            w.u16(f.hard_timeout);
            w.pad(6);
            w.u64(f.cookie);
            w.u64(f.packet_count);
            w.u64(f.byte_count);
            write_actions(w, f.actions);
          }
        }
      },
      msg);

  if (out.size() > kMaxMessageSize) {
    throw EncodeError("openflow: a " + std::to_string(out.size()) +
                      " B message overflows the 16-bit length field");
  }
  store_be16(out.data() + 2, static_cast<std::uint16_t>(out.size()));
  return out;
}

std::vector<FlowStatsReply> split_flow_stats(
    std::vector<FlowStatsEntry> flows) {
  // ofp_header, then ofp_stats_reply's type and flags.
  constexpr std::size_t kReplyHeader = kHeaderSize + 4;
  std::vector<FlowStatsReply> parts(1);
  std::size_t size = kReplyHeader;
  for (auto& f : flows) {
    const std::size_t entry = 88 + actions_wire_size(f.actions);
    if (size + entry > kMaxMessageSize) {
      parts.back().more = true;
      parts.emplace_back();
      size = kReplyHeader;
    }
    size += entry;
    parts.back().flows.push_back(std::move(f));
  }
  return parts;
}

std::optional<Decoded> decode(ByteSpan in) {
  if (in.size() < kHeaderSize) return std::nullopt;
  if (in[0] != kOfVersion) return std::nullopt;
  const auto type = static_cast<MsgType>(in[1]);
  const std::uint16_t length = load_be16(in.data() + 2);
  if (length < kHeaderSize || in.size() < length) return std::nullopt;
  const std::uint32_t xid = load_be32(in.data() + 4);

  Reader r{in.subspan(kHeaderSize, length - kHeaderSize)};
  Decoded d;
  d.xid = xid;
  d.wire_size = length;

  switch (type) {
    case MsgType::kEchoRequest:
      d.msg = EchoRequest{r.rest()};
      break;
    case MsgType::kEchoReply:
      d.msg = EchoReply{r.rest()};
      break;
    case MsgType::kFlowMod: {
      FlowMod m;
      auto match = r.match();
      if (!match) return std::nullopt;
      m.match = *match;
      m.cookie = r.u64();
      m.command = static_cast<FlowModCommand>(r.u16());
      m.idle_timeout = r.u16();
      m.hard_timeout = r.u16();
      m.priority = r.u16();
      m.buffer_id = r.u32();
      m.out_port = r.u16();
      m.flags = r.u16();
      if (!r.ok() || !read_actions(r, r.remaining(), m.actions))
        return std::nullopt;
      d.msg = std::move(m);
      break;
    }
    case MsgType::kPacketIn: {
      PacketIn m;
      m.buffer_id = r.u32();
      m.total_len = r.u16();
      m.in_port = r.u16();
      m.reason = static_cast<PacketInReason>(r.u8());
      r.skip(1);
      m.data = r.rest();
      if (!r.ok()) return std::nullopt;
      d.msg = std::move(m);
      break;
    }
    case MsgType::kPacketOut: {
      PacketOut m;
      m.buffer_id = r.u32();
      m.in_port = r.u16();
      const std::uint16_t alen = r.u16();
      if (!r.ok() || !read_actions(r, alen, m.actions)) return std::nullopt;
      m.data = r.rest();
      d.msg = std::move(m);
      break;
    }
    case MsgType::kBarrierRequest:
      d.msg = BarrierRequest{};
      break;
    case MsgType::kBarrierReply:
      d.msg = BarrierReply{};
      break;
    case MsgType::kError: {
      ErrorMsg m;
      m.type = r.u16();
      m.code = r.u16();
      m.data = r.rest();
      if (!r.ok()) return std::nullopt;
      d.msg = std::move(m);
      break;
    }
    case MsgType::kStatsRequest: {
      const std::uint16_t stype = r.u16();
      r.skip(2);  // flags
      if (stype != kStatsTypeFlow) return std::nullopt;
      FlowStatsRequest m;
      auto match = r.match();
      if (!match) return std::nullopt;
      m.match = *match;
      m.table_id = r.u8();
      r.skip(1);
      m.out_port = r.u16();
      if (!r.ok()) return std::nullopt;
      d.msg = m;
      break;
    }
    case MsgType::kStatsReply: {
      const std::uint16_t stype = r.u16();
      const std::uint16_t flags = r.u16();
      if (stype != kStatsTypeFlow) return std::nullopt;
      FlowStatsReply m;
      m.more = (flags & kStatsReplyMore) != 0;
      while (r.ok() && r.remaining() >= 88) {
        FlowStatsEntry f;
        const std::uint16_t entry_len = r.u16();
        f.table_id = r.u8();
        r.skip(1);
        auto match = r.match();
        if (!match) return std::nullopt;
        f.match = *match;
        f.duration_sec = r.u32();
        f.duration_nsec = r.u32();
        f.priority = r.u16();
        f.idle_timeout = r.u16();
        f.hard_timeout = r.u16();
        r.skip(6);
        f.cookie = r.u64();
        f.packet_count = r.u64();
        f.byte_count = r.u64();
        if (entry_len < 88 ||
            !read_actions(r, entry_len - 88, f.actions))
          return std::nullopt;
        m.flows.push_back(std::move(f));
      }
      if (!r.ok()) return std::nullopt;
      d.msg = std::move(m);
      break;
    }
    default:
      return std::nullopt;
  }
  return d;
}

}  // namespace osnt::openflow
