#include "osnt/net/tcp_options.hpp"

namespace osnt::net {

std::optional<std::vector<TcpOption>> parse_tcp_options(
    ByteSpan options) noexcept {
  std::vector<TcpOption> out;
  std::size_t i = 0;
  while (i < options.size()) {
    const auto kind = static_cast<TcpOptionKind>(options[i]);
    if (kind == TcpOptionKind::kEnd) break;
    if (kind == TcpOptionKind::kNop) {
      ++i;
      continue;
    }
    if (i + 1 >= options.size()) return std::nullopt;  // missing length
    const std::uint8_t len = options[i + 1];
    if (len < 2 || i + len > options.size()) return std::nullopt;
    TcpOption opt;
    opt.kind = kind;
    opt.data.assign(options.begin() + static_cast<std::ptrdiff_t>(i + 2),
                    options.begin() + static_cast<std::ptrdiff_t>(i + len));
    out.push_back(std::move(opt));
    i += len;
  }
  return out;
}

Bytes encode_tcp_options(const std::vector<TcpOption>& options) {
  Bytes out;
  for (const auto& opt : options) {
    out.push_back(static_cast<std::uint8_t>(opt.kind));
    out.push_back(static_cast<std::uint8_t>(opt.data.size() + 2));
    out.insert(out.end(), opt.data.begin(), opt.data.end());
  }
  // Pad to a 4-byte boundary: END then NOPs per convention (any padding
  // after END is ignored by parsers).
  if (out.size() % 4 != 0) {
    out.push_back(static_cast<std::uint8_t>(TcpOptionKind::kEnd));
    while (out.size() % 4 != 0)
      out.push_back(static_cast<std::uint8_t>(TcpOptionKind::kNop));
  }
  return out;
}

TcpOption tcp_option_mss(std::uint16_t mss) {
  TcpOption o;
  o.kind = TcpOptionKind::kMss;
  o.data.resize(2);
  store_be16(o.data.data(), mss);
  return o;
}

TcpOption tcp_option_window_scale(std::uint8_t shift) {
  TcpOption o;
  o.kind = TcpOptionKind::kWindowScale;
  o.data = {shift};
  return o;
}

TcpOption tcp_option_sack_permitted() {
  TcpOption o;
  o.kind = TcpOptionKind::kSackPermitted;
  return o;
}

TcpOption tcp_option_timestamps(std::uint32_t tsval, std::uint32_t tsecr) {
  TcpOption o;
  o.kind = TcpOptionKind::kTimestamps;
  o.data.resize(8);
  store_be32(o.data.data(), tsval);
  store_be32(o.data.data() + 4, tsecr);
  return o;
}

std::optional<std::uint16_t> tcp_mss_of(
    const std::vector<TcpOption>& options) noexcept {
  for (const auto& o : options) {
    if (o.kind == TcpOptionKind::kMss && o.data.size() == 2)
      return load_be16(o.data.data());
  }
  return std::nullopt;
}

std::optional<std::uint8_t> tcp_window_scale_of(
    const std::vector<TcpOption>& options) noexcept {
  for (const auto& o : options) {
    if (o.kind == TcpOptionKind::kWindowScale && o.data.size() == 1)
      return o.data[0];
  }
  return std::nullopt;
}

std::optional<std::pair<std::uint32_t, std::uint32_t>> tcp_timestamps_of(
    ByteSpan options) noexcept {
  // parse_tcp_options' walk, without materializing the options: keep
  // the first well-sized timestamps option, but walk on to the end so a
  // malformed length anywhere still rejects the whole area.
  std::optional<std::pair<std::uint32_t, std::uint32_t>> ts;
  std::size_t i = 0;
  while (i < options.size()) {
    const auto kind = static_cast<TcpOptionKind>(options[i]);
    if (kind == TcpOptionKind::kEnd) break;
    if (kind == TcpOptionKind::kNop) {
      ++i;
      continue;
    }
    if (i + 1 >= options.size()) return std::nullopt;  // missing length
    const std::uint8_t len = options[i + 1];
    if (len < 2 || i + len > options.size()) return std::nullopt;
    if (!ts && kind == TcpOptionKind::kTimestamps && len == 10) {
      ts.emplace(load_be32(&options[i + 2]), load_be32(&options[i + 6]));
    }
    i += len;
  }
  return ts;
}

}  // namespace osnt::net
