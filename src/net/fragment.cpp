#include "osnt/net/fragment.hpp"

#include <algorithm>
#include <stdexcept>

#include "osnt/net/checksum.hpp"

namespace osnt::net {

std::vector<Packet> fragment_ipv4(const Packet& packet, std::size_t mtu) {
  const auto parsed = parse_packet(packet.bytes());
  if (!parsed || parsed->l3 != L3Kind::kIpv4)
    throw std::invalid_argument("fragment_ipv4: not an IPv4 frame");

  const std::size_t l3_off = parsed->l3_offset;
  const std::size_t hdr_len = parsed->ipv4.header_len();
  const std::size_t datagram_len = parsed->ipv4.total_length;
  if (datagram_len <= mtu) return {packet};
  if (parsed->ipv4.dont_fragment)
    throw std::invalid_argument("fragment_ipv4: DF set and datagram > MTU");
  if (mtu < hdr_len + 8)
    throw std::invalid_argument("fragment_ipv4: MTU below header + 8");

  // Payload bytes per fragment: multiple of 8 (offset units).
  const std::size_t per_frag = ((mtu - hdr_len) / 8) * 8;
  const std::size_t payload_len = datagram_len - hdr_len;
  const std::uint8_t* payload = packet.data.data() + l3_off + hdr_len;

  std::vector<Packet> out;
  for (std::size_t off = 0; off < payload_len; off += per_frag) {
    const std::size_t take = std::min(per_frag, payload_len - off);
    Packet frag;
    // Ethernet header (+ any VLAN tag) verbatim, sized once for the IP
    // header that follows it.
    frag.data.resize(l3_off + hdr_len);
    std::copy_n(packet.data.begin(), l3_off, frag.data.begin());
    // IP header with adjusted length/flags/offset/checksum.
    Ipv4Header h = parsed->ipv4;
    h.total_length = static_cast<std::uint16_t>(hdr_len + take);
    h.fragment_offset =
        static_cast<std::uint16_t>((parsed->ipv4.fragment_offset * 8 + off) / 8);
    h.more_fragments =
        (off + take < payload_len) || parsed->ipv4.more_fragments;
    h.finalize_checksum();
    h.write(MutByteSpan{frag.data.data() + l3_off, hdr_len});
    frag.data.insert(frag.data.end(), payload + off, payload + off + take);
    // Respect the Ethernet minimum.
    if (frag.wire_len() < kEthMinFrame)
      frag.data.resize(kEthMinFrame - kEthFcsLen, 0);
    frag.id = packet.id;
    out.push_back(std::move(frag));
  }
  return out;
}

std::optional<Packet> Ipv4Reassembler::add(const Packet& frame, Picos now) {
  const auto parsed = parse_packet(frame.bytes());
  if (!parsed || parsed->l3 != L3Kind::kIpv4) return std::nullopt;
  const Ipv4Header& ip = parsed->ipv4;
  if (ip.fragment_offset == 0 && !ip.more_fragments) return frame;  // whole

  const Key key{ip.src.v, ip.dst.v, ip.identification, ip.protocol};
  auto it = pending_.find(key);
  if (it == pending_.end()) {
    if (pending_.size() >= cfg_.max_pending) {
      ++dropped_overflow_;
      return std::nullopt;
    }
    it = pending_.emplace(key, Partial{}).first;
    it->second.first_seen = now;
  }
  Partial& p = it->second;

  const std::size_t hdr_len = ip.header_len();
  const std::size_t chunk_len = ip.total_length - hdr_len;
  const std::uint16_t off_bytes = ip.fragment_offset * 8;
  Bytes chunk(frame.data.begin() +
                  static_cast<std::ptrdiff_t>(parsed->l3_offset + hdr_len),
              frame.data.begin() +
                  static_cast<std::ptrdiff_t>(parsed->l3_offset + hdr_len +
                                              chunk_len));
  p.chunks[off_bytes] = std::move(chunk);
  if (!ip.more_fragments)
    p.total_payload = off_bytes + chunk_len;
  if (off_bytes == 0) {
    p.first_frame_headers.assign(
        frame.data.begin(),
        frame.data.begin() +
            static_cast<std::ptrdiff_t>(parsed->l3_offset + hdr_len));
  }

  // Complete? All bytes up to total_payload covered contiguously.
  if (!p.total_payload || p.first_frame_headers.empty()) return std::nullopt;
  std::size_t covered = 0;
  for (const auto& [off, data] : p.chunks) {
    if (off > covered) return std::nullopt;  // hole
    covered = std::max(covered, off + data.size());
  }
  if (covered < *p.total_payload) return std::nullopt;

  // Rebuild the datagram behind the offset-0 fragment's headers.
  Packet whole;
  whole.data = p.first_frame_headers;
  const std::size_t l3_off = whole.data.size() - hdr_len;
  for (const auto& [off, data] : p.chunks) {
    const std::size_t want = l3_off + hdr_len + off;
    if (whole.data.size() < want + data.size())
      whole.data.resize(want + data.size());
    std::copy(data.begin(), data.end(),
              whole.data.begin() + static_cast<std::ptrdiff_t>(want));
  }
  // Patch the IP header: full length, no fragmentation.
  Ipv4Header h = ip;
  h.total_length = static_cast<std::uint16_t>(hdr_len + *p.total_payload);
  h.fragment_offset = 0;
  h.more_fragments = false;
  h.finalize_checksum();
  h.write(MutByteSpan{whole.data.data() + l3_off, hdr_len});
  if (whole.wire_len() < kEthMinFrame)
    whole.data.resize(kEthMinFrame - kEthFcsLen, 0);

  pending_.erase(it);
  ++completed_;
  return whole;
}

std::size_t Ipv4Reassembler::expire(Picos now) {
  constexpr Picos kTimeout = 30 * kPicosPerSec;  // partial datagrams expire
  std::size_t n = 0;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (now - it->second.first_seen >= kTimeout) {
      it = pending_.erase(it);
      ++n;
    } else {
      ++it;
    }
  }
  return n;
}

}  // namespace osnt::net
