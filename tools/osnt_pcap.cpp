// osnt_pcap — capture-file analysis tool:
//
//   osnt_pcap info  FILE          header + record/flow summary
//   osnt_pcap dump  FILE [--max N]   one line per packet
//   osnt_pcap flows FILE [--top N]   per-flow table, heaviest first
//   osnt_pcap filter IN OUT [--dst-port P] [--proto udp|tcp]
//
// The filter grammar is conjunctive: a record is kept only when it parses
// as an Ethernet/IPv4 frame AND matches every predicate given. With no
// predicates, filter rewrites the parseable subset (a normalize pass).
// --strict (any subcommand reading classic .pcap) makes a truncated final
// record an error instead of a silently swallowed EOF — mirrors
// net::PcapReaderOptions::strict.
#include <cstdio>
#include <string>

#include "osnt/common/cli.hpp"
#include "osnt/mon/flow_stats.hpp"
#include "osnt/net/packet.hpp"
#include "osnt/net/parser.hpp"
#include "osnt/net/pcap.hpp"
#include "osnt/net/pcapng.hpp"

using namespace osnt;

namespace {

bool is_pcapng(const std::string& path) {
  return path.size() > 7 && path.rfind(".pcapng") == path.size() - 7;
}

/// Normalize either format into a single record list. `opt` applies to
/// classic .pcap only (pcapng blocks are length-framed; a short tail is
/// always an error there).
std::vector<net::PcapRecord> load_any(const std::string& path,
                                      net::PcapReaderOptions opt) {
  if (!is_pcapng(path)) return net::PcapReader::read_all(path, opt);
  std::vector<net::PcapRecord> out;
  for (auto& ng : net::PcapngReader::read_all(path)) {
    net::PcapRecord rec;
    rec.ts_nanos = ng.ts_nanos;
    rec.orig_len = ng.orig_len;
    rec.data = std::move(ng.data);
    out.push_back(std::move(rec));
  }
  return out;
}

int cmd_info(const std::string& path, net::PcapReaderOptions opt) {
  net::PcapReader reader{path, opt};
  std::printf("%s: %s timestamps, linktype %u\n", path.c_str(),
              reader.nanosecond_format() ? "nanosecond" : "microsecond",
              reader.link_type());
  std::size_t records = 0, bytes = 0, snapped = 0;
  std::uint64_t first_ns = 0, last_ns = 0;
  mon::FlowStatsCollector flows;
  while (auto rec = reader.next()) {
    if (records == 0) first_ns = rec->ts_nanos;
    last_ns = rec->ts_nanos;
    ++records;
    bytes += rec->orig_len;
    if (rec->orig_len > rec->data.size()) ++snapped;
    mon::CaptureRecord cr;
    cr.data = std::move(rec->data);
    cr.orig_len = rec->orig_len;
    cr.ts = tstamp::Timestamp::from_nanos(static_cast<double>(rec->ts_nanos));
    flows.add(cr);
  }
  const double span_s = static_cast<double>(last_ns - first_ns) * 1e-9;
  std::printf("%zu records, %zu original bytes, %zu snapped, %zu flows\n",
              records, bytes, snapped, flows.flow_count());
  if (reader.truncated_tail() > 0)
    std::printf("(final record truncated; re-run with --strict to fail)\n");
  if (span_s > 0) {
    std::printf("span %.6f s, mean %.3f Mb/s, %.0f pps\n", span_s,
                static_cast<double>(bytes) * 8.0 / span_s / 1e6,
                static_cast<double>(records) / span_s);
  }
  return 0;
}

int cmd_dump(const std::string& path, std::int64_t max,
             net::PcapReaderOptions opt) {
  std::int64_t n = 0;
  for (auto& rec : load_any(path, opt)) {
    if (max > 0 && n >= max) break;
    const net::Packet pkt{rec.data};
    std::printf("%6lld %14.6f %s\n", static_cast<long long>(n),
                static_cast<double>(rec.ts_nanos) * 1e-9,
                net::describe(pkt).c_str());
    ++n;
  }
  return 0;
}

int cmd_flows(const std::string& path, std::int64_t top,
              net::PcapReaderOptions opt) {
  mon::FlowStatsCollector flows;
  for (auto& rec : load_any(path, opt)) {
    mon::CaptureRecord cr;
    cr.data = std::move(rec.data);
    cr.orig_len = rec.orig_len;
    cr.ts = tstamp::Timestamp::from_nanos(static_cast<double>(rec.ts_nanos));
    flows.add(cr);
  }
  std::printf("%-21s %-21s %5s %10s %12s %10s\n", "src", "dst", "proto",
              "packets", "bytes", "Mb/s");
  for (const auto& f :
       flows.top_by_bytes(static_cast<std::size_t>(top > 0 ? top : 0))) {
    char src[32], dst[32];
    std::snprintf(src, sizeof src, "%s:%u", f.key.src_ip.to_string().c_str(),
                  f.key.src_port);
    std::snprintf(dst, sizeof dst, "%s:%u", f.key.dst_ip.to_string().c_str(),
                  f.key.dst_port);
    std::printf("%-21s %-21s %5u %10llu %12llu %10.3f\n", src, dst,
                f.key.protocol, static_cast<unsigned long long>(f.packets),
                static_cast<unsigned long long>(f.bytes),
                f.mean_rate_bps() / 1e6);
  }
  if (flows.unclassified() > 0)
    std::printf("(%llu non-IPv4 records not shown)\n",
                static_cast<unsigned long long>(flows.unclassified()));
  return 0;
}

int cmd_filter(const std::string& in, const std::string& out,
               std::int64_t dst_port, const std::string& proto,
               net::PcapReaderOptions opt) {
  net::PcapReader reader{in, opt};
  net::PcapWriter writer{out, reader.nanosecond_format()};
  std::size_t kept = 0, total = 0;
  while (auto rec = reader.next()) {
    ++total;
    const auto parsed =
        net::parse_packet(ByteSpan{rec->data.data(), rec->data.size()});
    if (!parsed) continue;
    if (!proto.empty()) {
      const bool is_udp = parsed->l4 == net::L4Kind::kUdp;
      const bool is_tcp = parsed->l4 == net::L4Kind::kTcp;
      if ((proto == "udp" && !is_udp) || (proto == "tcp" && !is_tcp)) continue;
    }
    if (dst_port > 0) {
      std::uint16_t dp = 0;
      if (parsed->l4 == net::L4Kind::kUdp) dp = parsed->udp.dst_port;
      if (parsed->l4 == net::L4Kind::kTcp) dp = parsed->tcp.dst_port;
      if (dp != dst_port) continue;
    }
    writer.write(rec->ts_nanos, ByteSpan{rec->data.data(), rec->data.size()},
                 rec->orig_len);
    ++kept;
  }
  std::printf("kept %zu of %zu records -> %s\n", kept, total, out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli{"osnt_pcap — inspect and filter PCAP captures"};
  std::int64_t max = 0, top = 20, dst_port = 0;
  std::string proto;
  bool strict = false;
  cli.add_flag("max", &max, "dump: stop after N records (0 = all)");
  cli.add_flag("top", &top, "flows: show the N heaviest (0 = all)");
  cli.add_flag("dst-port", &dst_port, "filter: keep this destination port");
  cli.add_flag("proto", &proto, "filter: keep udp|tcp only");
  cli.add_flag("strict", &strict,
               "fail on a truncated final record instead of dropping it");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;
  net::PcapReaderOptions opt;
  opt.strict = strict;

  const auto& pos = cli.positional();
  if (pos.empty()) {
    std::fprintf(stderr,
                 "usage: osnt_pcap info  FILE [--strict]\n"
                 "       osnt_pcap dump  FILE [--max N] [--strict]\n"
                 "       osnt_pcap flows FILE [--top N] [--strict]\n"
                 "       osnt_pcap filter IN OUT [--dst-port P] "
                 "[--proto udp|tcp] [--strict]\n"
                 "filter keeps records matching ALL given predicates "
                 "(parseable IPv4 frames only;\nno predicates = normalize "
                 "pass). FILE may be .pcap or .pcapng; OUT is .pcap.\n");
    return 1;
  }
  const std::string& cmd = pos[0];
  try {
    if (cmd == "info" && pos.size() == 2) return cmd_info(pos[1], opt);
    if (cmd == "dump" && pos.size() == 2) return cmd_dump(pos[1], max, opt);
    if (cmd == "flows" && pos.size() == 2) return cmd_flows(pos[1], top, opt);
    if (cmd == "filter" && pos.size() == 3)
      return cmd_filter(pos[1], pos[2], dst_port, proto, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "bad command line (try --help)\n");
  return 1;
}
