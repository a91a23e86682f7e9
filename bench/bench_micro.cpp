// E10 — microbenchmarks of the packet-path components (google-benchmark):
// parser, builder, checksum, CRC, filter classification, cutter, flow
// hash, OF 1.0 codec, flow-table lookup. These bound the software-side
// throughput of the toolchain.
#include <benchmark/benchmark.h>

#include "osnt/common/crc.hpp"
#include "osnt/mon/cutter.hpp"
#include "osnt/mon/filter.hpp"
#include "osnt/net/builder.hpp"
#include "osnt/net/checksum.hpp"
#include "osnt/net/flow.hpp"
#include "osnt/net/parser.hpp"
#include "osnt/openflow/flow_table.hpp"
#include "osnt/openflow/messages.hpp"

using namespace osnt;

namespace {

net::Packet make_udp(std::size_t size) {
  net::PacketBuilder b;
  return b.eth(net::MacAddr::from_index(1), net::MacAddr::from_index(2))
      .ipv4(net::Ipv4Addr::of(10, 0, 0, 1), net::Ipv4Addr::of(10, 0, 1, 1),
            net::ipproto::kUdp)
      .udp(1024, 5001)
      .pad_to_frame(size)
      .build();
}

void BM_BuildUdpFrame(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(make_udp(size));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_BuildUdpFrame)->Arg(64)->Arg(512)->Arg(1518);

void BM_ParsePacket(benchmark::State& state) {
  const auto pkt = make_udp(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(net::parse_packet(pkt.bytes()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pkt.size()));
}
BENCHMARK(BM_ParsePacket)->Arg(64)->Arg(1518);

void BM_Crc32(benchmark::State& state) {
  const auto pkt = make_udp(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(crc32(pkt.bytes()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pkt.size()));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1518);

void BM_InternetChecksum(benchmark::State& state) {
  const auto pkt = make_udp(1518);
  for (auto _ : state)
    benchmark::DoNotOptimize(net::internet_checksum(pkt.bytes()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1514);
}
BENCHMARK(BM_InternetChecksum);

void BM_FlowExtractAndHash(benchmark::State& state) {
  const auto pkt = make_udp(64);
  for (auto _ : state) {
    auto t = net::extract_flow(pkt.bytes());
    benchmark::DoNotOptimize(t->hash());
  }
}
BENCHMARK(BM_FlowExtractAndHash);

void BM_FilterClassify(benchmark::State& state) {
  mon::FilterTable table;
  for (int i = 0; i < state.range(0); ++i) {
    mon::FilterRule r;
    r.dst_port = static_cast<std::uint16_t>(9000 + i);  // all miss
    table.add(r);
  }
  const auto pkt = make_udp(64);
  const auto parsed = *net::parse_packet(pkt.bytes());
  for (auto _ : state) benchmark::DoNotOptimize(table.classify(parsed));
}
BENCHMARK(BM_FilterClassify)->Arg(1)->Arg(8)->Arg(16);

void BM_CutterSnap(benchmark::State& state) {
  mon::CutterConfig cfg;
  cfg.snap_len = 64;
  mon::PacketCutter cutter{cfg};
  const auto pkt = make_udp(1518);
  for (auto _ : state) benchmark::DoNotOptimize(cutter.process(pkt.bytes()));
}
BENCHMARK(BM_CutterSnap);

void BM_OfEncodeFlowMod(benchmark::State& state) {
  openflow::FlowMod fm;
  fm.match = openflow::OfMatch::exact_5tuple(1, 2, 17, 3, 4);
  fm.actions = {openflow::ActionOutput{2}};
  for (auto _ : state) benchmark::DoNotOptimize(openflow::encode(fm, 1));
}
BENCHMARK(BM_OfEncodeFlowMod);

void BM_OfDecodeFlowMod(benchmark::State& state) {
  openflow::FlowMod fm;
  fm.match = openflow::OfMatch::exact_5tuple(1, 2, 17, 3, 4);
  fm.actions = {openflow::ActionOutput{2}};
  const Bytes wire = openflow::encode(fm, 1);
  for (auto _ : state)
    benchmark::DoNotOptimize(openflow::decode(ByteSpan{wire.data(), wire.size()}));
}
BENCHMARK(BM_OfDecodeFlowMod);

void BM_FlowTableLookup(benchmark::State& state) {
  openflow::FlowTableConfig cfg;
  cfg.max_entries = 8192;
  openflow::FlowTable table{cfg};
  const auto n = state.range(0);
  for (std::int64_t i = 0; i < n; ++i) {
    openflow::FlowMod fm;
    fm.match = openflow::OfMatch::exact_5tuple(
        1, static_cast<std::uint32_t>(i + 2), 17, 3, 4);
    fm.actions = {openflow::ActionOutput{2}};
    table.apply(fm, 0);
  }
  // Worst case: match the last-priority rule.
  openflow::OfMatch pkt;
  pkt.wildcards = 0;
  pkt.dl_type = 0x0800;
  pkt.nw_proto = 17;
  pkt.nw_src = 1;
  pkt.nw_dst = static_cast<std::uint32_t>(n + 1);
  pkt.tp_src = 3;
  pkt.tp_dst = 4;
  for (auto _ : state) benchmark::DoNotOptimize(table.lookup(pkt, 64));
}
BENCHMARK(BM_FlowTableLookup)->Arg(16)->Arg(256)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
