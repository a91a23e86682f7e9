#include "osnt/core/self_test.hpp"

#include <cstdio>

#include "osnt/common/crc.hpp"
#include "osnt/core/measure.hpp"
#include "osnt/tstamp/embed.hpp"

namespace osnt::core {
namespace {

constexpr std::size_t kFramesPerPort = 200;
constexpr std::size_t kFrameSize = 512;

std::string portmsg(std::size_t p, const char* what) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "port %zu: %s", p, what);
  return buf;
}

}  // namespace

SelfTestResult run_self_test(sim::Engine& eng, OsntDevice& dev) {
  SelfTestResult result;

  for (std::size_t p = 0; p + 1 < dev.num_ports(); p += 2) {
    if (dev.port(p).cabled() || dev.port(p + 1).cabled()) {
      result.fail(portmsg(p, "already cabled; self-test needs a bare card"));
      return result;
    }
    hw::connect(dev.port(p), dev.port(p + 1));
  }

  for (std::size_t p = 0; p + 1 < dev.num_ports(); p += 2) {
    dev.capture().clear();
    gen::TxConfig txc;
    txc.rate = gen::RateSpec::line_rate(0.5);
    txc.seed = 42 + p;
    auto& tx = dev.configure_tx(p, txc);
    TrafficSpec spec;
    spec.frame_size = kFrameSize;
    spec.frame_count = kFramesPerPort;
    spec.seed = p + 1;
    tx.set_source(make_source(spec));
    tx.start();
    eng.run();

    auto& rx = dev.rx(p + 1);
    if (tx.frames_sent() != kFramesPerPort)
      result.fail(portmsg(p, "generator under-delivered"));
    if (rx.seen() != kFramesPerPort)
      result.fail(portmsg(p + 1, "monitor missed frames"));
    if (rx.dma_drops() != 0)
      result.fail(portmsg(p + 1, "DMA dropped during self-test"));

    // Capture integrity: hash matches payload, stamps sane and monotonic.
    std::uint64_t prev_raw = 0;
    std::uint32_t expect_seq = 0;
    bool seq_ok = true, hash_ok = true, ts_ok = true;
    for (const auto& rec : dev.capture().records()) {
      if (rec.port != p + 1) continue;
      if (rec.hash != crc32(ByteSpan{rec.data.data(), rec.data.size()}))
        hash_ok = false;
      if (rec.ts.raw < prev_raw) ts_ok = false;
      prev_raw = rec.ts.raw;
      const auto stamp = tstamp::extract_timestamp(
          ByteSpan{rec.data.data(), rec.data.size()},
          tstamp::kDefaultEmbedOffset);
      if (!stamp || stamp->seq != expect_seq++) seq_ok = false;
    }
    if (!hash_ok) result.fail(portmsg(p + 1, "capture hash mismatch"));
    if (!ts_ok) result.fail(portmsg(p + 1, "non-monotonic RX timestamps"));
    if (!seq_ok) result.fail(portmsg(p + 1, "sequence gap or reorder"));
  }
  return result;
}

}  // namespace osnt::core
