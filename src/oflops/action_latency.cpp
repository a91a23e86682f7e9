#include "osnt/oflops/action_latency.hpp"

#include "osnt/gen/template_gen.hpp"
#include "osnt/net/headers.hpp"
#include "osnt/tstamp/embed.hpp"

namespace osnt::oflops {

using namespace osnt::openflow;

namespace {

constexpr double kProbePps = 50'000.0;

/// Start the probe stream out of OSNT port 0.
void start_probe(OflopsContext& ctx) {
  gen::TxConfig txc;
  txc.rate = gen::RateSpec::pps(kProbePps);
  auto& tx = ctx.osnt().configure_tx(0, txc);
  gen::TemplateConfig tc;
  tx.set_source(std::make_unique<gen::TemplateSource>(
      tc, std::make_unique<gen::FixedSize>(256)));
  tx.start();
}

}  // namespace

void ActionLatencyModule::install_rule(OflopsContext& ctx, bool with_modify) {
  FlowMod fm;
  fm.match = OfMatch::exact_5tuple(gen::TemplateConfig{}.flow(0));
  fm.priority = 0x9000;
  if (with_modify) {
    fm.actions = {ActionSetVlanVid{100}, ActionOutput{2}};
  } else {
    fm.actions = {ActionOutput{2}};
  }
  ctx.install({fm}, kTimerInstalled);
}

void ActionLatencyModule::start(OflopsContext& ctx) {
  install_rule(ctx, /*with_modify=*/false);
  mode_ = Mode::kInstallPlain;
}

void ActionLatencyModule::on_timer(OflopsContext& ctx,
                                   std::uint64_t timer_id) {
  if (timer_id == kTimerInstalled) {
    // The probes start once the switch has answered the plain rule's
    // install: a switch that never answers is sent no frame at all.
    if (mode_ == Mode::kInstallPlain) start_probe(ctx);
    // Give the hardware commit time to land, then start sampling.
    ctx.timer_in(cfg_.settle, kTimerSettled);
    return;
  }
  if (timer_id != kTimerSettled) return;
  if (mode_ == Mode::kInstallPlain) mode_ = Mode::kPlain;
  if (mode_ == Mode::kInstallModify) mode_ = Mode::kModify;
}

void ActionLatencyModule::on_capture(OflopsContext& ctx,
                                     const mon::CaptureRecord& rec) {
  if (rec.port != 1) return;
  // The VLAN rewrite inserts 4 bytes at offset 12, shifting the embedded
  // stamp from 42 to 46 on tagged frames.
  std::size_t offset = tstamp::kDefaultEmbedOffset;
  if (rec.data.size() >= 14 &&
      load_be16(rec.data.data() + 12) ==
          static_cast<std::uint16_t>(net::EtherType::kVlan))
    offset += net::VlanTag::kSize;
  const auto stamp = tstamp::extract_timestamp(
      ByteSpan{rec.data.data(), rec.data.size()}, offset);
  if (!stamp) return;
  const double lat_ns = tstamp::delta_nanos(rec.ts, stamp->ts);

  if (mode_ == Mode::kPlain) {
    plain_ns_.add(lat_ns);
    if (plain_ns_.count() >= cfg_.samples_per_mode) {
      mode_ = Mode::kInstallModify;
      install_rule(ctx, /*with_modify=*/true);
    }
  } else if (mode_ == Mode::kModify) {
    modify_ns_.add(lat_ns);
    if (modify_ns_.count() >= cfg_.samples_per_mode) {
      mode_ = Mode::kDone;
      done_ = true;
      ctx.osnt().tx(0).stop();
    }
  }
}

Report ActionLatencyModule::report() const {
  Report r;
  r.module = name();
  r.add_distribution("forward_only_ns", plain_ns_);
  r.add_distribution("vlan_rewrite_ns", modify_ns_);
  if (plain_ns_.count() && modify_ns_.count()) {
    r.add("action_overhead_ns",
          modify_ns_.quantile(0.5) - plain_ns_.quantile(0.5), "ns");
  }
  return r;
}

}  // namespace osnt::oflops
