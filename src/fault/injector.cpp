#include "osnt/fault/injector.hpp"

#include <string>
#include <vector>

#include "osnt/common/cli.hpp"
#include "osnt/common/log.hpp"
#include "osnt/common/random.hpp"
#include "osnt/core/device.hpp"
#include "osnt/graph/blocks.hpp"
#include "osnt/graph/graph.hpp"
#include "osnt/hw/dma.hpp"
#include "osnt/hw/port.hpp"
#include "osnt/openflow/channel.hpp"
#include "osnt/sim/link.hpp"
#include "osnt/telemetry/registry.hpp"
#include "osnt/tstamp/gps.hpp"

namespace osnt::fault {
namespace {

/// Per-event BER stream seed: osnt::derive_seed over the plan seed and the
/// event's ordinal (stream ordinal+1 — stream 0 is not the identity but
/// skipping it keeps historical plans replaying bit-identically), so every
/// BER window draws from its own reproducible stream no matter how the
/// plan is edited around it.
std::uint64_t event_seed(std::uint64_t plan_seed, std::size_t ordinal) {
  return derive_seed(plan_seed, ordinal + 1);
}

/// BER and rate ramps are quantized to a handful of steps: enough to
/// exercise "the fault grows" behaviour without scheduling thousands of
/// events.
constexpr int kRampSteps = 8;

/// The device's port out-links a link event addresses: port `link`, or
/// all of them for -1.
std::vector<sim::Link*> port_links(core::OsntDevice* dev, int link,
                                   std::size_t ordinal) {
  std::vector<sim::Link*> all;
  for (std::size_t i = 0; dev && i < dev->num_ports(); ++i) {
    all.push_back(&dev->port(i).out_link());
  }
  if (link < 0) return all;
  if (static_cast<std::size_t>(link) < all.size()) {
    return {all[static_cast<std::size_t>(link)]};
  }
  OSNT_WARN("fault: event %zu targets link %d but only %zu attached", ordinal,
            link, all.size());
  return {};
}

/// The graph block a rate_limit or queue_cap event retimes, nullptr for
/// the other kinds. rate_limit needs a token_bucket; queue_cap a
/// fifo_queue, red or token_bucket. Any other name is a PlanError with a
/// did-you-mean among the eligible blocks.
graph::Block* resolve_block(const FaultEvent& ev, std::size_t ordinal,
                            graph::Graph* g) {
  const bool buckets_only = ev.kind == FaultKind::kRateLimit;
  if (!buckets_only && ev.kind != FaultKind::kQueueCap) return nullptr;
  std::vector<std::string> names;
  for (std::size_t i = 0; g && i < g->num_blocks(); ++i) {
    graph::Block& b = g->block(i);
    if (!dynamic_cast<graph::TokenBucketBlock*>(&b) &&
        (buckets_only || !dynamic_cast<graph::FifoQueueBlock*>(&b))) {
      continue;
    }
    if (b.name() == ev.target) return &b;
    names.push_back(b.name());
  }
  std::string msg = std::string("fault plan: ") + fault_kind_name(ev.kind) +
                    " event " + std::to_string(ordinal) +
                    " targets unknown block '" + ev.target + "'";
  const std::string hint = suggest_nearest(ev.target, names);
  if (!hint.empty()) msg += " (did you mean '" + hint + "'?)";
  if (names.empty()) {
    msg += buckets_only ? " — no token_bucket blocks attached"
                        : " — no queue blocks attached";
  }
  throw PlanError(msg);
}

}  // namespace

Injector::Injector(sim::Engine& eng, FaultPlan plan, Targets targets)
    : eng_(&eng) {
  plan.normalize();
  // Every block target resolves before the first event is scheduled: the
  // closures capture `this`, and a constructor that throws leaves no
  // object for them to reach.
  std::vector<graph::Block*> blocks(plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    blocks[i] = resolve_block(plan.events[i], i, targets.graph);
  }
  tracing_ = eng_->trace() != nullptr;
  if (tracing_) {
    for (std::size_t k = 0; k < kFaultKindCount; ++k) {
      trace_tracks_[k] = eng_->trace()->track(
          std::string("fault/") + fault_kind_name(static_cast<FaultKind>(k)));
    }
  }
  const sim::Engine::CategoryScope cat(*eng_, sim::EventCategory::kFault);
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    arm_event_(plan.events[i], i, plan.seed, targets, blocks[i]);
  }
}

Injector::~Injector() {
  if (!telemetry::enabled()) return;
  if (injected_total() == 0 && skipped_ == 0) return;
  auto& reg = telemetry::registry();
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    if (injected_[k] == 0) continue;
    reg.counter(std::string("fault.injected.") +
                fault_kind_name(static_cast<FaultKind>(k)))
        .add(injected_[k]);
  }
  reg.counter("fault.skipped").add(skipped_);
}

std::uint64_t Injector::injected_total() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t v : injected_) total += v;
  return total;
}

void Injector::mark_(FaultKind kind, Picos at, Picos duration) {
  ++injected_[static_cast<std::size_t>(kind)];
  if (tracing_ && eng_->trace()) {
    eng_->trace()->complete(trace_tracks_[static_cast<std::size_t>(kind)],
                            fault_kind_name(kind), at, duration);
  }
}

void Injector::window_(const FaultEvent& ev,
                       const std::function<void(int step, int steps)>& apply,
                       sim::EventFn restore) {
  // Only ber_window and rate_limit ramp: their start is spread over
  // kRampSteps steps, the first of which marks the activation.
  const bool ramps = ev.kind == FaultKind::kBerWindow ||
                     ev.kind == FaultKind::kRateLimit;
  const int steps = ramps && ev.ramp > 0 ? kRampSteps : 1;
  for (int s = 0; s < steps; ++s) {
    eng_->schedule_at(ev.at + ev.ramp * s / steps,
                      [this, kind = ev.kind, at = ev.at, dur = ev.duration,
                       apply, s, steps] {
                        if (s == 0) mark_(kind, at, dur);
                        apply(s, steps);
                      });
  }
  if (restore) eng_->schedule_at(ev.at + ev.duration, std::move(restore));
}

void Injector::arm_event_(const FaultEvent& ev, std::size_t ordinal,
                          std::uint64_t plan_seed, const Targets& targets,
                          graph::Block* block) {
  const auto skip = [&](const char* needs) {
    ++skipped_;
    OSNT_WARN("fault: skipping %s event %zu — no %s attached",
              fault_kind_name(ev.kind), ordinal, needs);
  };
  core::OsntDevice* dev = targets.device;

  switch (ev.kind) {
    case FaultKind::kLinkFlap: {
      const auto links = port_links(dev, ev.link, ordinal);
      if (links.empty()) return skip("matching link");
      return window_(
          ev,
          [links](int, int) {
            for (sim::Link* l : links) l->set_up(false);
          },
          [links] { for (sim::Link* l : links) l->set_up(true); });
    }

    case FaultKind::kBerWindow: {
      const auto links = port_links(dev, ev.link, ordinal);
      if (links.empty()) return skip("matching link");
      // A ramp steps the rate up so early-window frames see a gentler
      // channel than the plateau — a link going marginal.
      return window_(
          ev,
          [links, ber = ev.ber, seed = event_seed(plan_seed, ordinal)](
              int s, int steps) {
            const double step_ber = ber * (s + 1) / steps;
            for (sim::Link* l : links) l->set_bit_error_rate(step_ber, seed);
          },
          [links] {
            for (sim::Link* l : links) l->set_bit_error_rate(0.0);
          });
    }

    case FaultKind::kLatencySpike: {
      const auto links = port_links(dev, ev.link, ordinal);
      if (links.empty()) return skip("matching link");
      return window_(
          ev,
          [links, extra = ev.extra_delay](int, int) {
            for (sim::Link* l : links) l->set_extra_delay(extra);
          },
          [links] { for (sim::Link* l : links) l->set_extra_delay(0); });
    }

    case FaultKind::kDmaStall: {
      if (!dev) return skip("DMA engine");
      return window_(ev, [dma = &dev->dma(), dur = ev.duration](int, int) {
        dma->inject_stall(dur);
      });
    }

    case FaultKind::kCtrlDisconnect: {
      openflow::ControlChannel* chan = targets.channel;
      if (!chan) return skip("control channel");
      return window_(
          ev, [chan](int, int) { chan->set_link_available(false); },
          [chan] { chan->set_link_available(true); });
    }

    case FaultKind::kGpsLoss: {
      if (!dev) return skip("GPS model");
      tstamp::GpsModel* gps = &dev->gps();
      return window_(
          ev, [gps](int, int) { gps->set_connected(false); },
          [gps] { gps->set_connected(true); });
    }

    case FaultKind::kRateLimit: {
      auto* tb = static_cast<graph::TokenBucketBlock*>(block);
      // The configured contract (read before the run), which the restore
      // reinstates. A ramp walks the rate from it to the plateau, a
      // carrier squeezing a customer over seconds; un-ramped, the plan's
      // rate is set exactly, since orig + (rate - orig) need not equal it.
      const double orig_rate = tb->rate_gbps();
      const std::size_t orig_burst = tb->burst_bytes();
      return window_(
          ev,
          [tb, orig_rate, rate = ev.rate_gbps, burst = ev.burst_bytes](
              int s, int steps) {
            if (s == 0 && burst >= 0) {
              tb->set_burst_bytes(static_cast<std::size_t>(burst));
            }
            tb->set_rate_gbps(steps == 1 ? rate
                                         : orig_rate + (rate - orig_rate) *
                                                           (s + 1) / steps);
          },
          [tb, orig_rate, orig_burst] {
            tb->set_rate_gbps(orig_rate);
            tb->set_burst_bytes(orig_burst);
          });
    }

    case FaultKind::kQueueCap: {
      // A cap lands on a serializing queue (fifo_queue / red) or on a
      // shaper's backlog (token_bucket), whichever owns the name.
      const auto cap = [&](auto* q) {
        const std::size_t orig = q->queue_frames();
        window_(
            ev, [q, n = ev.queue_frames](int, int) { q->set_queue_frames(n); },
            [q, orig] { q->set_queue_frames(orig); });
      };
      if (auto* q = dynamic_cast<graph::FifoQueueBlock*>(block)) return cap(q);
      return cap(static_cast<graph::TokenBucketBlock*>(block));
    }
  }
}

}  // namespace osnt::fault
