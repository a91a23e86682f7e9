#include "osnt/fault/plan.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include "osnt/common/json.hpp"

namespace osnt::fault {
namespace {

using Json = json::Value;
using Type = json::Value::Type;

/// Validation failure for event `i`. Parse failures come from json::Reader
/// instead, positioned at the offending value.
[[noreturn]] void bad_event(std::size_t i, const std::string& why) {
  throw PlanError("fault plan event " + std::to_string(i) + ": " + why);
}

}  // namespace

FaultPlan& FaultPlan::link_flap(Picos at, Picos duration, int link) {
  FaultEvent e;
  e.kind = FaultKind::kLinkFlap;
  e.at = at;
  e.duration = duration;
  e.link = link;
  events.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::ber_window(Picos at, Picos duration, double ber,
                                 Picos ramp, int link) {
  FaultEvent e;
  e.kind = FaultKind::kBerWindow;
  e.at = at;
  e.duration = duration;
  e.ber = ber;
  e.ramp = ramp;
  e.link = link;
  events.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::latency_spike(Picos at, Picos duration, Picos extra,
                                    int link) {
  FaultEvent e;
  e.kind = FaultKind::kLatencySpike;
  e.at = at;
  e.duration = duration;
  e.extra_delay = extra;
  e.link = link;
  events.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::dma_stall(Picos at, Picos duration) {
  FaultEvent e;
  e.kind = FaultKind::kDmaStall;
  e.at = at;
  e.duration = duration;
  events.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::ctrl_disconnect(Picos at, Picos duration) {
  FaultEvent e;
  e.kind = FaultKind::kCtrlDisconnect;
  e.at = at;
  e.duration = duration;
  events.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::gps_loss(Picos at, Picos duration) {
  FaultEvent e;
  e.kind = FaultKind::kGpsLoss;
  e.at = at;
  e.duration = duration;
  events.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::rate_limit(Picos at, Picos duration, std::string target,
                                 double rate_gbps, Picos ramp,
                                 std::int64_t burst_bytes) {
  FaultEvent e;
  e.kind = FaultKind::kRateLimit;
  e.at = at;
  e.duration = duration;
  e.target = std::move(target);
  e.rate_gbps = rate_gbps;
  e.ramp = ramp;
  e.burst_bytes = burst_bytes;
  events.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::queue_cap(Picos at, Picos duration, std::string target,
                                std::size_t queue_frames) {
  FaultEvent e;
  e.kind = FaultKind::kQueueCap;
  e.at = at;
  e.duration = duration;
  e.target = std::move(target);
  e.queue_frames = queue_frames;
  events.push_back(e);
  return *this;
}

void FaultPlan::normalize() {
  for (std::size_t i = 0; i < events.size(); ++i) {
    FaultEvent& e = events[i];
    if (e.at < 0) bad_event(i, "start time must be >= 0");
    if (e.duration < 0) bad_event(i, "duration must be >= 0");
    if (e.kind == FaultKind::kBerWindow) {
      if (!(e.ber >= 0.0 && e.ber <= 1.0)) {
        bad_event(i, "ber must be in [0, 1]");
      }
      if (e.ramp < 0 || e.ramp > e.duration) {
        bad_event(i, "ramp must be in [0, duration]");
      }
    }
    if (e.kind == FaultKind::kLatencySpike && e.extra_delay < 0) {
      bad_event(i, "extra delay must be >= 0");
    }
    if (e.kind == FaultKind::kRateLimit) {
      if (e.target.empty()) bad_event(i, "rate_limit requires a target");
      if (!(e.rate_gbps > 0.0)) bad_event(i, "rate_gbps must be > 0");
      if (e.ramp < 0 || e.ramp > e.duration) {
        bad_event(i, "ramp must be in [0, duration]");
      }
      if (e.burst_bytes == 0 || e.burst_bytes < -1) {
        bad_event(i, "burst_bytes must be >= 1 (omit to keep current)");
      }
    }
    if (e.kind == FaultKind::kQueueCap) {
      if (e.target.empty()) bad_event(i, "queue_cap requires a target");
      if (e.queue_frames == 0) bad_event(i, "queue_frames must be >= 1");
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
}

FaultPlan FaultPlan::from_json(const std::string& text) {
  // Plans parse through the shared strict reader (osnt::json, also behind
  // topology files); its positioned ParseError is rethrown as PlanError so
  // fault-plan callers keep a single exception type.
  FaultPlan plan;
  try {
    const Json root = json::parse(text, "fault plan JSON");
    const json::Reader r{root, "fault plan"};
    r.allow({"seed", "events"});
    plan.seed = r.count("seed", plan.seed);
    const Json& events = r.need("events", Type::kArray);
    for (std::size_t i = 0; i < events.array.size(); ++i) {
      char who[48];
      std::snprintf(who, sizeof who, "fault plan event %zu", i);
      const json::Reader ev{events.array[i], who};
      FaultEvent e;
      e.kind = static_cast<FaultKind>(ev.need_choice("type", kFaultKindNames));
      switch (e.kind) {
        case FaultKind::kLinkFlap:
          ev.allow({"type", "link"}, {"at", "duration"});
          break;
        case FaultKind::kBerWindow:
          ev.allow({"type", "link", "ber"}, {"at", "duration", "ramp"});
          break;
        case FaultKind::kLatencySpike:
          ev.allow({"type", "link"}, {"at", "duration", "extra"});
          break;
        case FaultKind::kDmaStall:
        case FaultKind::kCtrlDisconnect:
        case FaultKind::kGpsLoss:
          ev.allow({"type"}, {"at", "duration"});
          break;
        case FaultKind::kRateLimit:
          ev.allow({"type", "target", "rate_gbps", "burst_bytes"},
                   {"at", "duration", "ramp"});
          break;
        case FaultKind::kQueueCap:
          ev.allow({"type", "target", "queue_frames"}, {"at", "duration"});
          break;
      }
      // Keys a kind does not allow are absent, so optional reads are safe
      // for every kind.
      e.at = ev.need_time("at");
      e.duration = ev.time("duration", 0);
      e.ramp = ev.time("ramp", 0);
      if (ev.get("link", Type::kNumber)) {
        e.link = static_cast<int>(
            ev.count("link", 0, std::numeric_limits<int>::max()));
      }
      if (ev.get("burst_bytes", Type::kNumber)) {
        e.burst_bytes = static_cast<std::int64_t>(ev.count(
            "burst_bytes", 0, std::numeric_limits<std::int64_t>::max()));
      }
      if (e.kind == FaultKind::kBerWindow) {
        e.ber = ev.need("ber", Type::kNumber).number;
      }
      if (e.kind == FaultKind::kLatencySpike) {
        e.extra_delay = ev.need_time("extra");
      }
      if (e.kind == FaultKind::kRateLimit || e.kind == FaultKind::kQueueCap) {
        e.target = ev.need("target", Type::kString).string;
      }
      if (e.kind == FaultKind::kRateLimit) {
        e.rate_gbps = ev.need("rate_gbps", Type::kNumber).number;
      }
      if (e.kind == FaultKind::kQueueCap) {
        (void)ev.need("queue_frames", Type::kNumber);
        e.queue_frames = ev.count("queue_frames", 0);
      }
      plan.events.push_back(e);
    }
  } catch (const json::ParseError& e) {
    throw PlanError(e.what());
  }
  plan.normalize();
  return plan;
}

FaultPlan FaultPlan::load(const std::string& path) {
  try {
    return from_json(json::read_file(path, "fault plan"));
  } catch (const json::ParseError& e) {
    throw PlanError(e.what());
  }
}

std::string FaultPlan::summary() const {
  std::size_t by_kind[kFaultKindCount] = {};
  Picos span = 0;
  for (const FaultEvent& e : events) {
    ++by_kind[static_cast<std::size_t>(e.kind)];
    span = std::max(span, e.at + e.duration);
  }
  char head[64];
  std::snprintf(head, sizeof head, "%zu events over %.3f ms:", events.size(),
                static_cast<double>(span) / static_cast<double>(kPicosPerMilli));
  std::string out = head;
  bool any = false;
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    if (by_kind[k] == 0) continue;
    out += std::string(any ? ", " : " ") + std::to_string(by_kind[k]) + " " +
           fault_kind_name(static_cast<FaultKind>(k));
    any = true;
  }
  if (!any) out += " none";
  return out;
}

}  // namespace osnt::fault
