// E6 — demo Part II: "the latency to modify the entries of the switch
// flow table through control and data plane measurements". Sweep the
// flow-table occupancy and report barrier RTT (control plane) vs first
// packet on the new path (data plane). Exits 1, naming the row, when the
// shape claim printed at the end does not hold.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "osnt/oflops/context.hpp"
#include "osnt/oflops/flowmod_latency.hpp"

using namespace osnt;

namespace {
struct Row {
  std::size_t rules;
  double ctrl_p50, data_p50, gap_min;
};
}  // namespace

int main() {
  std::printf("E6: flow_mod latency vs table occupancy (demo Part II)\n");
  std::printf("%8s %14s %14s %14s %14s\n", "rules", "ctrl_p50_ms",
              "data_p50_ms", "data_p99_ms", "gap_p50_ms");

  std::vector<Row> rows;
  for (const std::size_t table : {std::size_t{8}, std::size_t{64},
                                  std::size_t{256}, std::size_t{1024}}) {
    dut::OpenFlowSwitchConfig sw_cfg;
    sw_cfg.commit_base = 1 * kPicosPerMilli;
    sw_cfg.commit_per_entry = 2 * kPicosPerMicro;  // TCAM reshuffle term
    sw_cfg.table.max_entries = 8192;
    oflops::Testbed tb{sw_cfg};

    oflops::FlowModLatencyConfig cfg;
    cfg.table_size = table;
    cfg.rounds = 12;
    oflops::FlowModLatencyModule mod{cfg};
    const auto rep = tb.ctx.run(mod, 300 * kPicosPerSec);

    const SampleSet *ctrl = nullptr, *data = nullptr, *gap = nullptr;
    for (const auto& [name, d] : rep.distributions) {
      if (d.empty()) continue;
      if (name == "control_plane_ms") ctrl = &d;
      if (name == "data_plane_ms") data = &d;
      if (name == "data_minus_control_ms") gap = &d;
    }
    std::printf("%8zu %14.3f %14.3f %14.3f %14.3f\n", table,
                ctrl ? ctrl->quantile(0.5) : -1.0,
                data ? data->quantile(0.5) : -1.0,
                data ? data->quantile(0.99) : -1.0,
                gap ? gap->quantile(0.5) : -1.0);
    rows.push_back({table, ctrl ? ctrl->quantile(0.5) : -1.0,
                    data ? data->quantile(0.5) : -1.0,
                    gap ? gap->min() : -1.0});
  }
  std::printf("\nShape check: control-plane latency is flat (the agent acks "
              "quickly), data-plane install time grows with table occupancy "
              "(TCAM commit cost) — the OFLOPS finding that barriers lie.\n");

  // Flat: every control-plane p50 within 10% of the lowest.
  double ctrl_lo = rows.front().ctrl_p50;
  for (const Row& r : rows) ctrl_lo = std::min(ctrl_lo, r.ctrl_p50);
  int failed = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    if (r.ctrl_p50 <= 0 || r.ctrl_p50 > 1.1 * ctrl_lo) {
      std::fprintf(stderr, "E6 FAILED at %zu rules: ctrl_p50 %.3f ms is not "
                   "within 10%% of %.3f ms\n", r.rules, r.ctrl_p50, ctrl_lo);
      ++failed;
    }
    if (i > 0 && r.data_p50 <= rows[i - 1].data_p50) {
      std::fprintf(stderr, "E6 FAILED at %zu rules: data_p50 %.3f ms does "
                   "not rise above %.3f ms at %zu rules\n", r.rules,
                   r.data_p50, rows[i - 1].data_p50, rows[i - 1].rules);
      ++failed;
    }
    if (r.gap_min <= 0) {
      std::fprintf(stderr, "E6 FAILED at %zu rules: a round's data-plane "
                   "time is not above its control-plane time (min gap "
                   "%.3f ms)\n", r.rules, r.gap_min);
      ++failed;
    }
  }
  std::printf("Shape check %s.\n", failed ? "FAILED" : "holds");
  return failed ? 1 : 0;
}
