// E7 — demo Part II: "forwarding consistency during large flow table
// updates". Sweep the update-burst size and report the inconsistency
// window and how many packets the old rules forwarded after their
// replacement was requested. Exits 1, naming the row, when the shape
// claim printed at the end does not hold.
#include <cmath>
#include <cstdio>
#include <vector>

#include "osnt/oflops/consistency.hpp"
#include "osnt/oflops/context.hpp"

using namespace osnt;

namespace {
struct Row {
  std::size_t rules;
  double window, stale;
};
}  // namespace

int main() {
  std::printf("E7: forwarding consistency during flow-table updates "
              "(demo Part II)\n");
  std::printf("%8s %16s %14s %14s %16s\n", "rules", "update_window_ms",
              "stale_pkts", "switched", "rule_eff_p99_ms");

  std::vector<Row> rows;
  for (const std::size_t rules : {std::size_t{32}, std::size_t{128},
                                  std::size_t{512}, std::size_t{1024}}) {
    dut::OpenFlowSwitchConfig sw_cfg;
    sw_cfg.commit_base = 200 * kPicosPerMicro;  // 0.2 ms per rule commit
    sw_cfg.commit_per_entry = 0;
    sw_cfg.table.max_entries = 8192;
    oflops::Testbed tb{sw_cfg};

    oflops::ConsistencyConfig cfg;
    cfg.rule_count = rules;
    cfg.traffic_gbps = 0.5;
    oflops::ConsistencyModule mod{cfg};
    const auto rep = tb.ctx.run(mod, 600 * kPicosPerSec);

    double window = 0, stale = 0, switched = 0, p99 = 0;
    for (const auto& m : rep.scalars) {
      if (m.name == "update_window_ms") window = m.value;
      if (m.name == "stale_packets_after_burst") stale = m.value;
      if (m.name == "flows_switched") switched = m.value;
    }
    for (const auto& [name, d] : rep.distributions)
      if (name == "rule_effective_ms") p99 = d.quantile(0.99);
    std::printf("%8zu %16.2f %14.0f %14.0f %16.2f\n", rules, window, stale,
                switched, p99);
    rows.push_back({rules, window, stale});
  }
  std::printf("\nShape check: the window and the stale-packet count grow "
              "~linearly with the burst size (serial hardware commits): "
              "during a 1024-rule update the data plane is inconsistent for "
              "hundreds of ms.\n");

  // Linear: from one row to the next, each grows by the burst-size ratio
  // to within 10%.
  int failed = 0;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const Row& a = rows[i - 1];
    const Row& b = rows[i];
    const double scale =
        static_cast<double>(b.rules) / static_cast<double>(a.rules);
    const auto check = [&](const char* what, double from, double to) {
      const double ratio = from > 0 ? to / from / scale : 0;
      if (std::abs(ratio - 1.0) <= 0.1) return;
      std::fprintf(stderr, "E7 FAILED at %zu rules: %s grew %.2fx from %zu "
                   "rules, not %.2fx within 10%%\n", b.rules, what,
                   from > 0 ? to / from : 0.0, a.rules, scale);
      ++failed;
    };
    check("update_window_ms", a.window, b.window);
    check("stale_pkts", a.stale, b.stale);
  }
  std::printf("Shape check %s.\n", failed ? "FAILED" : "holds");
  return failed ? 1 : 0;
}
