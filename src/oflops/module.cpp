#include "osnt/oflops/module.hpp"

namespace osnt::oflops {

void Report::print(std::FILE* out) const {
  std::fprintf(out, "=== %s ===\n", module.c_str());
  if (!stopped.empty()) std::fprintf(out, "  stopped: %s\n", stopped.c_str());
  for (const auto& m : scalars) {
    std::fprintf(out, "  %-36s %14.3f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const auto& [name, dist] : distributions) {
    if (dist.empty()) {
      std::fprintf(out, "  %-36s (no samples)\n", name.c_str());
      continue;
    }
    std::fprintf(out,
                 "  %-36s n=%zu min=%.3f p50=%.3f mean=%.3f p99=%.3f "
                 "max=%.3f\n",
                 name.c_str(), dist.count(), dist.min(), dist.quantile(0.5),
                 dist.mean(), dist.quantile(0.99), dist.max());
  }
}

}  // namespace osnt::oflops
