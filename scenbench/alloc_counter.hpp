// Allocation counting for the benchmark binary (see alloc_counter.cpp).
#pragma once

#include <cstdint>

namespace scenbench {

struct AllocCounts {
  std::uint64_t calls = 0;  ///< operator new invocations of every form
  std::uint64_t bytes = 0;  ///< bytes requested by those calls
};

/// Count allocations from now on (true) or stop counting (false).
void set_alloc_counting(bool on) noexcept;

/// Running totals since process start, over the counted intervals only.
[[nodiscard]] AllocCounts alloc_counts() noexcept;

}  // namespace scenbench
