// Global operator new/delete replacement for the benchmark binary: counts
// heap allocations and requested bytes while counting is switched on, so
// the per-layer report can give exact allocations per frame for the
// timed trials only (set-up and warm-up run with counting off).
#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace scenbench {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_calls{0};
std::atomic<std::uint64_t> g_bytes{0};

void note(std::size_t n) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_calls.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(n, std::memory_order_relaxed);
  }
}

void* alloc_plain(std::size_t n) noexcept {
  note(n);
  return std::malloc(n != 0 ? n : 1);
}

void* alloc_aligned(std::size_t n, std::align_val_t al) noexcept {
  note(n);
  std::size_t a = static_cast<std::size_t>(al);
  if (a < sizeof(void*)) a = sizeof(void*);
  void* p = nullptr;
  return posix_memalign(&p, a, n != 0 ? n : 1) == 0 ? p : nullptr;
}

}  // namespace

void set_alloc_counting(bool on) noexcept {
  g_counting.store(on, std::memory_order_relaxed);
}

AllocCounts alloc_counts() noexcept {
  return {g_calls.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace scenbench

void* operator new(std::size_t n) {
  if (void* p = scenbench::alloc_plain(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = scenbench::alloc_plain(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return scenbench::alloc_plain(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return scenbench::alloc_plain(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = scenbench::alloc_aligned(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = scenbench::alloc_aligned(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return scenbench::alloc_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return scenbench::alloc_aligned(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
