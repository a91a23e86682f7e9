// Global operator new and delete for test_alloc (the non-aligned forms:
// nothing it counts is over-aligned), counting every allocation. They sit
// in their own translation unit: where GCC can inline them into a caller,
// it folds new[] into new and warns that delete[] frees the wrong kind.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace osnt::test {
namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_malloc(std::size_t n) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}

}  // namespace

std::uint64_t allocations() noexcept {
  return g_allocs.load(std::memory_order_relaxed);
}

}  // namespace osnt::test

void* operator new(std::size_t n) {
  if (void* p = osnt::test::counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = osnt::test::counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return osnt::test::counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return osnt::test::counted_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
