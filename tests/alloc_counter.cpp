// Replacement global operator new/delete for alloc_test: malloc/free
// pass-throughs that count every allocation. Sized/aligned variants
// funnel here; the counter only ever increments, so a warmed-up region
// asserting a zero delta cannot be fooled by free-list reuse.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace lazyctrl::test {
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

std::uint64_t allocation_count() noexcept { return g_alloc_count.load(); }
}  // namespace lazyctrl::test

void* operator new(std::size_t size) {
  ++lazyctrl::test::g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  ++lazyctrl::test::g_alloc_count;
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
