// Global operator new/delete replacements backing tests/alloc_guard.h.
//
// Defined once per test binary (the one-definition rule forbids a second
// replacement, which is why the counter lives here and not in each test's
// translation unit).
#include "alloc_guard.h"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace harmony::testing {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace harmony::testing

namespace {
void* counted_alloc(std::size_t size, std::size_t align) {
  harmony::testing::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  harmony::testing::g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
