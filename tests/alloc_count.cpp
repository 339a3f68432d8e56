// Counting global allocator: every operator-new flavour funnels through
// one counter. delete is deliberately not counted — the invariant is "no
// allocations", and frees of pre-steady-state memory are harmless.
//
// The replacements live in their own translation unit: inlined into a
// caller that got its pointer from operator new, a replacement delete's
// std::free() reads to the compiler as a mismatched deallocation
// (-Wmismatched-new-delete), although both sides are these functions.
#include "alloc_count.hpp"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_new_calls{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  // aligned_alloc wants the size to be a multiple of the alignment.
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

std::uint64_t mflow::test::allocations() {
  return g_new_calls.load(std::memory_order_relaxed);
}

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc(n, static_cast<std::size_t>(al));
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
