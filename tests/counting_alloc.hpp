// Counting global allocator for the zero-allocation tests. Include it from
// exactly one .cpp of a test binary (every tests/*.cpp builds its own
// executable): it replaces the global operator new/delete family, so every
// heap allocation in the binary bumps g_heap_allocs and a measured window
// can assert zero against the real hot paths, not a mock.
//
// The nothrow forms are replaced too. Left to the runtime they would pair
// its allocator with the free() below -- std::stable_sort's temporary
// buffer, for one, comes from nothrow new -- which ASan reports as an
// alloc-dealloc mismatch.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

inline std::atomic<std::uint64_t> g_heap_allocs{0};

namespace counting_alloc {
inline void* allocate(std::size_t n) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
inline void* allocate_or_throw(std::size_t n) {
  if (void* p = allocate(n)) return p;
  throw std::bad_alloc{};
}
}  // namespace counting_alloc

// Replacement allocation functions legitimately pair malloc with free; GCC
// cannot know that and flags the pairing as mismatched.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  return counting_alloc::allocate_or_throw(n);
}
void* operator new[](std::size_t n) {
  return counting_alloc::allocate_or_throw(n);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counting_alloc::allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counting_alloc::allocate(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop
