// Heap-allocation counting for the zero-allocation suites. Include from
// exactly one translation unit per test binary: it REPLACES the global
// allocation functions — every replaceable form, so sized, array, nothrow
// and aligned allocations all pair with a matching deallocation through
// malloc/free (sanitizer builds check that pairing). The counters are
// plain atomics so instrumentation itself does not allocate.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace psc {
namespace alloc_counter {

inline constexpr std::size_t kDefaultAlign = alignof(std::max_align_t);
inline std::atomic<std::uint64_t> g_allocations{0};
inline std::atomic<bool> g_counting{false};

// Out of line, like the deallocation functions below: GCC 12 otherwise
// inlines malloc into callers and warns -Wmismatched-new-delete when the
// library's sized delete frees the pointer.
[[gnu::noinline]] inline void* counted_alloc(std::size_t size,
                                             std::size_t align) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  if (align <= kDefaultAlign) return std::malloc(size);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}

inline void* counted_alloc_or_throw(std::size_t size, std::size_t align) {
  if (void* ptr = counted_alloc(size, align)) return ptr;
  throw std::bad_alloc();
}

}  // namespace alloc_counter

/// Counts heap allocations made while it is alive.
class AllocationGuard {
 public:
  AllocationGuard() {
    alloc_counter::g_allocations.store(0, std::memory_order_relaxed);
    alloc_counter::g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationGuard() {
    alloc_counter::g_counting.store(false, std::memory_order_relaxed);
  }
  AllocationGuard(const AllocationGuard&) = delete;
  AllocationGuard& operator=(const AllocationGuard&) = delete;

  [[nodiscard]] std::uint64_t count() const {
    return alloc_counter::g_allocations.load(std::memory_order_relaxed);
  }
};

}  // namespace psc

namespace alloc = psc::alloc_counter;

void* operator new(std::size_t size) {
  return alloc::counted_alloc_or_throw(size, alloc::kDefaultAlign);
}
void* operator new[](std::size_t size) {
  return alloc::counted_alloc_or_throw(size, alloc::kDefaultAlign);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return alloc::counted_alloc(size, alloc::kDefaultAlign);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return alloc::counted_alloc(size, alloc::kDefaultAlign);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return alloc::counted_alloc_or_throw(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return alloc::counted_alloc_or_throw(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return alloc::counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return alloc::counted_alloc(size, static_cast<std::size_t>(align));
}

// Out of line: GCC 12 otherwise inlines free() into callers whose pointer
// it saw come from operator new, and warns -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* ptr) noexcept { std::free(ptr); }
[[gnu::noinline]] void operator delete[](void* ptr) noexcept { std::free(ptr); }
[[gnu::noinline]] void operator delete(void* ptr, std::size_t) noexcept {
  std::free(ptr);
}
[[gnu::noinline]] void operator delete[](void* ptr, std::size_t) noexcept {
  std::free(ptr);
}
[[gnu::noinline]] void operator delete(void* ptr,
                                       const std::nothrow_t&) noexcept {
  std::free(ptr);
}
[[gnu::noinline]] void operator delete[](void* ptr,
                                         const std::nothrow_t&) noexcept {
  std::free(ptr);
}
[[gnu::noinline]] void operator delete(void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
[[gnu::noinline]] void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
[[gnu::noinline]] void operator delete(void* ptr, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(ptr);
}
[[gnu::noinline]] void operator delete[](void* ptr, std::size_t,
                                         std::align_val_t) noexcept {
  std::free(ptr);
}
[[gnu::noinline]] void operator delete(void* ptr, std::align_val_t,
                                       const std::nothrow_t&) noexcept {
  std::free(ptr);
}
[[gnu::noinline]] void operator delete[](void* ptr, std::align_val_t,
                                         const std::nothrow_t&) noexcept {
  std::free(ptr);
}
