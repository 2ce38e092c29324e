// Global allocation counter for the zero-allocation guards of warm query
// paths (session_test, live_test).
//
// Replaces EVERY replaceable global operator new/delete — plain, array,
// aligned and the nothrow forms of each — with malloc/aligned_alloc/free
// and counts the news. The set must be complete: a form left to the
// runtime (std::stable_sort's buffer uses nothrow new) allocates from the
// runtime's allocator, and its block then reaches the free()-based delete
// below, which ASan reports as an alloc-dealloc mismatch.
//
// Replacement functions cannot be inline, so include this header in
// exactly one translation unit of a test binary.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace pconn::test {

/// Relaxed: pool threads allocate too (only before warm-up, which is
/// exactly what the guards verify).
inline std::atomic<std::uint64_t> g_allocs{0};

inline std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

inline void* counted_malloc(std::size_t size) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

inline void* counted_aligned_alloc(std::size_t size,
                                   std::align_val_t al) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto align = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded == 0 ? align : rounded);
}

inline void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace pconn::test

void* operator new(std::size_t size) {
  return pconn::test::or_throw(pconn::test::counted_malloc(size));
}
void* operator new[](std::size_t size) {
  return pconn::test::or_throw(pconn::test::counted_malloc(size));
}
void* operator new(std::size_t size, std::align_val_t al) {
  return pconn::test::or_throw(pconn::test::counted_aligned_alloc(size, al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return pconn::test::or_throw(pconn::test::counted_aligned_alloc(size, al));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return pconn::test::counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return pconn::test::counted_malloc(size);
}
void* operator new(std::size_t size, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return pconn::test::counted_aligned_alloc(size, al);
}
void* operator new[](std::size_t size, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return pconn::test::counted_aligned_alloc(size, al);
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
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
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
