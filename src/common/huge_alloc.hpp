#pragma once
// Transparent-huge-page allocator for large flat arrays.
//
// A profiler-sized signature (hundreds of MB of slots) accessed in hashed
// order misses the dTLB on nearly every probe when backed by 4 KiB pages,
// and the resulting page walks serialize on the handful of hardware walkers
// — a stall that software prefetching cannot hide (prefetches are dropped
// on a TLB miss).  Backing the slot array with 2 MiB pages keeps the whole
// array TLB-resident, which is what makes the detect kernel's slot
// prefetches effective (see DESIGN.md, "Batched detect kernel").
//
// Allocations below kHugeThreshold, or on platforms without mmap/madvise,
// fall back to operator new — behaviour is identical either way.  An mmap
// that *fails* at runtime (strict vm.overcommit, locked-down CI container,
// exhausted map count) also degrades to operator new instead of aborting
// the profile: the fall-back is counted (fallback_count feeds the
// hugepage_fallbacks obs counter) and the pointer is remembered so free()
// releases it through the matching deallocator.
//
// Zeroing contract: huge-eligible allocations (bytes >= kHugeThreshold) are
// returned zero-filled on every path — anonymous mmap pages are zeroed by
// the kernel on first touch, and the fall-back memsets to match.
// Sub-threshold operator new allocations are NOT zeroed; callers that need
// zeroed memory at every size use alloc_zeroed(), and return a block to all
// zeros with zero(), which hands mmap-backed pages back to the kernel
// instead of rewriting them.  Two users rely on the contract: the packed
// store's directories and leaves (a zero word is an absent entry) and the
// fixed-size signature's slot array (an all-zero Slot is an empty slot),
// which is never constructed — each of its pages is zeroed once, by the
// kernel, on the thread that first writes it.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <new>
#include <unordered_set>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace depprof {

namespace huge {

constexpr std::size_t kHugeThreshold = 2u << 20;  // one huge page

namespace detail {

inline std::atomic<std::uint64_t>& fallback_counter() {
  static std::atomic<std::uint64_t> count{0};
  return count;
}

inline std::atomic<bool>& force_fallback_flag() {
  static std::atomic<bool> force{false};
  return force;
}

/// Huge-eligible blocks that came from operator new instead of mmap, so
/// free() can pick the matching deallocator.  Mutex-guarded: entries only
/// exist after an mmap failure (or under the test hook), never on the
/// steady-state path.
struct FallbackRegistry {
  std::mutex mu;
  std::unordered_set<void*> blocks;

  static FallbackRegistry& instance() {
    static FallbackRegistry reg;
    return reg;
  }

  void insert(void* p) {
    std::lock_guard lock(mu);
    blocks.insert(p);
  }
  bool erase(void* p) {
    std::lock_guard lock(mu);
    return blocks.erase(p) != 0;
  }
  bool contains(void* p) {
    std::lock_guard lock(mu);
    return blocks.count(p) != 0;
  }
};

inline void* alloc_fallback(std::size_t bytes) {
  void* p = ::operator new(bytes);
  std::memset(p, 0, bytes);  // match the kernel's zero-fill of mmap pages
  FallbackRegistry::instance().insert(p);
  fallback_counter().fetch_add(1, std::memory_order_relaxed);
  return p;
}

}  // namespace detail

/// Huge-eligible allocations that degraded to operator new since process
/// start (monotone; drivers publish the per-run delta as the
/// hugepage_fallbacks obs counter).
inline std::uint64_t fallback_count() {
  return detail::fallback_counter().load(std::memory_order_relaxed);
}

/// Test hook: pretend mmap/MADV_HUGEPAGE is unavailable so the fall-back
/// path can be exercised deterministically on hosts where mmap works.
inline void set_force_fallback(bool on) {
  detail::force_fallback_flag().store(on, std::memory_order_relaxed);
}

#if defined(__linux__)
inline void* alloc(std::size_t bytes) {
  if (bytes < kHugeThreshold) return ::operator new(bytes);
  if (detail::force_fallback_flag().load(std::memory_order_relaxed))
    return detail::alloc_fallback(bytes);
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return detail::alloc_fallback(bytes);
#if defined(MADV_HUGEPAGE)
  (void)::madvise(p, bytes, MADV_HUGEPAGE);  // advisory; 4K pages still work
#endif
  return p;
}

inline void free(void* p, std::size_t bytes) {
  if (bytes < kHugeThreshold) {
    ::operator delete(p);
    return;
  }
  if (detail::FallbackRegistry::instance().erase(p)) {
    ::operator delete(p);
    return;
  }
  ::munmap(p, bytes);
}
#else
inline void* alloc(std::size_t bytes) {
  if (bytes < kHugeThreshold) return ::operator new(bytes);
  return detail::alloc_fallback(bytes);
}
inline void free(void* p, std::size_t bytes) {
  if (bytes >= kHugeThreshold)
    (void)detail::FallbackRegistry::instance().erase(p);
  ::operator delete(p);
}
#endif

/// alloc() with a zero-fill guarantee at every size — page-table directories
/// (PackedShadowStore) and signature slot arrays are read before ever being
/// written.
inline void* alloc_zeroed(std::size_t bytes) {
  void* p = alloc(bytes);
  if (bytes < kHugeThreshold) std::memset(p, 0, bytes);
  return p;
}

/// Returns a block from alloc()/alloc_zeroed() to all-zero bytes.  An
/// mmap-backed block drops its pages (MADV_DONTNEED), so the cost is one
/// syscall plus a kernel zero-fill of each page written again.
/// Sub-threshold and fall-back blocks are heap memory whose first and last
/// pages may hold other objects, so they are memset.
inline void zero(void* p, std::size_t bytes) {
#if defined(__linux__)
  if (bytes >= kHugeThreshold &&
      !detail::FallbackRegistry::instance().contains(p) &&
      ::madvise(p, bytes, MADV_DONTNEED) == 0)
    return;
#endif
  std::memset(p, 0, bytes);
}

}  // namespace huge

}  // namespace depprof
