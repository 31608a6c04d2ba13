#pragma once
// Software prefetch wrappers for the detect kernel.
//
// The detect hot loop is a chain of dependent loads: slot index -> slot line
// -> compare/update.  Issuing the slot lines K events ahead of the compare
// overlaps the misses (memory-level parallelism), which is where the batched
// kernel's throughput win comes from (see DESIGN.md, "Batched detect
// kernel").
//
// Write intent matters: almost every probed slot is immediately re-written
// (Algorithm 1 inserts on every non-free access), so fetching the line in
// exclusive state spares the insert a second ownership round-trip — the
// store would otherwise sit in the store buffer waiting for the RFO.

namespace depprof {

/// Read-intent prefetch (lines that are only compared, e.g. chained nodes).
inline void prefetch_ro(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

/// Write-intent prefetch (slot lines that the kernel will overwrite).
inline void prefetch_rw(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/1, /*locality=*/3);
#else
  (void)p;
#endif
}

/// Prefetches every cache line of the object at [p, p + bytes) with write
/// intent.  Signature slots are 40/56 bytes, so a slot regularly straddles
/// two lines; the second line's miss is otherwise exposed on the insert's
/// store, which find() never touched.
inline void prefetch_obj_rw(const void* p, unsigned long bytes) {
  const char* c = static_cast<const char*>(p);
  prefetch_rw(c);
  if (((reinterpret_cast<unsigned long>(c) + bytes - 1) & ~63ul) !=
      (reinterpret_cast<unsigned long>(c) & ~63ul))
    prefetch_rw(c + bytes - 1);
}

}  // namespace depprof
