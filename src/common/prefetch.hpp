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
//
// One prefetch per slot is enough: signature slots (16/32 bytes) and the
// packed store's MT sidecar entries (16 bytes) sit in 64-byte-aligned
// blocks (huge::alloc), so none straddles two cache lines.

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

}  // namespace depprof
