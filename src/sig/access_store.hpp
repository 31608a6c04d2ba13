#pragma once
// The compile-time contract every access-store backend satisfies.
//
// Algorithm 1 is generic over *how* the last read/write per address is
// recorded: the paper's fixed-size Signature, the packed paged shadow store
// (the exact per-address table of Sec. VI-A) and the chained
// HashTableRecorder baseline (Sec. III-B).  DetectorCore<Store> is
// instantiated once per backend against this concept, so the per-access
// detect loop contains no runtime dispatch on the storage kind — backend
// choice is resolved exactly once, when the profiler is constructed.
//
// A store is a plain map from word unit to slot.  Required operations:
//   slot_type            — recorded slot layout (SeqSlot or MtSlot)
//   find(addr)           — membership probe; recorded slot or nullptr
//   insert(addr, slot)   — record the latest access; true when it filled an
//                          empty entry (slot, chain node or word)
//   remove(addr)         — variable-lifetime removal (Sec. III-B)
//   prefetch(addr)       — hint the slot for `addr` into cache (detect kernel);
//                          advisory only, never observable in results
//   clear()              — drop all recorded state (a full reset)
//   occupied()           — live entries (statistics)
//   bytes()              — memory footprint (Figures 7/8 accounting)
//
// When to call them is the detector's business: migration is find then
// remove, and a sampling burst mark removes the units the detector logged
// (core/detector.hpp).
//
// Each backend header ends with static_asserts of this concept for both
// slot layouts, so a drifting backend fails at its own definition site.

#include <concepts>
#include <cstdint>

namespace depprof {

template <typename S>
concept AccessStore = requires(S store, const S const_store, std::uint64_t addr,
                               const typename S::slot_type& slot) {
  typename S::slot_type;
  { const_store.find(addr) } -> std::same_as<const typename S::slot_type*>;
  { store.insert(addr, slot) } -> std::same_as<bool>;
  { store.remove(addr) } -> std::same_as<void>;
  { const_store.prefetch(addr) } -> std::same_as<void>;
  { store.clear() } -> std::same_as<void>;
  { const_store.occupied() } -> std::convertible_to<std::size_t>;
  { const_store.bytes() } -> std::convertible_to<std::size_t>;
};

}  // namespace depprof
