#pragma once
// The compile-time contract every access-store backend satisfies.
//
// Algorithm 1 is generic over *how* the last read/write per address is
// recorded: the paper's fixed-size Signature, the collision-free
// PerfectSignature (Sec. VI-A), the multi-level ShadowMemory baseline and
// the chained HashTableRecorder baseline (Sec. III-B).  DetectorCore<Store>
// is instantiated once per backend against this concept, so the per-access
// detect loop contains no runtime dispatch on the storage kind — backend
// choice is resolved exactly once, when the profiler is constructed.
//
// Required operations (the probe/insert/remove/footprint surface):
//   slot_type            — recorded slot layout (SeqSlot or MtSlot)
//   find(addr)           — membership probe; recorded slot or nullptr
//   insert(addr, slot)   — record the latest access
//   remove(addr)         — variable-lifetime removal (Sec. III-B)
//   extract(addr)        — remove-and-return for worker migration (Sec. IV-A)
//   prefetch(addr)       — hint the slot for `addr` into cache (detect kernel);
//                          advisory only, never observable in results
//   clear()              — drop all recorded state
//   occupied()           — live entries (statistics)
//   bytes()              — memory footprint (Figures 7/8 accounting)
//
// Each backend header ends with static_asserts of this concept for both
// slot layouts, so a drifting backend fails at its own definition site.

#include <concepts>
#include <cstdint>
#include <optional>

namespace depprof {

template <typename S>
concept AccessStore = requires(S store, const S const_store, std::uint64_t addr,
                               const typename S::slot_type& slot) {
  typename S::slot_type;
  { const_store.find(addr) } -> std::same_as<const typename S::slot_type*>;
  { store.insert(addr, slot) } -> std::same_as<void>;
  { store.remove(addr) } -> std::same_as<void>;
  { store.extract(addr) } -> std::same_as<std::optional<typename S::slot_type>>;
  { const_store.prefetch(addr) } -> std::same_as<void>;
  { store.clear() } -> std::same_as<void>;
  { const_store.occupied() } -> std::convertible_to<std::size_t>;
  { const_store.bytes() } -> std::convertible_to<std::size_t>;
};

}  // namespace depprof
