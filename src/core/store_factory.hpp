#pragma once
// Construction-time storage dispatch.
//
// The StorageKind enum is resolved to a concrete AccessStore type exactly
// once, when a profiler is built.  Everything downstream of this file is a
// fully monomorphized DetectorCore<Store> instantiation: the per-access
// detect loop never branches (or virtually dispatches) on the backend.

#include <type_traits>

#include "core/profiler.hpp"
#include "sig/access_store.hpp"
#include "sig/hash_table_recorder.hpp"
#include "sig/packed_shadow_store.hpp"
#include "sig/shadow_memory.hpp"
#include "sig/signature.hpp"
#include "sig/slots.hpp"

namespace depprof {

namespace detail {
template <typename T>
struct is_signature : std::false_type {};
template <typename S>
struct is_signature<Signature<S>> : std::true_type {};
template <typename T>
struct is_hash_table : std::false_type {};
template <typename S>
struct is_hash_table<HashTableRecorder<S>> : std::true_type {};
template <typename T>
struct is_packed : std::false_type {};
template <typename S>
struct is_packed<PackedShadowStore<S>> : std::true_type {};
}  // namespace detail

/// Builds one empty store of the given backend from the configuration.
/// Signature sizing (slots, hash) and hash-table bucket counts come from the
/// config, and a sampled run arms the signature's and the packed store's
/// clear logs.
template <AccessStore Store>
Store make_store(const ProfilerConfig& c) {
  if constexpr (detail::is_signature<Store>::value)
    return Store(c.slots, c.sig_hash, c.sampled());
  else if constexpr (detail::is_hash_table<Store>::value)
    return Store(c.slots);
  else if constexpr (detail::is_packed<Store>::value)
    return Store(c.sampled());
  else
    return Store{};
}

/// Resolves (storage kind, target kind) to a concrete store type and calls
/// `fn` with a std::type_identity tag for it.  This switch is the single
/// place the StorageKind enum is branched on; both profiler factories go
/// through it, which is what makes every backend available to both the
/// serial profiler and the parallel pipeline.
template <typename Fn>
auto with_store(const ProfilerConfig& c, Fn&& fn) {
  auto dispatch = [&]<typename Slot>() {
    switch (c.storage) {
      case StorageKind::kShadow:
        return fn(std::type_identity<ShadowMemory<Slot>>{});
      case StorageKind::kHashTable:
        return fn(std::type_identity<HashTableRecorder<Slot>>{});
      case StorageKind::kPacked:
        return fn(std::type_identity<PackedShadowStore<Slot>>{});
      case StorageKind::kSignature:
      default:
        return fn(std::type_identity<Signature<Slot>>{});
    }
  };
  return c.mt_targets ? dispatch.template operator()<MtSlot>()
                      : dispatch.template operator()<SeqSlot>();
}

}  // namespace depprof
