#pragma once
// Construction-time storage dispatch.
//
// The StorageKind enum is resolved to a concrete AccessStore type exactly
// once, when a profiler is built.  Everything downstream of this file is a
// fully monomorphized DetectorCore<Store> instantiation: the per-access
// detect loop never branches (or virtually dispatches) on the backend.

#include "core/profiler.hpp"
#include "sig/access_store.hpp"
#include "sig/hash_table_recorder.hpp"
#include "sig/packed_shadow_store.hpp"
#include "sig/signature.hpp"
#include "sig/slots.hpp"

namespace depprof {

/// Resolves (storage kind, target kind) to a concrete store and calls `fn`
/// with a nullary factory that builds one empty store of it; the store type
/// is the factory's result type.  Each case is the one place its backend's
/// constructor arguments come from the config: signature sizing (slots,
/// hash) and hash-table bucket counts.  This switch is the single place the
/// StorageKind enum is branched on; both profiler factories go through it,
/// which is what makes every backend available to both the serial profiler
/// and the parallel pipeline.
template <typename Fn>
auto with_store(const ProfilerConfig& c, Fn&& fn) {
  auto dispatch = [&]<typename Slot>() {
    switch (c.storage) {
      case StorageKind::kHashTable:
        return fn([&] { return HashTableRecorder<Slot>(c.slots); });
      case StorageKind::kPacked:
        return fn([&] { return PackedShadowStore<Slot>(); });
      case StorageKind::kSignature:
      default:
        return fn([&] { return Signature<Slot>(c.slots, c.sig_hash); });
    }
  };
  return c.mt_targets ? dispatch.template operator()<MtSlot>()
                      : dispatch.template operator()<SeqSlot>();
}

}  // namespace depprof
