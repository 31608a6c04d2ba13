#pragma once
// Fixed-size signature (Sec. III-B, Algorithm 1's storage).
//
// A signature encodes an approximate set of memory addresses in a bounded
// array.  Unlike a Bloom filter it uses a *single* hash function so that
// elements can be removed again (variable-lifetime analysis), and each slot
// stores the source line of the recorded access rather than one bit.
//
// Hash collisions make distinct addresses share a slot; the profiler then
// builds dependences against the wrong recorded access, which is exactly the
// false-positive/false-negative trade quantified in Table I and modelled by
// formula 2 (see fpr_model.hpp).

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>

#include "common/hash.hpp"
#include "common/huge_alloc.hpp"
#include "common/mem_stats.hpp"
#include "common/prefetch.hpp"
#include "sig/access_store.hpp"
#include "sig/slots.hpp"

namespace depprof {

/// Slot-index function of the signature.
///
/// kModulo is the paper-faithful default: `slot = addr % m`, as in
/// transactional-memory bit-selection signatures.  Under modulo indexing a
/// collision partner is the *deterministic* address m slots away, so
/// colliding accesses usually belong to the same data structure and produce
/// identical dependence records — the reason measured FPR declines sharply
/// with m (Table I) instead of saturating.  kMix (a strong 64-bit mixer)
/// randomizes partners; the sighash ablation quantifies the difference.
enum class SigHash { kModulo, kMix };

namespace detail {

/// True when a value-initialized T is all-zero bytes (so zeroed memory
/// already holds T{}).  Not a constant expression, and so a compile error
/// in a static_assert, if T has padding bytes.
template <typename T>
constexpr bool value_init_is_zero_bytes() {
  for (const unsigned char b :
       std::bit_cast<std::array<unsigned char, sizeof(T)>>(T{}))
    if (b != 0) return false;
  return true;
}

}  // namespace detail

template <typename Slot>
class Signature {
  // The slot array is zeroed memory that is never constructed into: a slot
  // must be usable as raw bytes, and all-zero bytes must be the empty slot.
  static_assert(std::is_trivially_copyable_v<Slot> &&
                std::is_trivially_destructible_v<Slot>);
  static_assert(detail::value_init_is_zero_bytes<Slot>(),
                "Slot{} must be all-zero bytes");

 public:
  using slot_type = Slot;

  /// Creates a signature with `slot_count` slots (>= 1).  The configured
  /// bytes are charged against MemComponent::kSignatures for Figures 7/8
  /// accounting, though only the pages slots are written to become resident.
  explicit Signature(std::size_t slot_count, SigHash hash = SigHash::kModulo)
      : hash_(hash),
        size_(slot_count ? slot_count : 1),
        slots_(static_cast<Slot*>(huge::alloc_zeroed(bytes())),
               BlockFree{bytes()}),
        mask_((size_ & (size_ - 1)) == 0 ? size_ - 1 : 0),
        charge_(MemComponent::kSignatures,
                static_cast<std::int64_t>(bytes())) {}

  /// Membership check: returns the recorded slot for `addr`, or nullptr if
  /// the slot is empty.  Note that a non-empty slot may have been written by
  /// a *colliding* address — the approximation the paper accepts.
  const Slot* find(std::uint64_t addr) const {
    const Slot& s = slots_[index(addr)];
    return s.empty() ? nullptr : &s;
  }

  /// Insertion: records `value` as the latest access to `addr`, overwriting
  /// whatever the slot held.
  void insert(std::uint64_t addr, const Slot& value) {
    Slot& s = slots_[index(addr)];
    if (s.empty() && !value.empty()) ++occupied_;
    s = value;
  }

  /// Removal (variable-lifetime analysis, Sec. III-B): clears the slot for
  /// `addr`.  A colliding live address recorded in the same slot is cleared
  /// too — another accepted approximation.
  void remove(std::uint64_t addr) {
    Slot& s = slots_[index(addr)];
    if (!s.empty()) --occupied_;
    s = Slot{};
  }

  /// Removes and returns the slot state for `addr` (used when migrating an
  /// address to another worker during load balancing, Sec. IV-A).
  std::optional<Slot> extract(std::uint64_t addr) {
    Slot& s = slots_[index(addr)];
    if (s.empty()) return std::nullopt;
    Slot out = s;
    s = Slot{};
    --occupied_;
    return out;
  }

  /// Hints the slot for `addr` into cache (detect kernel, K events ahead).
  /// Write intent: nearly every probe is followed by an insert to the same
  /// slot, and a Slot regularly straddles two cache lines.
  void prefetch(std::uint64_t addr) const {
    prefetch_obj_rw(&slots_[index(addr)], sizeof(Slot));
  }

  /// Disambiguation (Sec. III-B signature operation): number of slot indices
  /// occupied in both signatures.  An address inserted into both is
  /// guaranteed to be counted.
  std::size_t intersect_count(const Signature& other) const {
    const std::size_t n = std::min(size_, other.size_);
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (!slots_[i].empty() && !other.slots_[i].empty()) ++count;
    return count;
  }

  /// Empties every slot (every sampling burst mark).  The slot pages go back
  /// to the kernel rather than being rewritten: the mark costs a syscall,
  /// and each page the next burst writes is faulted in and zeroed again.
  /// A burst that writes into every 2 MiB page pays more than a memset
  /// would; sampled runs of the workload suite touch few pages per burst
  /// (DESIGN.md, "Signature memory lifecycle").
  void clear() {
    huge::zero(slots_.get(), bytes());
    occupied_ = 0;
  }

  std::size_t slot_count() const { return size_; }
  std::size_t occupied() const { return occupied_; }
  double load_factor() const {
    return static_cast<double>(occupied_) / static_cast<double>(size_);
  }
  std::size_t bytes() const { return size_ * sizeof(Slot); }

 private:
  std::size_t index(std::uint64_t addr) const {
    const std::uint64_t h = hash_ == SigHash::kModulo ? addr : hash_address(addr);
    // h & mask_ == h % size for power-of-two sizes; the hot path calls this
    // up to five times per event (find/find/insert plus two prefetches in
    // the detect kernel), so sparing the 64-bit division matters.
    if (mask_ != 0) return static_cast<std::size_t>(h & mask_);
    return static_cast<std::size_t>(h % size_);
  }

  struct BlockFree {
    std::size_t bytes;
    void operator()(Slot* p) const { huge::free(p, bytes); }
  };

  SigHash hash_;
  std::size_t size_;
  /// Slot array on transparent huge pages: at profiler sizes (hundreds of
  /// MB) hashed probing misses the dTLB on every access with 4 KiB pages,
  /// and the page-walk stalls would defeat the detect kernel's prefetches.
  /// The block arrives zero-filled, which is every slot empty.
  std::unique_ptr<Slot[], BlockFree> slots_;
  std::uint64_t mask_;  ///< size - 1 when size is a power of two, else 0
  std::size_t occupied_ = 0;
  ScopedMemCharge charge_;
};

static_assert(AccessStore<Signature<SeqSlot>>);
static_assert(AccessStore<Signature<MtSlot>>);

}  // namespace depprof
