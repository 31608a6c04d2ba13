#pragma once
// Packed paged shadow memory (SLAMP/PROMPT-style exact store).
//
// The exact baselines pay for precision in cache traffic: PerfectSignature
// and HashTableRecorder keep a full 40/56-byte slot per live address behind
// a hash probe, so every access touches a bucket walk plus one or two slot
// lines scattered across a node heap.  SLAMP's shadow memory shows the
// production alternative: a lazily-allocated page table whose leaf pages
// hold one packed machine word per tracked word of target memory, giving
// O(1) exact last-access lookups with memory proportional to *touched*
// pages and a single 8-byte line hit on the hot path.
//
// Packing format (one 64-bit word per tracked word-unit):
//
//        63            32 31             0
//       +----------------+----------------+
//       |   loc (u32)    |  nest token    |      word == 0  <=>  absent
//       +----------------+----------------+
//
//   loc   — packed SourceLocation of the last access (slots.hpp); loc != 0
//           for every recorded access, so the zero word doubles as the
//           empty sentinel and fresh mmap pages are valid empty pages.
//   token — interned (ctx, iters[kNestIters]) nest snapshot.  SLAMP packs
//           {instr:20, timestamp:44}; our "timestamp" is the root-anchored
//           iteration window that nest attribution needs, which repeats
//           across the few hundred accesses of a loop iteration — so it
//           interns into a small refcounted table instead of truncating.
//   tag   — NOT stored: the store is exact, so the recorded address equals
//           the probed address and addr_tag(addr) is recomputed on find().
//
// MT targets add a 16-byte sidecar entry per word (tid, flags, ts) on the
// same leaf page, after the word array.  The race check compares full
// 64-bit timestamps, so ts cannot be bit-packed into the word without
// breaking byte-identity with the exact oracle — readers and the MT/lock
// flag bits live in the sidecar instead (see DESIGN.md, "Packed paged
// shadow memory").
//
// The page table is a 4-level radix over the full 64-bit canonical
// word-unit space (offset 18 | L3 15 | L2 16 | L1 15 bits).  Leaf pages are
// 2 MiB word arrays allocated with huge::alloc — exactly one transparent
// huge page, so the detect kernel's 8-ahead prefetches hit TLB-resident
// lines — and every level is a power-of-two array indexed by masked address
// bits (no hashing anywhere on the walk).  Pages and directories are
// charged to MemComponent::kStore and released in full by clear()/teardown.
//
// find() decodes the packed word into a per-store scratch slot and returns
// its address: the pointer is valid until the next call on the same store.
// That matches how DetectorCore consumes stores — each find() result is
// fully folded into a dependence record before the next probe of the same
// store object (read and write stores are distinct objects) — and is
// asserted by the equivalence matrix, which pins this backend byte-for-byte
// to PerfectSignature across every driver.

#include <cstdint>
#include <cstring>
#include <new>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/huge_alloc.hpp"
#include "common/mem_stats.hpp"
#include "common/prefetch.hpp"
#include "sig/access_store.hpp"
#include "sig/slots.hpp"

namespace depprof {

/// Refcounted interner of (ctx, iters) nest snapshots — the 31-bit-safe
/// "timestamp" half of the packed word.  Loop streams reuse one snapshot
/// across every access of an iteration, so the table stays at the number of
/// *live distinct* snapshots (bounded by resident words, in practice a
/// handful), not the run length: tokens of overwritten or removed words are
/// released and their ids recycled through a free list.
class NestSnapshotIntern {
 public:
  struct Key {
    std::uint32_t ctx = 0;
    std::uint32_t iters[kNestIters] = {};
    friend bool operator==(const Key&, const Key&) = default;
  };

  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = k.ctx;
      for (const std::uint32_t it : k.iters) h = mix64(h ^ it);
      return static_cast<std::size_t>(h);
    }
  };

  /// Interns `k` (or bumps its refcount).  The one-entry cache makes the
  /// common repeat — same snapshot as the previous acquire — eight u32
  /// compares, no hash probe.
  std::uint32_t acquire(const Key& k) {
    if (last_id_ != kNoId && keys_[last_id_] == k) {
      ++refs_[last_id_];
      return last_id_;
    }
    auto [it, fresh] = ids_.try_emplace(k, 0);
    if (fresh) {
      std::uint32_t id;
      if (!free_.empty()) {
        id = free_.back();
        free_.pop_back();
        keys_[id] = k;
      } else {
        if (keys_.size() >= kMaxTokens) {  // wrap guard: never alias tokens
          ids_.erase(it);
          throw std::bad_alloc();
        }
        id = static_cast<std::uint32_t>(keys_.size());
        keys_.push_back(k);
        refs_.push_back(0);
      }
      it->second = id;
    }
    const std::uint32_t id = it->second;
    ++refs_[id];
    last_id_ = id;
    return id;
  }

  /// Drops one reference; a snapshot nobody records anymore leaves the
  /// table and its id returns to the free list.
  void release(std::uint32_t id) {
    if (--refs_[id] == 0) {
      ids_.erase(keys_[id]);
      free_.push_back(id);
      if (last_id_ == id) last_id_ = kNoId;
    }
  }

  const Key& key(std::uint32_t id) const { return keys_[id]; }

  void clear() {
    ids_.clear();
    keys_.clear();
    refs_.clear();
    free_.clear();
    last_id_ = kNoId;
  }

  /// Live distinct snapshots (tests: boundedness under churn).
  std::size_t live() const { return ids_.size(); }
  /// Ids ever minted — stays put while the free list recycles (wrap guard).
  std::size_t high_water() const { return keys_.size(); }

  std::size_t bytes() const {
    return keys_.capacity() * sizeof(Key) +
           (refs_.capacity() + free_.capacity()) * sizeof(std::uint32_t) +
           ids_.size() * (sizeof(Key) + 2 * sizeof(std::uint64_t));
  }

 private:
  static constexpr std::uint32_t kNoId = ~std::uint32_t{0};
  static constexpr std::size_t kMaxTokens = std::size_t{1} << 31;

  std::unordered_map<Key, std::uint32_t, KeyHash> ids_;
  std::vector<Key> keys_;            ///< id -> snapshot (decode side)
  std::vector<std::uint32_t> refs_;  ///< id -> live words recording it
  std::vector<std::uint32_t> free_;  ///< recycled ids
  std::uint32_t last_id_ = kNoId;
};

template <typename Slot>
class PackedShadowStore {
 public:
  using slot_type = Slot;
  static constexpr bool kMt = std::is_same_v<Slot, MtSlot>;

  // Radix split of the 64-bit canonical word-unit address, low to high.
  // A leaf page covers 2^18 words: exactly one 2 MiB transparent huge page
  // of packed words (huge::kHugeThreshold), i.e. 1 MiB of target memory.
  static constexpr unsigned kPageBits = 18;
  static constexpr unsigned kL3Bits = 15;
  static constexpr unsigned kL2Bits = 16;
  static constexpr unsigned kL1Bits = 15;
  static_assert(kPageBits + kL3Bits + kL2Bits + kL1Bits == 64);

  static constexpr std::size_t kPageWords = std::size_t{1} << kPageBits;
  static constexpr std::uint64_t kPageMask = kPageWords - 1;
  static constexpr std::size_t kL3Size = std::size_t{1} << kL3Bits;
  static constexpr std::size_t kL2Size = std::size_t{1} << kL2Bits;
  static constexpr std::size_t kL1Size = std::size_t{1} << kL1Bits;

  // --- branchless pack/unpack helpers (unit-tested at field boundaries) ---
  static constexpr std::uint64_t pack_word(std::uint32_t loc,
                                           std::uint32_t token) {
    return (std::uint64_t{loc} << 32) | token;
  }
  static constexpr std::uint32_t word_loc(std::uint64_t w) {
    return static_cast<std::uint32_t>(w >> 32);
  }
  static constexpr std::uint32_t word_token(std::uint64_t w) {
    return static_cast<std::uint32_t>(w);
  }

  PackedShadowStore() {
    root_ = static_cast<L2**>(alloc_block(kRootBytes));
  }

  ~PackedShadowStore() { destroy(); }

  PackedShadowStore(const PackedShadowStore&) = delete;
  PackedShadowStore& operator=(const PackedShadowStore&) = delete;

  PackedShadowStore(PackedShadowStore&& o) noexcept
      : intern_(std::move(o.intern_)),
        root_(std::exchange(o.root_, nullptr)),
        table_bytes_(std::exchange(o.table_bytes_, 0)),
        pages_(std::exchange(o.pages_, 0)),
        resident_(std::exchange(o.resident_, 0)) {}

  PackedShadowStore& operator=(PackedShadowStore&& o) noexcept {
    if (this != &o) {
      destroy();
      intern_ = std::move(o.intern_);
      root_ = std::exchange(o.root_, nullptr);
      table_bytes_ = std::exchange(o.table_bytes_, 0);
      pages_ = std::exchange(o.pages_, 0);
      resident_ = std::exchange(o.resident_, 0);
    }
    return *this;
  }

  const Slot* find(std::uint64_t addr) const {
    const Page* page = page_at(addr);
    if (page == nullptr) return nullptr;
    const std::size_t off = offset(addr);
    const std::uint64_t w = page->words[off];
    if (w == 0) return nullptr;
    scratch_.loc = word_loc(w);
    scratch_.tag = addr_tag(addr);  // exact store: recorded addr == probed
    const NestSnapshotIntern::Key& k = intern_.key(word_token(w));
    scratch_.ctx = k.ctx;
    for (std::size_t i = 0; i < kNestIters; ++i) scratch_.iters[i] = k.iters[i];
    if constexpr (kMt) {
      const Sidecar& side = page->side[off];
      scratch_.tid = side.tid;
      scratch_.flags = side.flags;
      scratch_.ts = side.ts;
    }
    return &scratch_;
  }

  void insert(std::uint64_t addr, const Slot& value) {
    if (value.empty()) {  // shadow semantics: an empty slot reads as absent
      remove(addr);
      return;
    }
    Page& page = touch_page(addr);
    const std::size_t off = offset(addr);
    std::uint64_t& w = page.words[off];
    NestSnapshotIntern::Key k;
    k.ctx = value.ctx;
    for (std::size_t i = 0; i < kNestIters; ++i) k.iters[i] = value.iters[i];
    // Acquire before release so an overwrite with the same snapshot never
    // bounces its refcount through zero (and out of the intern table).
    const std::uint32_t token = intern_.acquire(k);
    if (w != 0)
      intern_.release(word_token(w));
    else
      ++resident_;
    w = pack_word(value.loc, token);
    if constexpr (kMt) page.side[off] = Sidecar{value.tid, value.flags, value.ts};
  }

  void remove(std::uint64_t addr) {
    Page* page = page_at(addr);
    if (page == nullptr) return;
    std::uint64_t& w = page->words[offset(addr)];
    if (w == 0) return;
    intern_.release(word_token(w));
    w = 0;
    --resident_;
  }

  std::optional<Slot> extract(std::uint64_t addr) {
    const Slot* s = find(addr);
    if (s == nullptr) return std::nullopt;
    Slot out = *s;
    remove(addr);
    return out;
  }

  /// Advisory cache hint (detect kernel): one walk now, the packed word
  /// (and MT sidecar) line is in flight by the time the compare reaches it.
  void prefetch(std::uint64_t addr) const {
    const Page* page = page_at(addr);
    if (page == nullptr) return;
    const std::size_t off = offset(addr);
    prefetch_rw(&page->words[off]);  // 8-byte word: always one line
    if constexpr (kMt) prefetch_obj_rw(&page->side[off], sizeof(Sidecar));
  }

  /// Releases every page and directory (bytes return to MemStats::kStore);
  /// the root directory survives, zeroed, for reuse — burst-mark resets
  /// clear the store and keep profiling.
  void clear() {
    if (root_ != nullptr) {
      for (std::size_t a = 0; a < kL1Size; ++a) {
        L2* l2 = root_[a];
        if (l2 == nullptr) continue;
        free_levels(l2);
        root_[a] = nullptr;
      }
    }
    intern_.clear();
    pages_ = 0;
    resident_ = 0;
  }

  std::size_t page_count() const { return pages_; }
  std::size_t occupied() const { return resident_; }
  std::size_t bytes() const { return table_bytes_ + intern_.bytes(); }

  /// Live distinct nest snapshots (tests: interner boundedness).
  std::size_t interned_snapshots() const { return intern_.live(); }
  /// Snapshot ids ever minted (tests: free-list recycling / wrap guard).
  std::size_t snapshot_high_water() const { return intern_.high_water(); }

 private:
  struct Sidecar {
    std::uint32_t tid;
    std::uint32_t flags;
    std::uint64_t ts;
  };
  struct PageSeq {
    std::uint64_t words[kPageWords];
  };
  struct PageMt {
    std::uint64_t words[kPageWords];
    Sidecar side[kPageWords];
  };
  using Page = std::conditional_t<kMt, PageMt, PageSeq>;
  struct L3 {
    Page* pages[kL3Size];
  };
  struct L2 {
    L3* dirs[kL2Size];
  };
  static constexpr std::size_t kRootBytes = kL1Size * sizeof(L2*);
  static_assert(sizeof(PageSeq) == huge::kHugeThreshold,
                "a leaf page is exactly one transparent huge page of words");

  static std::size_t offset(std::uint64_t addr) {
    return static_cast<std::size_t>(addr & kPageMask);
  }
  static std::size_t i3(std::uint64_t addr) {
    return static_cast<std::size_t>((addr >> kPageBits) & (kL3Size - 1));
  }
  static std::size_t i2(std::uint64_t addr) {
    return static_cast<std::size_t>((addr >> (kPageBits + kL3Bits)) &
                                    (kL2Size - 1));
  }
  static std::size_t i1(std::uint64_t addr) {
    return static_cast<std::size_t>(addr >> (kPageBits + kL3Bits + kL2Bits));
  }

  void* alloc_block(std::size_t bytes) {
    void* p = huge::alloc_zeroed(bytes);
    MemStats::instance().add(MemComponent::kStore,
                             static_cast<std::int64_t>(bytes));
    table_bytes_ += bytes;
    return p;
  }

  void free_block(void* p, std::size_t bytes) {
    huge::free(p, bytes);
    MemStats::instance().add(MemComponent::kStore,
                             -static_cast<std::int64_t>(bytes));
    table_bytes_ -= bytes;
  }

  const Page* page_at(std::uint64_t addr) const {
    const L2* l2 = root_[i1(addr)];
    if (l2 == nullptr) return nullptr;
    const L3* l3 = l2->dirs[i2(addr)];
    if (l3 == nullptr) return nullptr;
    return l3->pages[i3(addr)];
  }
  Page* page_at(std::uint64_t addr) {
    return const_cast<Page*>(std::as_const(*this).page_at(addr));
  }

  Page& touch_page(std::uint64_t addr) {
    L2*& l2 = root_[i1(addr)];
    if (l2 == nullptr) l2 = static_cast<L2*>(alloc_block(sizeof(L2)));
    L3*& l3 = l2->dirs[i2(addr)];
    if (l3 == nullptr) l3 = static_cast<L3*>(alloc_block(sizeof(L3)));
    Page*& page = l3->pages[i3(addr)];
    if (page == nullptr) {
      page = static_cast<Page*>(alloc_block(sizeof(Page)));
      ++pages_;
    }
    return *page;
  }

  void free_levels(L2* l2) {
    for (std::size_t b = 0; b < kL2Size; ++b) {
      L3* l3 = l2->dirs[b];
      if (l3 == nullptr) continue;
      for (std::size_t c = 0; c < kL3Size; ++c)
        if (Page* page = l3->pages[c]) free_block(page, sizeof(Page));
      free_block(l3, sizeof(L3));
    }
    free_block(l2, sizeof(L2));
  }

  void destroy() {
    if (root_ == nullptr) return;
    clear();
    free_block(root_, kRootBytes);
    root_ = nullptr;
  }

  NestSnapshotIntern intern_;
  L2** root_ = nullptr;
  std::size_t table_bytes_ = 0;
  std::size_t pages_ = 0;
  std::size_t resident_ = 0;
  mutable Slot scratch_{};  ///< find() decode buffer (see header comment)
};

static_assert(AccessStore<PackedShadowStore<SeqSlot>>);
static_assert(AccessStore<PackedShadowStore<MtSlot>>);

}  // namespace depprof
