#pragma once
// Packed paged shadow memory (SLAMP/PROMPT-style exact store).
//
// The chained baseline pays for precision in cache traffic:
// HashTableRecorder keeps a full 16/32-byte slot per live address behind a
// hash probe, so every access touches a bucket walk plus one or two slot
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
//   token — index of a (ctx, iter) nest snapshot in the store's
//           refcounted snapshot pool.  SLAMP packs {instr:20,
//           timestamp:44} and PROMPT packs its timestamp into the word with
//           no side table; our "timestamp" is the 64-bit context and own
//           iteration that nest attribution needs (the enclosing counters
//           live in the nest forest), which cannot fit beside the location,
//           but repeats across the accesses of a loop iteration — so words
//           share one pooled copy by token instead of truncating it.
//   tag   — NOT stored: the store is exact, so the recorded address equals
//           the probed address and addr_tag(addr) is recomputed on find().
//
// MT targets add a 16-byte sidecar entry per word (tid, flags, ts) on the
// same leaf page, after the word array; 16-byte entries of a 64-byte-aligned
// page never straddle a cache line.  The race check compares full
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
// bits (no hashing anywhere on the walk).  Directories come from the same
// allocator without huge-page advice: the kernel zeroes each 4 KiB page of
// one on first touch, so a new address region costs the few directory
// pages it writes, not a memset of 768 KiB.  Pages and directories are
// charged to MemComponent::kStore and released in full at teardown.
//
// remove() zeroes a word and keeps its page, so a sampling burst mark,
// which removes the words the burst wrote (core/detector.hpp), keeps pages
// and directories mapped and charged.  clear() releases every page.
//
// find() decodes the packed word into a per-store scratch slot and returns
// its address: the pointer is valid until the next call on the same store.
// That matches how DetectorCore consumes stores — each find() result is
// fully folded into a dependence record before the next probe of the same
// store object (read and write stores are distinct objects) — and is
// asserted by the equivalence matrix, which pins this backend byte-for-byte
// to the other exact stores across every driver.

#include <array>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/huge_alloc.hpp"
#include "common/mem_stats.hpp"
#include "common/prefetch.hpp"
#include "sig/access_store.hpp"
#include "sig/slots.hpp"

namespace depprof {

/// Refcounted pool of (ctx, iter) nest snapshots — the decode side of the
/// packed word's token.  A word's token indexes `keys_`; `refs_` counts the
/// resident words that hold it, and a token whose count reaches zero goes
/// to the free list for reuse.  So every live token is held by at least one
/// word: live tokens <= resident words, whatever the stream.
///
/// There is no hash table.  A loop stream writes one snapshot per iteration
/// and repeats it across that iteration's accesses, so `acquire` only has
/// to recognise the snapshot it handed out last for the same context:
/// `hints_[ctx & 15]` holds the token last minted for that context slot,
/// and a hit is a live check and one 8-byte compare.  A miss mints a fresh
/// token even when an equal snapshot is live elsewhere, so equal snapshots
/// may hold distinct tokens; the bound above still holds, and on the 20
/// suite programs live tokens equal distinct live snapshots.  Those counts
/// are large — per store (read / write, scale 4) rgbyuv 196,608 / 65,537,
/// is 80,511 / 80,511, cg 18,001 / 12,003 — and a hash map would pay a
/// heap node and a bucket divide for each new iteration and an erase and a
/// free when one dies.
class NestSnapshotPool {
 public:
  struct Key {
    std::uint32_t ctx = 0;
    std::uint32_t iter = 0;
    friend bool operator==(const Key&, const Key&) = default;
  };

  /// Returns a token for `k` with one more reference.  The hint is reused
  /// only while it is live (a freed id may sit on the free list, about to
  /// be minted for another snapshot) and still decodes to `k`.
  std::uint32_t acquire(const Key& k) {
    std::uint32_t& hint = hints_[k.ctx & (kHints - 1)];
    if (hint < refs_.size() && refs_[hint] != 0 && keys_[hint] == k) {
      ++refs_[hint];
      return hint;
    }
    if (!free_.empty()) {
      hint = free_.back();
      free_.pop_back();
      keys_[hint] = k;
    } else {
      if (keys_.size() >= kMaxTokens)  // wrap guard: never alias tokens
        throw std::bad_alloc();
      hint = static_cast<std::uint32_t>(keys_.size());
      keys_.push_back(k);
      refs_.push_back(0);
    }
    refs_[hint] = 1;
    return hint;
  }

  /// Drops one reference; a token no word holds returns to the free list.
  void release(std::uint32_t id) {
    if (--refs_[id] == 0) free_.push_back(id);
  }

  const Key& key(std::uint32_t id) const { return keys_[id]; }

  void clear() {
    keys_.clear();
    refs_.clear();
    free_.clear();
    hints_ = {};
  }

  /// Live tokens (tests: bounded by resident words).
  std::size_t live() const { return keys_.size() - free_.size(); }
  /// Ids ever minted — stays put while the free list recycles (wrap guard).
  std::size_t high_water() const { return keys_.size(); }

  std::size_t bytes() const {
    return keys_.capacity() * sizeof(Key) +
           (refs_.capacity() + free_.capacity()) * sizeof(std::uint32_t);
  }

 private:
  static constexpr std::size_t kHints = 16;
  static constexpr std::size_t kMaxTokens = std::size_t{1} << 31;

  std::vector<Key> keys_;            ///< id -> snapshot (decode side)
  std::vector<std::uint32_t> refs_;  ///< id -> resident words holding it
  std::vector<std::uint32_t> free_;  ///< ids with no reference
  /// ctx & 15 -> token last minted there.  Only a guess: acquire() checks
  /// range, liveness and key, so any value is safe.
  std::array<std::uint32_t, kHints> hints_{};
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

  PackedShadowStore() { root_ = static_cast<L2**>(alloc_block(kRootBytes)); }

  ~PackedShadowStore() { destroy(); }

  PackedShadowStore(const PackedShadowStore&) = delete;
  PackedShadowStore& operator=(const PackedShadowStore&) = delete;

  PackedShadowStore(PackedShadowStore&& o) noexcept
      : pool_(std::move(o.pool_)),
        root_(std::exchange(o.root_, nullptr)),
        table_bytes_(std::exchange(o.table_bytes_, 0)),
        pages_(std::exchange(o.pages_, 0)),
        resident_(std::exchange(o.resident_, 0)) {}

  PackedShadowStore& operator=(PackedShadowStore&& o) noexcept {
    if (this != &o) {
      destroy();
      pool_ = std::move(o.pool_);
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
    const NestSnapshotPool::Key& k = pool_.key(word_token(w));
    scratch_.ctx = k.ctx;
    scratch_.iter = k.iter;
    if constexpr (kMt) {
      const Sidecar& side = page->side[off];
      scratch_.tid = side.tid;
      scratch_.flags = side.flags;
      scratch_.ts = side.ts;
    }
    return &scratch_;
  }

  /// True when the word was absent.
  bool insert(std::uint64_t addr, const Slot& value) {
    if (value.empty()) {  // shadow semantics: an empty slot reads as absent
      remove(addr);
      return false;
    }
    Page& page = touch_page(addr);
    const std::size_t off = offset(addr);
    std::uint64_t& w = page.words[off];
    // Acquire before release so an overwrite with the same snapshot never
    // bounces its refcount through zero (onto the free list, past the hint).
    const std::uint32_t token = pool_.acquire({value.ctx, value.iter});
    const bool filled = w == 0;
    if (filled)
      ++resident_;
    else
      pool_.release(word_token(w));
    w = pack_word(value.loc, token);
    if constexpr (kMt) page.side[off] = Sidecar{value.tid, value.flags, value.ts};
    return filled;
  }

  void remove(std::uint64_t addr) {
    Page* page = page_at(addr);
    if (page == nullptr) return;
    std::uint64_t& w = page->words[offset(addr)];
    if (w == 0) return;
    pool_.release(word_token(w));
    w = 0;
    --resident_;
  }

  /// Advisory cache hint (detect kernel): one walk now, the packed word
  /// (and MT sidecar) line is in flight by the time the compare reaches it.
  void prefetch(std::uint64_t addr) const {
    const Page* page = page_at(addr);
    if (page == nullptr) return;
    const std::size_t off = offset(addr);
    prefetch_rw(&page->words[off]);  // 8-byte word: always one line
    if constexpr (kMt) prefetch_rw(&page->side[off]);  // 16 bytes: one line
  }

  /// Empties the store and keeps profiling: releases every page and
  /// directory and keeps only the root directory, zeroed.
  void clear() {
    if (root_ == nullptr) return;
    release_pages();
    pool_.clear();
    resident_ = 0;
  }

  std::size_t page_count() const { return pages_; }
  std::size_t occupied() const { return resident_; }
  std::size_t bytes() const { return table_bytes_ + pool_.bytes(); }

  /// Live snapshot tokens, at most occupied() (tests: pool boundedness).
  std::size_t interned_snapshots() const { return pool_.live(); }
  /// Snapshot ids ever minted (tests: free-list recycling / wrap guard).
  std::size_t snapshot_high_water() const { return pool_.high_water(); }

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
    void* p = huge::alloc(bytes);
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

  void release_pages() {
    for (std::size_t a = 0; a < kL1Size; ++a)
      if (L2* l2 = root_[a]) free_levels(l2);
    huge::zero(root_, kRootBytes);
    pages_ = 0;
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
    release_pages();
    free_block(root_, kRootBytes);
    root_ = nullptr;
  }

  NestSnapshotPool pool_;
  L2** root_ = nullptr;
  std::size_t table_bytes_ = 0;
  std::size_t pages_ = 0;
  std::size_t resident_ = 0;
  mutable Slot scratch_{};  ///< find() decode buffer (see header comment)
};

static_assert(AccessStore<PackedShadowStore<SeqSlot>>);
static_assert(AccessStore<PackedShadowStore<MtSlot>>);

}  // namespace depprof
