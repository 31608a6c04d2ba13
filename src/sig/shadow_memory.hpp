#pragma once
// Shadow-memory baseline (Sec. III-B).
//
// "Traditional data-dependence profiling approaches record memory accesses
// using shadow memory ... the access history of addresses is stored in a
// table where the index of an address is the address itself."  We implement
// the multilevel-table variant the paper mentions: a two-level page table
// whose second-level pages are allocated on first touch.  Sparse, widely
// spread address sets blow its memory up — the effect the ablation_storage
// bench quantifies against signatures.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common/mem_stats.hpp"
#include "common/prefetch.hpp"
#include "sig/access_store.hpp"
#include "sig/slots.hpp"

namespace depprof {

template <typename Slot>
class ShadowMemory {
 public:
  using slot_type = Slot;

  /// One second-level page covers 2^kPageBits word-granular addresses.
  static constexpr unsigned kPageBits = 16;
  static constexpr std::size_t kPageSlots = std::size_t{1} << kPageBits;

  ShadowMemory() = default;

  const Slot* find(std::uint64_t addr) const {
    const Page* page = find_page(addr);
    if (page == nullptr) return nullptr;
    const std::size_t off = offset(addr);
    // Issue the slot's lines the moment the walk resolves, before the
    // empty()/caller loads reach them: a 40/56-byte slot regularly straddles
    // two lines and the second line's miss is otherwise exposed on the
    // caller's compare (and on the insert that usually follows).
    prefetch_obj_rw(&page->slots[off], sizeof(Slot));
    const Slot& s = page->slots[off];
    return s.empty() ? nullptr : &s;
  }

  void insert(std::uint64_t addr, const Slot& value) {
    Page& page = touch_page(addr);
    Slot& s = page.slots[offset(addr)];
    if (s.empty() && !value.empty()) ++resident_;
    s = value;
  }

  void remove(std::uint64_t addr) {
    Page* page = find_page_mut(addr);
    if (page == nullptr) return;
    Slot& s = page->slots[offset(addr)];
    if (!s.empty()) --resident_;
    s = Slot{};
  }

  std::optional<Slot> extract(std::uint64_t addr) {
    Page* page = find_page_mut(addr);
    if (page == nullptr) return std::nullopt;
    Slot& s = page->slots[offset(addr)];
    if (s.empty()) return std::nullopt;
    Slot out = s;
    s = Slot{};
    --resident_;
    return out;
  }

  /// Advisory cache hint (detect kernel): the page lookup runs now, the
  /// slot line lands in cache by the time the compare/update reaches it.
  void prefetch(std::uint64_t addr) const {
    if (const Page* page = find_page(addr))
      prefetch_obj_rw(&page->slots[offset(addr)], sizeof(Slot));
  }

  void clear() {
    pages_.clear();
    resident_ = 0;
    last_page_id_ = kNoPage;
    last_page_ = nullptr;
  }

  std::size_t page_count() const { return pages_.size(); }
  std::size_t occupied() const { return resident_; }
  std::size_t bytes() const { return pages_.size() * sizeof(Page); }

 private:
  struct Page {
    std::array<Slot, kPageSlots> slots{};
    ScopedMemCharge charge{MemComponent::kSignatures,
                           static_cast<std::int64_t>(sizeof(slots))};
  };

  // Addresses arrive as canonical word units (see common/hash.hpp).
  static std::uint64_t page_id(std::uint64_t addr) { return addr >> kPageBits; }
  static std::size_t offset(std::uint64_t addr) {
    return static_cast<std::size_t>(addr & (kPageSlots - 1));
  }

  // The two-level walk's fast path: consecutive accesses overwhelmingly hit
  // the same second-level page (a page covers 64K words), so a one-entry
  // page cache skips the unordered_map probe.  Pages are never freed
  // individually (remove() only empties slots), so the cached pointer stays
  // valid until clear().
  const Page* find_page(std::uint64_t addr) const {
    const std::uint64_t id = page_id(addr);
    if (id == last_page_id_) return last_page_;
    auto it = pages_.find(id);
    if (it == pages_.end()) return nullptr;
    last_page_id_ = id;
    last_page_ = it->second.get();
    return last_page_;
  }
  Page* find_page_mut(std::uint64_t addr) {
    return const_cast<Page*>(find_page(addr));
  }
  Page& touch_page(std::uint64_t addr) {
    const std::uint64_t id = page_id(addr);
    if (id == last_page_id_)
      return *const_cast<Page*>(last_page_);
    auto& p = pages_[id];
    if (!p) p = std::make_unique<Page>();
    last_page_id_ = id;
    last_page_ = p.get();
    return *p;
  }

  static constexpr std::uint64_t kNoPage = ~std::uint64_t{0};

  std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages_;
  std::size_t resident_ = 0;
  mutable std::uint64_t last_page_id_ = kNoPage;
  mutable const Page* last_page_ = nullptr;
};

static_assert(AccessStore<ShadowMemory<SeqSlot>>);
static_assert(AccessStore<ShadowMemory<MtSlot>>);

}  // namespace depprof
