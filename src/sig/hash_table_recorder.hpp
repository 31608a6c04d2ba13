#pragma once
// Hash-table baseline (Sec. III-B).
//
// "An alternative is to record memory accesses using a hash table, but this
// approach incurs additional time overhead since when more than one address
// is hashed into the same bucket, the bucket has to be searched for the
// address in question.  Based on our experiments, the hash table approach is
// about 1.5 - 3.7x slower than our approach."
//
// This is a deliberately faithful open-hashing table with chained buckets so
// the ablation_storage bench can reproduce that comparison: exact (no false
// dependences) but paying a key compare + chain walk per access and node
// allocations as it grows.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/hash.hpp"
#include "common/mem_stats.hpp"
#include "common/prefetch.hpp"
#include "sig/access_store.hpp"
#include "sig/slots.hpp"

namespace depprof {

template <typename Slot>
class HashTableRecorder {
 public:
  using slot_type = Slot;

  explicit HashTableRecorder(std::size_t bucket_count = 1 << 16)
      : buckets_(bucket_count ? bucket_count : 1),
        charge_(MemComponent::kSignatures,
                static_cast<std::int64_t>(sizeof(Node*) * (bucket_count ? bucket_count : 1))) {}

  const Slot* find(std::uint64_t addr) const {
    for (const Node* n = buckets_[index(addr)].get(); n != nullptr; n = n->next.get())
      if (n->addr == addr) return &n->slot;
    return nullptr;
  }

  void insert(std::uint64_t addr, const Slot& value) {
    auto& head = buckets_[index(addr)];
    for (Node* n = head.get(); n != nullptr; n = n->next.get()) {
      if (n->addr == addr) {
        n->slot = value;
        return;
      }
    }
    auto node = std::make_unique<Node>();
    node->addr = addr;
    node->slot = value;
    node->next = std::move(head);
    head = std::move(node);
    ++size_;
    MemStats::instance().add(MemComponent::kSignatures,
                             static_cast<std::int64_t>(sizeof(Node)));
  }

  void remove(std::uint64_t addr) { (void)extract(addr); }

  /// Advisory cache hint (detect kernel): pulls the first chain node; the
  /// chain walk beyond it still pays its misses — part of why this baseline
  /// trails the signature (Sec. III-B).
  void prefetch(std::uint64_t addr) const {
    if (const Node* n = buckets_[index(addr)].get()) prefetch_ro(n);
  }

  std::optional<Slot> extract(std::uint64_t addr) {
    std::unique_ptr<Node>* link = &buckets_[index(addr)];
    while (*link) {
      if ((*link)->addr == addr) {
        Slot out = (*link)->slot;
        *link = std::move((*link)->next);
        --size_;
        MemStats::instance().add(MemComponent::kSignatures,
                                 -static_cast<std::int64_t>(sizeof(Node)));
        return out;
      }
      link = &(*link)->next;
    }
    return std::nullopt;
  }

  void clear() {
    for (auto& b : buckets_) b.reset();
    MemStats::instance().add(MemComponent::kSignatures,
                             -static_cast<std::int64_t>(sizeof(Node) * size_));
    size_ = 0;
  }

  std::size_t occupied() const { return size_; }
  std::size_t bytes() const {
    return buckets_.size() * sizeof(Node*) + size_ * sizeof(Node);
  }

  ~HashTableRecorder() { clear(); }
  HashTableRecorder(const HashTableRecorder&) = delete;
  HashTableRecorder& operator=(const HashTableRecorder&) = delete;
  HashTableRecorder(HashTableRecorder&& o) noexcept
      : buckets_(std::move(o.buckets_)),
        size_(o.size_),
        charge_(std::move(o.charge_)) {
    o.buckets_.clear();
    o.size_ = 0;
  }
  HashTableRecorder& operator=(HashTableRecorder&&) = delete;

 private:
  struct Node {
    std::uint64_t addr = 0;
    Slot slot{};
    std::unique_ptr<Node> next;
  };

  std::size_t index(std::uint64_t addr) const {
    return static_cast<std::size_t>(hash_address(addr) % buckets_.size());
  }

  std::vector<std::unique_ptr<Node>> buckets_;
  std::size_t size_ = 0;
  ScopedMemCharge charge_;
};

static_assert(AccessStore<HashTableRecorder<SeqSlot>>);
static_assert(AccessStore<HashTableRecorder<MtSlot>>);

}  // namespace depprof
