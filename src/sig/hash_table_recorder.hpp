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
//
// Nodes are charged to MemComponent::kSignatures in blocks of kChargeNodes,
// so the process-wide counter, which every pipeline worker's tables share,
// is touched once per block of inserts or removes, not once per node (a
// burst mark removes the burst's nodes one by one).  bytes() counts the
// charged blocks, so it always equals what the table holds charged.

#include <cstdint>
#include <memory>
#include <utility>
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

  /// True when `addr` had no node.
  bool insert(std::uint64_t addr, const Slot& value) {
    auto& head = buckets_[index(addr)];
    for (Node* n = head.get(); n != nullptr; n = n->next.get()) {
      if (n->addr == addr) {
        n->slot = value;
        return false;
      }
    }
    auto node = std::make_unique<Node>();
    node->addr = addr;
    node->slot = value;
    node->next = std::move(head);
    head = std::move(node);
    if (size_++ == charged_) charge(kChargeNodes);
    return true;
  }

  void remove(std::uint64_t addr) {
    std::unique_ptr<Node>* link = &buckets_[index(addr)];
    while (*link) {
      if ((*link)->addr == addr) {
        *link = std::move((*link)->next);
        if (--size_ + kChargeNodes == charged_) charge(-kChargeNodes);
        return;
      }
      link = &(*link)->next;
    }
  }

  /// Advisory cache hint (detect kernel): pulls the first chain node; the
  /// chain walk beyond it still pays its misses — part of why this baseline
  /// trails the signature (Sec. III-B).
  void prefetch(std::uint64_t addr) const {
    if (const Node* n = buckets_[index(addr)].get()) prefetch_ro(n);
  }

  /// Empties the table: walks every bucket and frees its chain.
  void clear() {
    for (auto& b : buckets_) b.reset();
    size_ = 0;
    charge(-static_cast<std::int64_t>(charged_));
  }

  std::size_t occupied() const { return size_; }
  std::size_t bytes() const {
    return buckets_.size() * sizeof(Node*) + charged_ * sizeof(Node);
  }

  ~HashTableRecorder() { clear(); }
  HashTableRecorder(const HashTableRecorder&) = delete;
  HashTableRecorder& operator=(const HashTableRecorder&) = delete;
  HashTableRecorder(HashTableRecorder&& o) noexcept
      : buckets_(std::move(o.buckets_)),
        size_(std::exchange(o.size_, 0)),
        charged_(std::exchange(o.charged_, 0)),
        charge_(std::move(o.charge_)) {
    o.buckets_.clear();
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

  /// Nodes per charge: charged_ is size_ rounded up to a multiple of it.
  static constexpr std::int64_t kChargeNodes = 64;

  void charge(std::int64_t nodes) {
    charged_ += nodes;
    MemStats::instance().add(MemComponent::kSignatures,
                             nodes * static_cast<std::int64_t>(sizeof(Node)));
  }

  std::vector<std::unique_ptr<Node>> buckets_;
  std::size_t size_ = 0;
  std::size_t charged_ = 0;  ///< nodes charged to MemStats
  ScopedMemCharge charge_;
};

static_assert(AccessStore<HashTableRecorder<SeqSlot>>);
static_assert(AccessStore<HashTableRecorder<MtSlot>>);

}  // namespace depprof
