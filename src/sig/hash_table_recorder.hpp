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
// clear() (a sampling burst mark) costs what the burst wrote, as on the
// other stores.  An armed table logs each bucket whose chain goes from
// empty to non-empty, up to kLogCap entries, and clear() frees just those
// chains.  A clear() with no log (an unarmed table) or an overflowed one
// walks every bucket, then arms the log.  Tables of unsampled runs stay
// unarmed, allocate no log and pay one flag test per new chain head.

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/huge_alloc.hpp"
#include "common/mem_stats.hpp"
#include "common/prefetch.hpp"
#include "sig/access_store.hpp"
#include "sig/slots.hpp"

namespace depprof {

template <typename Slot>
class HashTableRecorder {
 public:
  using slot_type = Slot;

  /// A table built for a sampled run is armed from the start, so the first
  /// burst mark also costs only what the first burst wrote.
  explicit HashTableRecorder(std::size_t bucket_count = 1 << 16,
                             bool sampled = false)
      : buckets_(bucket_count ? bucket_count : 1),
        charge_(MemComponent::kSignatures,
                static_cast<std::int64_t>(sizeof(Node*) * (bucket_count ? bucket_count : 1))),
        logging_(sampled) {}

  const Slot* find(std::uint64_t addr) const {
    for (const Node* n = buckets_[index(addr)].get(); n != nullptr; n = n->next.get())
      if (n->addr == addr) return &n->slot;
    return nullptr;
  }

  void insert(std::uint64_t addr, const Slot& value) {
    const std::size_t i = index(addr);
    auto& head = buckets_[i];
    for (Node* n = head.get(); n != nullptr; n = n->next.get()) {
      if (n->addr == addr) {
        n->slot = value;
        return;
      }
    }
    if (head == nullptr && logging_) [[unlikely]] log_bucket(i);
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

  /// Empties the table (every sampling burst mark): every chain is
  /// non-empty only since the last clear(), so while the log holds each
  /// chain head the burst created, freeing those chains frees every node.
  void clear() {
    if (logging_) {
      for (std::size_t k = 0; k < log_len_; ++k) buckets_[log_[k]].reset();
    } else {
      for (auto& b : buckets_) b.reset();
      logging_ = true;
    }
    log_len_ = 0;
    MemStats::instance().add(MemComponent::kSignatures,
                             -static_cast<std::int64_t>(sizeof(Node) * size_));
    size_ = 0;
  }

  /// New chain heads a logged clear() can free.
  static constexpr std::size_t kLogCap = std::size_t{1} << 16;

  std::size_t occupied() const { return size_; }
  /// Buckets and nodes plus, once a sampled run allocated it, the clear log.
  std::size_t bytes() const {
    return buckets_.size() * sizeof(Node*) + size_ * sizeof(Node) +
           (log_ != nullptr ? kLogBytes : 0);
  }
  /// True while clear() would free only the logged chains (tests).
  bool armed() const { return logging_; }

  ~HashTableRecorder() { clear(); }
  HashTableRecorder(const HashTableRecorder&) = delete;
  HashTableRecorder& operator=(const HashTableRecorder&) = delete;
  HashTableRecorder(HashTableRecorder&& o) noexcept
      : buckets_(std::move(o.buckets_)),
        size_(std::exchange(o.size_, 0)),
        charge_(std::move(o.charge_)),
        logging_(o.logging_),
        log_(std::move(o.log_)),
        log_len_(std::exchange(o.log_len_, 0)) {
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

  static constexpr std::size_t kLogBytes = kLogCap * sizeof(std::size_t);

  /// Out of line, so an unarmed table pays only the flag test in insert().
  [[gnu::noinline]] void log_bucket(std::size_t i) {
    if (log_len_ == kLogCap) {
      logging_ = false;  // overflow: the next clear() walks every bucket
      return;
    }
    if (log_ == nullptr) {
      log_.reset(static_cast<std::size_t*>(huge::alloc(kLogBytes)));
      MemStats::instance().add(MemComponent::kSignatures,
                               static_cast<std::int64_t>(kLogBytes));
    }
    log_[log_len_++] = i;
  }

  struct LogFree {
    void operator()(std::size_t* p) const {
      huge::free(p, kLogBytes);
      MemStats::instance().add(MemComponent::kSignatures,
                               -static_cast<std::int64_t>(kLogBytes));
    }
  };

  std::vector<std::unique_ptr<Node>> buckets_;
  std::size_t size_ = 0;
  ScopedMemCharge charge_;
  bool logging_ = false;
  /// Buckets whose chain the burst started; valid while logging_.
  std::unique_ptr<std::size_t[], LogFree> log_;
  std::size_t log_len_ = 0;
};

static_assert(AccessStore<HashTableRecorder<SeqSlot>>);
static_assert(AccessStore<HashTableRecorder<MtSlot>>);

}  // namespace depprof
