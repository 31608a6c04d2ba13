#pragma once
// Perfect signature (Sec. VI-A).
//
// "We implemented a 'perfect signature', in which hash collisions are
// guaranteed not to happen.  Essentially, the perfect signature is a table
// where each memory address has its own entry."  It is the accuracy baseline
// for Table I (FPR/FNR) and the "DP" column of Table II, and doubles as the
// "naive" memory configuration of Figures 7/8.

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/mem_stats.hpp"
#include "sig/access_store.hpp"
#include "sig/slots.hpp"

namespace depprof {

template <typename Slot>
class PerfectSignature {
 public:
  using slot_type = Slot;

  PerfectSignature() = default;

  /// Exact membership check: nullptr unless `addr` itself was inserted.
  const Slot* find(std::uint64_t addr) const {
    auto it = map_.find(addr);
    return it == map_.end() ? nullptr : &it->second;
  }

  void insert(std::uint64_t addr, const Slot& value) {
    auto [it, inserted] = map_.insert_or_assign(addr, value);
    (void)it;
    if (inserted) {
      MemStats::instance().add(MemComponent::kSignatures,
                               static_cast<std::int64_t>(kEntryBytes));
    }
  }

  void remove(std::uint64_t addr) {
    if (map_.erase(addr) > 0) {
      MemStats::instance().add(MemComponent::kSignatures,
                               -static_cast<std::int64_t>(kEntryBytes));
    }
  }

  std::optional<Slot> extract(std::uint64_t addr) {
    auto it = map_.find(addr);
    if (it == map_.end()) return std::nullopt;
    Slot out = it->second;
    map_.erase(it);
    MemStats::instance().add(MemComponent::kSignatures,
                             -static_cast<std::int64_t>(kEntryBytes));
    return out;
  }

  /// Advisory cache hint (detect kernel).  The node-based map hides its
  /// bucket layout, so there is no slot address to prefetch without paying
  /// the full lookup — the hint degrades to a no-op here.
  void prefetch(std::uint64_t addr) const { (void)addr; }

  void clear() {
    MemStats::instance().add(
        MemComponent::kSignatures,
        -static_cast<std::int64_t>(kEntryBytes * map_.size()));
    map_.clear();
  }

  std::size_t occupied() const { return map_.size(); }
  std::size_t bytes() const { return map_.size() * kEntryBytes; }

  ~PerfectSignature() { clear(); }
  PerfectSignature(const PerfectSignature&) = delete;
  PerfectSignature& operator=(const PerfectSignature&) = delete;
  PerfectSignature(PerfectSignature&&) = default;
  PerfectSignature& operator=(PerfectSignature&&) = default;

 private:
  // Approximate per-entry footprint of the hash map (key + slot + bucket
  // overhead), used for the Figures 7/8 "naive" accounting.
  static constexpr std::size_t kEntryBytes = sizeof(std::uint64_t) + sizeof(Slot) + 16;
  std::unordered_map<std::uint64_t, Slot> map_;
};

static_assert(AccessStore<PerfectSignature<SeqSlot>>);
static_assert(AccessStore<PerfectSignature<MtSlot>>);

}  // namespace depprof
