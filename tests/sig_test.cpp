// Unit and property tests for the signature substrate: fixed-size
// signature, packed paged shadow store, hash-table recorder, and the
// formula-2 FPR model.

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <bit>
#include <cmath>
#include <fstream>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/huge_alloc.hpp"
#include "common/mem_stats.hpp"
#include "common/rng.hpp"
#include "sig/fpr_model.hpp"
#include "sig/hash_table_recorder.hpp"
#include "sig/packed_shadow_store.hpp"
#include "sig/signature.hpp"
#include "sig/slots.hpp"

namespace depprof {
namespace {

SeqSlot slot_at(std::uint32_t line) {
  SeqSlot s;
  s.loc = SourceLocation(1, line).packed();
  return s;
}

// ---------------------------------------------------------------- Signature

TEST(Signature, InsertFindRemove) {
  Signature<SeqSlot> sig(1024);
  EXPECT_EQ(sig.find(42), nullptr);
  EXPECT_TRUE(sig.insert(42, slot_at(10)));  // filled an empty slot
  ASSERT_NE(sig.find(42), nullptr);
  EXPECT_EQ(sig.find(42)->location().line(), 10u);
  EXPECT_EQ(sig.occupied(), 1u);
  sig.remove(42);
  EXPECT_EQ(sig.find(42), nullptr);
  EXPECT_EQ(sig.occupied(), 0u);
}

TEST(Signature, InsertOverwritesSlot) {
  Signature<SeqSlot> sig(1024);
  sig.insert(42, slot_at(10));
  EXPECT_FALSE(sig.insert(42, slot_at(20)));
  EXPECT_EQ(sig.find(42)->location().line(), 20u);
  EXPECT_EQ(sig.occupied(), 1u);
}

TEST(Signature, ModuloCollisionSharesSlot) {
  // Under modulo indexing, addr and addr + slot_count collide by design.
  Signature<SeqSlot> sig(128, SigHash::kModulo);
  sig.insert(5, slot_at(10));
  ASSERT_NE(sig.find(5 + 128), nullptr);  // approximate membership: false hit
  EXPECT_EQ(sig.find(5 + 128)->location().line(), 10u);
  EXPECT_FALSE(sig.insert(5 + 128, slot_at(11)));  // the slot was occupied
}

TEST(Signature, RemoveClearsCollidingResident) {
  // Removal clears whatever occupies the slot — the accepted approximation
  // of the variable-lifetime analysis.
  Signature<SeqSlot> sig(128, SigHash::kModulo);
  sig.insert(5, slot_at(10));
  sig.remove(5 + 128);
  EXPECT_EQ(sig.find(5), nullptr);
}

TEST(Signature, IntersectCountsSharedSlots) {
  Signature<SeqSlot> a(256), b(256);
  a.insert(1, slot_at(1));
  b.insert(1, slot_at(2));
  a.insert(9, slot_at(1));
  // Address 1 was inserted into both: disambiguation must count it.
  EXPECT_GE(a.intersect_count(b), 1u);
}

TEST(Signature, ClearResetsEverything) {
  Signature<SeqSlot> sig(64);
  for (std::uint64_t i = 0; i < 50; ++i) sig.insert(i, slot_at(1));
  sig.clear();
  EXPECT_EQ(sig.occupied(), 0u);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(sig.find(i), nullptr);
}

TEST(Signature, BytesIsSlotCountTimesSlotSize) {
  Signature<SeqSlot> sig(1000);
  EXPECT_EQ(sig.bytes(), 1000 * sizeof(SeqSlot));
  Signature<MtSlot> mt(1000);
  EXPECT_EQ(mt.bytes(), 1000 * sizeof(MtSlot));
}

TEST(Signature, ZeroSlotCountClampsToOne) {
  Signature<SeqSlot> sig(0);
  EXPECT_EQ(sig.slot_count(), 1u);
  sig.insert(1, slot_at(1));
  EXPECT_NE(sig.find(999), nullptr);  // everything shares the single slot
}

/// Resident set of this process in bytes, or nullopt without /proc.
std::optional<std::int64_t> resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t total_pages = 0, resident_pages = 0;
  if (!(statm >> total_pages >> resident_pages)) return std::nullopt;
  return resident_pages * static_cast<std::int64_t>(::sysconf(_SC_PAGESIZE));
}

TEST(Signature, ConstructionTouchesNoSlotMemory) {
  // The kernel zero-fills slot pages on first write; the constructor must
  // not write them itself.  MemStats still charges the configured bytes.
  const std::optional<std::int64_t> before = resident_bytes();
  if (!before) GTEST_SKIP() << "/proc/self/statm unavailable";
  const std::int64_t charged =
      MemStats::instance().bytes(MemComponent::kSignatures);
  Signature<SeqSlot> sig(std::size_t{1} << 20);  // 40 MiB
  const std::optional<std::int64_t> after = resident_bytes();
  ASSERT_TRUE(after.has_value());
  EXPECT_LT(*after - *before, static_cast<std::int64_t>(sig.bytes() / 4));
  EXPECT_EQ(MemStats::instance().bytes(MemComponent::kSignatures) - charged,
            static_cast<std::int64_t>(sig.bytes()));
}

TEST(Signature, MemoryAccountingCharged) {
  MemStats::instance().reset();
  {
    Signature<SeqSlot> sig(1024);
    EXPECT_EQ(MemStats::instance().bytes(MemComponent::kSignatures),
              static_cast<std::int64_t>(1024 * sizeof(SeqSlot)));
  }
  EXPECT_EQ(MemStats::instance().bytes(MemComponent::kSignatures), 0);
}

// Parameterized property: under both index functions, an element inserted
// and not removed is always found (no false negatives of *membership*).
class SignatureHashProperty : public ::testing::TestWithParam<SigHash> {};

TEST_P(SignatureHashProperty, MembershipNeverMissesInsertedElements) {
  Signature<SeqSlot> sig(1u << 14, GetParam());
  Rng rng(5);
  std::set<std::uint64_t> inserted;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t addr = rng.below(1u << 20);
    sig.insert(addr, slot_at(1));
    inserted.insert(addr);
  }
  for (std::uint64_t addr : inserted) EXPECT_NE(sig.find(addr), nullptr);
}

TEST_P(SignatureHashProperty, OccupancyNeverExceedsInsertions) {
  Signature<SeqSlot> sig(1u << 10, GetParam());
  Rng rng(6);
  for (int i = 0; i < 500; ++i) sig.insert(rng(), slot_at(1));
  EXPECT_LE(sig.occupied(), 500u);
  EXPECT_LE(sig.occupied(), sig.slot_count());
}

INSTANTIATE_TEST_SUITE_P(BothHashes, SignatureHashProperty,
                         ::testing::Values(SigHash::kModulo, SigHash::kMix));

// -------------------------------------------------------- PackedShadowStore

using PackedSeq = PackedShadowStore<SeqSlot>;
using PackedMt = PackedShadowStore<MtSlot>;

TEST(PackedShadowStore, PackUnpackRoundTripsAtFieldBoundaries) {
  // All-ones loc must not bleed into the token half and vice versa.
  constexpr std::uint32_t kMaxLoc = 0xFFFFFFFFu;
  constexpr std::uint32_t kMaxToken = 0xFFFFFFFFu;
  static_assert(PackedSeq::word_loc(PackedSeq::pack_word(kMaxLoc, 0)) ==
                kMaxLoc);
  static_assert(PackedSeq::word_token(PackedSeq::pack_word(kMaxLoc, 0)) == 0u);
  static_assert(PackedSeq::word_loc(PackedSeq::pack_word(0, kMaxToken)) == 0u);
  static_assert(PackedSeq::word_token(PackedSeq::pack_word(0, kMaxToken)) ==
                kMaxToken);
  static_assert(PackedSeq::word_loc(PackedSeq::pack_word(kMaxLoc, kMaxToken)) ==
                kMaxLoc);
  static_assert(
      PackedSeq::word_token(PackedSeq::pack_word(kMaxLoc, kMaxToken)) ==
      kMaxToken);
  // The zero word doubles as the empty sentinel.
  static_assert(PackedSeq::pack_word(0, 0) == 0u);
  // Alternating bit patterns survive both directions (no sign extension).
  constexpr std::uint64_t w = PackedSeq::pack_word(0xAAAAAAAAu, 0x55555555u);
  static_assert(PackedSeq::word_loc(w) == 0xAAAAAAAAu);
  static_assert(PackedSeq::word_token(w) == 0x55555555u);
  SUCCEED();
}

TEST(PackedShadowStore, InsertFindRemove) {
  PackedSeq store;
  EXPECT_EQ(store.find(42), nullptr);
  EXPECT_TRUE(store.insert(42, slot_at(10)));  // filled an absent word
  EXPECT_FALSE(store.insert(42, slot_at(10)));
  ASSERT_NE(store.find(42), nullptr);
  EXPECT_EQ(store.find(42)->location().line(), 10u);
  EXPECT_EQ(store.find(42)->tag, addr_tag(42));  // recomputed, not stored
  EXPECT_EQ(store.occupied(), 1u);
  EXPECT_EQ(store.page_count(), 1u);
  store.remove(42);
  EXPECT_EQ(store.find(42), nullptr);
  EXPECT_EQ(store.occupied(), 0u);
  store.remove(12345);  // removing an absent address is a no-op
}

TEST(PackedShadowStore, MaxLocRoundTripsThroughPage) {
  // The largest packed SourceLocation occupies every loc bit; it must come
  // back intact (and must not read as a token).
  PackedSeq store;
  SeqSlot s;
  s.loc = 0xFFFFFFFFu;
  s.ctx = 7;
  s.iter = 3;
  store.insert(99, s);
  const SeqSlot* got = store.find(99);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->loc, 0xFFFFFFFFu);
  EXPECT_EQ(got->ctx, 7u);
  EXPECT_EQ(got->iter, 3u);
}

TEST(PackedShadowStore, OverwriteReplacesSnapshotWithoutLeakingTokens) {
  PackedSeq store;
  SeqSlot s = slot_at(10);
  s.iter = 1;
  store.insert(42, s);
  s = slot_at(20);
  s.iter = 2;
  store.insert(42, s);
  EXPECT_EQ(store.occupied(), 1u);
  EXPECT_EQ(store.find(42)->location().line(), 20u);
  EXPECT_EQ(store.find(42)->iter, 2u);
  // Only the live snapshot remains interned after the overwrite.
  EXPECT_EQ(store.interned_snapshots(), 1u);
}

TEST(PackedShadowStore, InsertingEmptySlotReadsAsAbsent) {
  // Shadow semantics: writing an empty slot is a removal, so a store that
  // round-trips through extract/adopt behaves identically to the other
  // exact store.
  PackedSeq store;
  store.insert(42, slot_at(10));
  EXPECT_FALSE(store.insert(42, SeqSlot{}));
  EXPECT_EQ(store.find(42), nullptr);
  EXPECT_EQ(store.occupied(), 0u);
  EXPECT_EQ(store.interned_snapshots(), 0u);
}

TEST(PackedShadowStore, TokenRecyclingBoundsTheInternTable) {
  // The wrap guard in practice: overwrite churn with ever-fresh snapshots
  // must recycle ids through the free list, not mint unboundedly toward the
  // 2^31 aliasing cliff.  Acquire-before-release means at most two ids are
  // live during one overwrite.
  PackedSeq store;
  for (std::uint32_t i = 0; i < 10000; ++i) {
    SeqSlot s = slot_at(5);
    s.iter = i;  // every insert carries a brand-new snapshot
    store.insert(7, s);
  }
  EXPECT_EQ(store.interned_snapshots(), 1u);
  EXPECT_LE(store.snapshot_high_water(), 2u);
  // Insert/remove churn never overlaps two snapshots at all.
  PackedSeq churn;
  for (std::uint32_t i = 0; i < 10000; ++i) {
    SeqSlot s = slot_at(5);
    s.iter = i;
    churn.insert(7, s);
    churn.remove(7);
  }
  EXPECT_EQ(churn.interned_snapshots(), 0u);
  EXPECT_EQ(churn.snapshot_high_water(), 1u);
}

TEST(PackedShadowStore, FreedTokenIsNeverRevivedByTheHint) {
  // A freed token keeps its old key while it waits on the free list.  If
  // the context hint handed it out again, the next mint would pop the same
  // id and overwrite the snapshot a resident word still decodes.
  PackedSeq store;
  SeqSlot s = slot_at(10);
  s.ctx = 5;
  s.iter = 3;
  store.insert(7, s);
  store.remove(7);
  store.insert(8, s);
  SeqSlot other = slot_at(20);
  other.ctx = 6;
  other.iter = 4;
  store.insert(9, other);
  const SeqSlot* got = store.find(8);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->location().line(), 10u);
  EXPECT_EQ(got->ctx, 5u);
  EXPECT_EQ(got->iter, 3u);
  EXPECT_LE(store.interned_snapshots(), store.occupied());
}

TEST(PackedShadowStore, SnapshotRecurringAfterAnInnerLoopReusesItsToken) {
  // Outer iteration, inner loop, back to the same outer iteration: the
  // outer context's hint survives the inner loop's mints.
  PackedSeq store;
  SeqSlot outer = slot_at(10);
  outer.ctx = 1;
  outer.iter = 2;
  SeqSlot inner = slot_at(11);
  inner.ctx = 2;
  inner.iter = 7;
  store.insert(1, outer);
  store.insert(2, inner);
  store.insert(3, outer);
  EXPECT_EQ(store.interned_snapshots(), 2u);
  EXPECT_EQ(store.find(3)->ctx, 1u);
  EXPECT_EQ(store.find(2)->iter, 7u);
}

TEST(PackedShadowStore, SnapshotSeenBeforeClearDecodesAfterIt) {
  PackedSeq store;
  SeqSlot s = slot_at(10);
  s.ctx = 3;
  s.iter = 9;
  SeqSlot other = slot_at(12);
  other.ctx = 4;
  store.insert(1, s);
  store.insert(2, other);
  store.clear();
  store.insert(5, s);
  EXPECT_EQ(store.find(1), nullptr);
  const SeqSlot* got = store.find(5);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->location().line(), 10u);
  EXPECT_EQ(got->ctx, 3u);
  EXPECT_EQ(got->iter, 9u);
  EXPECT_EQ(store.interned_snapshots(), 1u);
}

TEST(PackedShadowStore, RandomChurnMatchesAMapModel) {
  // Seeded insert/overwrite/remove/clear churn over 300 words and 40
  // snapshots in 24 contexts, so hint slots (ctx & 15) collide and freed
  // tokens recycle.  Every word must decode what a plain map holds, and
  // the pool never holds more tokens than resident words.
  constexpr std::uint64_t kWords = 300;
  std::vector<SeqSlot> snaps(40);
  for (std::uint32_t i = 0; i < snaps.size(); ++i) {
    snaps[i].ctx = i % 24;
    snaps[i].iter = i / 24;
  }
  PackedSeq store;
  std::unordered_map<std::uint64_t, SeqSlot> model;
  Rng rng(18);
  for (int op = 0; op < 10000; ++op) {
    const std::uint64_t roll = rng.below(1000);
    const std::uint64_t word = rng.below(kWords);
    if (roll < 2) {
      store.clear();
      model.clear();
    } else if (roll < 350) {
      store.remove(word);
      model.erase(word);
    } else {
      SeqSlot s = snaps[rng.below(snaps.size())];
      s.loc = static_cast<std::uint32_t>(1 + rng.below(1000));
      store.insert(word, s);
      model[word] = s;
    }
    ASSERT_EQ(store.occupied(), model.size()) << "op " << op;
    ASSERT_LE(store.interned_snapshots(), store.occupied()) << "op " << op;
    for (std::uint64_t w = 0; w < kWords; ++w) {
      const SeqSlot* got = store.find(w);
      const auto it = model.find(w);
      if (it == model.end()) {
        ASSERT_EQ(got, nullptr) << "op " << op << " word " << w;
        continue;
      }
      ASSERT_NE(got, nullptr) << "op " << op << " word " << w;
      const SeqSlot& want = it->second;
      ASSERT_EQ(got->loc, want.loc) << "op " << op << " word " << w;
      ASSERT_EQ(got->ctx, want.ctx) << "op " << op << " word " << w;
      ASSERT_EQ(got->iter, want.iter) << "op " << op << " word " << w;
    }
  }
}

TEST(PackedShadowStore, MtSidecarKeepsFlagBitsAndFullTimestamp) {
  // All-ones flags and a max timestamp must survive the sidecar round trip
  // without aliasing into each other, the tid, or the packed word — the
  // race check compares full 64-bit timestamps.
  PackedMt store;
  MtSlot s;
  s.loc = 0xFFFFFFFFu;
  s.ctx = 3;
  s.iter = 9;
  s.tid = 0xFFFFFFFFu;
  s.flags = 0xFFFFFFFFu;
  s.ts = ~std::uint64_t{0};
  store.insert(1234, s);
  const MtSlot* got = store.find(1234);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->loc, 0xFFFFFFFFu);
  EXPECT_EQ(got->tid, 0xFFFFFFFFu);
  EXPECT_EQ(got->flags, 0xFFFFFFFFu);
  EXPECT_EQ(got->ts, ~std::uint64_t{0});
  EXPECT_EQ(got->iter, 9u);
  // A sibling word on the same page stays independent.
  MtSlot other;
  other.loc = 1;
  store.insert(1235, other);
  EXPECT_EQ(store.find(1234)->ts, ~std::uint64_t{0});
  EXPECT_EQ(store.find(1235)->ts, 0u);
}

TEST(PackedShadowStore, PagesAllocatedOnTouchOnly) {
  PackedSeq store;
  store.insert(0, slot_at(1));
  store.insert(PackedSeq::kPageWords + 5, slot_at(2));   // second leaf page
  store.insert((std::uint64_t{1} << 40) + 9, slot_at(3));  // far directory
  EXPECT_EQ(store.page_count(), 3u);
  ASSERT_NE(store.find((std::uint64_t{1} << 40) + 9), nullptr);
  EXPECT_EQ(store.find((std::uint64_t{1} << 40) + 8), nullptr);

  // The Sec. III-B problem: sparse addresses cost a whole leaf page each,
  // far above a signature's fixed footprint.
  PackedSeq sparse;
  constexpr std::uint64_t kSparse = 16;
  for (std::uint64_t i = 0; i < kSparse; ++i)
    sparse.insert(i * PackedSeq::kPageWords, slot_at(1));
  EXPECT_EQ(sparse.page_count(), kSparse);
  EXPECT_GE(sparse.bytes(), kSparse * PackedSeq::kPageWords * 8);
  Signature<SeqSlot> sig(1024);
  EXPECT_GT(sparse.bytes(), sig.bytes() * 10);
}

TEST(PackedShadowStore, TeardownReleasesEveryByte) {
  // Page-table teardown must return every charged byte: clear() keeps only
  // the (re-zeroed) root directory, destruction releases that too.
  const std::int64_t base = MemStats::instance().bytes(MemComponent::kStore);
  std::int64_t after_clear = 0;
  {
    PackedSeq store;
    const std::int64_t rooted =
        MemStats::instance().bytes(MemComponent::kStore);
    EXPECT_GT(rooted, base);  // eager root directory
    for (std::uint64_t i = 0; i < 8; ++i)
      store.insert(i * PackedSeq::kPageWords, slot_at(1));
    EXPECT_EQ(store.page_count(), 8u);
    EXPECT_GT(MemStats::instance().bytes(MemComponent::kStore), rooted);
    store.clear();
    after_clear = MemStats::instance().bytes(MemComponent::kStore);
    EXPECT_EQ(after_clear, rooted);  // pages and directories all released
    EXPECT_EQ(store.page_count(), 0u);
    EXPECT_EQ(store.occupied(), 0u);
    // The store stays usable after a reset (burst-mark semantics).
    store.insert(42, slot_at(10));
    ASSERT_NE(store.find(42), nullptr);
  }
  EXPECT_EQ(MemStats::instance().bytes(MemComponent::kStore), base);
}

// ---------------------------------------------------------------- huge_alloc

TEST(HugeAlloc, ForcedFallbackCountsAndStaysUsable) {
  // When mmap/MADV_HUGEPAGE is unavailable the allocator must degrade to
  // operator new, count the degradation, zero the block (matching kernel
  // zero-fill semantics the packed store's empty sentinel relies on), and
  // free it through the right deallocator.
  const std::uint64_t before = huge::fallback_count();
  huge::set_force_fallback(true);
  void* p = huge::alloc(huge::kHugeThreshold);
  huge::set_force_fallback(false);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(huge::fallback_count(), before + 1);
  const auto* bytes = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < huge::kHugeThreshold; i += 4096)
    ASSERT_EQ(bytes[i], 0u) << "fallback block not zeroed at offset " << i;
  huge::free(p, huge::kHugeThreshold);  // must route to the fallback path
  // Sub-threshold blocks are mmap-backed too: zeroed, and no fallback.
  const std::uint64_t small_before = huge::fallback_count();
  void* q = huge::alloc(4096);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(huge::fallback_count(), small_before);
  EXPECT_EQ(static_cast<const unsigned char*>(q)[4095], 0u);
  huge::free(q, 4096);
}

TEST(HugeAlloc, PackedStoreSurvivesForcedFallback) {
  // The packed store's leaf pages are exactly one huge block each; with the
  // fast path gone it must still behave identically.
  huge::set_force_fallback(true);
  {
    PackedSeq store;
    store.insert(5, slot_at(11));
    store.insert(PackedSeq::kPageWords + 6, slot_at(12));
    ASSERT_NE(store.find(5), nullptr);
    EXPECT_EQ(store.find(5)->location().line(), 11u);
    EXPECT_EQ(store.page_count(), 2u);
  }
  huge::set_force_fallback(false);
}

// ------------------------------------------------- Signature zero-fill
//
// The slot array is never constructed: the allocator's zero-fill is what
// makes every slot empty, fresh and after clear(), on each allocation path.
// Under modulo hashing word i < slot_count maps to slot i, so find() over
// [0, n) visits every slot.

template <typename Slot>
class SignatureZeroFill : public ::testing::Test {
 protected:
  /// Slots in the smallest block that takes the mmap path.
  static constexpr std::size_t kHugeSlots =
      huge::kHugeThreshold / sizeof(Slot) + 1;

  static void check(std::size_t n) {
    Signature<Slot> sig(n, SigHash::kModulo);
    for (std::uint64_t i = 0; i < n; ++i)
      ASSERT_EQ(sig.find(i), nullptr) << "fresh slot " << i;
    std::array<unsigned char, sizeof(Slot)> bytes;
    bytes.fill(0xA5);
    const Slot full = std::bit_cast<Slot>(bytes);  // every byte non-zero
    for (std::uint64_t i = 0; i < n; ++i) sig.insert(i, full);
    ASSERT_EQ(sig.occupied(), n);
    sig.clear();
    EXPECT_EQ(sig.occupied(), 0u);
    for (std::uint64_t i = 0; i < n; ++i)
      ASSERT_EQ(sig.find(i), nullptr) << "cleared slot " << i;
    sig.insert(n / 2, full);
    ASSERT_NE(sig.find(n / 2), nullptr);
    EXPECT_EQ(sig.find(n / 2)->ctx, full.ctx);
    EXPECT_EQ(sig.occupied(), 1u);
  }
};

using SlotTypes = ::testing::Types<SeqSlot, MtSlot>;
TYPED_TEST_SUITE(SignatureZeroFill, SlotTypes);

TYPED_TEST(SignatureZeroFill, MmapBlock) {
  const std::uint64_t before = huge::fallback_count();
  TestFixture::check(TestFixture::kHugeSlots);
  EXPECT_EQ(huge::fallback_count(), before);
}

TYPED_TEST(SignatureZeroFill, SmallBlock) {
  static_assert(1000 * sizeof(TypeParam) < huge::kHugeThreshold);
  TestFixture::check(1000);
}

TYPED_TEST(SignatureZeroFill, FallbackBlock) {
  struct ForceFallback {
    ForceFallback() { huge::set_force_fallback(true); }
    ~ForceFallback() { huge::set_force_fallback(false); }
  };
  const std::uint64_t before = huge::fallback_count();
  {
    ForceFallback force;
    TestFixture::check(TestFixture::kHugeSlots);
  }
  // The slot array: a store allocates nothing else.
  EXPECT_EQ(huge::fallback_count(), before + 1);
}

// ------------------------------------------------------ HashTableRecorder

TEST(HashTableRecorder, ExactMembership) {
  HashTableRecorder<SeqSlot> table(16);  // tiny bucket count forces chains
  for (std::uint64_t i = 0; i < 100; ++i) table.insert(i, slot_at(i % 30 + 1));
  EXPECT_EQ(table.occupied(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_NE(table.find(i), nullptr);
    EXPECT_EQ(table.find(i)->location().line(), i % 30 + 1);
  }
  EXPECT_EQ(table.find(1000), nullptr);
}

TEST(HashTableRecorder, InsertUpdatesInPlace) {
  HashTableRecorder<SeqSlot> table(16);
  EXPECT_TRUE(table.insert(1, slot_at(10)));  // a new node
  EXPECT_FALSE(table.insert(1, slot_at(20)));
  EXPECT_EQ(table.occupied(), 1u);
  EXPECT_EQ(table.find(1)->location().line(), 20u);
}

TEST(HashTableRecorder, RemoveFromChainMiddle) {
  HashTableRecorder<SeqSlot> table(1);  // single bucket: everything chains
  for (std::uint64_t i = 0; i < 10; ++i) table.insert(i, slot_at(i + 1));
  table.remove(5);
  table.remove(5);  // removing an absent address is a no-op
  EXPECT_EQ(table.occupied(), 9u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    if (i == 5) {
      EXPECT_EQ(table.find(i), nullptr);
    } else {
      ASSERT_NE(table.find(i), nullptr) << i;
      EXPECT_EQ(table.find(i)->location().line(), i + 1) << i;
    }
  }
}

TEST(HashTableRecorder, ClearFreesEveryNode) {
  // clear() walks every bucket: no node survives, every node charge comes
  // back, and the table stays usable (burst-mark semantics).
  const std::int64_t base =
      MemStats::instance().bytes(MemComponent::kSignatures);
  {
    HashTableRecorder<SeqSlot> table(64);
    const std::int64_t built =
        MemStats::instance().bytes(MemComponent::kSignatures);
    for (std::uint64_t i = 0; i < 500; ++i) table.insert(i * 7, slot_at(1));
    EXPECT_EQ(MemStats::instance().bytes(MemComponent::kSignatures) - built,
              static_cast<std::int64_t>(table.bytes() - 64 * sizeof(void*)));
    table.clear();
    EXPECT_EQ(table.occupied(), 0u);
    EXPECT_EQ(table.bytes(), 64 * sizeof(void*));
    EXPECT_EQ(MemStats::instance().bytes(MemComponent::kSignatures), built);
    for (std::uint64_t i = 0; i < 500; ++i)
      ASSERT_EQ(table.find(i * 7), nullptr) << i;
    // Removing every node one by one (a burst mark's drain) returns every
    // charge too, though nodes are charged in blocks.
    for (std::uint64_t i = 0; i < 500; ++i) table.insert(i * 3, slot_at(1));
    for (std::uint64_t i = 0; i < 500; ++i) table.remove(i * 3);
    EXPECT_EQ(table.bytes(), 64 * sizeof(void*));
    EXPECT_EQ(MemStats::instance().bytes(MemComponent::kSignatures), built);
    EXPECT_TRUE(table.insert(7, slot_at(2)));
    EXPECT_EQ(table.find(7)->location().line(), 2u);
  }
  EXPECT_EQ(MemStats::instance().bytes(MemComponent::kSignatures), base);
}

// ---------------------------------------------------------------- FPR model

TEST(FprModel, MatchesClosedFormOnSmallValues) {
  // 1 - (1 - 1/m)^n computed directly.
  EXPECT_NEAR(predicted_fpr(10, 5), 1.0 - std::pow(0.9, 5), 1e-12);
  EXPECT_NEAR(predicted_fpr(100, 100), 1.0 - std::pow(0.99, 100), 1e-12);
}

TEST(FprModel, Monotonicity) {
  // More addresses => higher FPR; more slots => lower FPR.
  EXPECT_LT(predicted_fpr(1000, 10), predicted_fpr(1000, 100));
  EXPECT_GT(predicted_fpr(1000, 100), predicted_fpr(10000, 100));
}

TEST(FprModel, EdgeCases) {
  EXPECT_EQ(predicted_fpr(0, 100), 1.0);
  EXPECT_EQ(predicted_fpr(100, 0), 0.0);
  EXPECT_NEAR(predicted_fpr(1, 1), 1.0, 1e-12);
}

TEST(FprModel, SizingInvertsTheModel) {
  const std::size_t n = 100'000;
  for (double target : {0.3, 0.1, 0.01}) {
    const std::size_t m = slots_for_target_fpr(n, target);
    EXPECT_LE(predicted_fpr(m, n), target + 1e-9);
    // One slot fewer must overshoot (minimality, allowing rounding slack).
    if (m > 2) {
      EXPECT_GT(predicted_fpr(m - 2, n), target - 1e-3);
    }
  }
}

TEST(FprModel, SizingEdgeCases) {
  EXPECT_EQ(slots_for_target_fpr(0, 0.01), 1u);
  EXPECT_EQ(slots_for_target_fpr(100, 1.0), 1u);
}

// Property: measured occupancy after inserting n random addresses tracks
// formula 2 within a small tolerance (the formula-2 bench sweeps widely;
// this pins a few points as a regression test).
class Formula2Property
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(Formula2Property, OccupancyMatchesModel) {
  const auto [m, n] = GetParam();
  Signature<SeqSlot> sig(m);
  Rng rng(99);
  for (std::size_t i = 0; i < n; ++i) sig.insert(rng(), slot_at(1));
  EXPECT_NEAR(sig.load_factor(), predicted_fpr(m, n), 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Points, Formula2Property,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1u << 12, 1u << 10},
                      std::pair<std::size_t, std::size_t>{1u << 12, 1u << 12},
                      std::pair<std::size_t, std::size_t>{1u << 14, 1u << 12},
                      std::pair<std::size_t, std::size_t>{1u << 14, 1u << 15}));

}  // namespace
}  // namespace depprof
