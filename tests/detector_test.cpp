// Tests for Algorithm 1 (the dependence detector) and the dependence model:
// RAW/WAR/WAW/INIT construction, RAR suppression, lifetime removal,
// loop-carried attribution over the interned nest contexts (innermost
// common loop + per-level distance buckets) and its memo, the address-tag
// gating, dedup-run folding, merging, migration state transfer, and the
// burst-mark log that makes a sampling mark cost what the burst wrote.

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "common/mem_stats.hpp"
#include "common/rng.hpp"
#include "core/detector.hpp"
#include "instrument/dedup.hpp"
#include "sig/hash_table_recorder.hpp"
#include "sig/packed_shadow_store.hpp"
#include "sig/signature.hpp"
#include "trace/nest.hpp"

namespace depprof {
namespace {

/// `addr` is a word unit: the event carries its byte address, which the
/// kernel canonicalizes back to the unit.
AccessEvent ev(std::uint64_t addr, AccessKind kind, std::uint32_t line,
               std::uint32_t var = 7) {
  AccessEvent e;
  e.addr = addr << 2;
  e.kind = kind;
  e.loc = SourceLocation(1, line).packed();
  e.var = var;
  return e;
}

AccessEvent rd(std::uint64_t addr, std::uint32_t line) {
  return ev(addr, AccessKind::kRead, line);
}
AccessEvent wr(std::uint64_t addr, std::uint32_t line) {
  return ev(addr, AccessKind::kWrite, line);
}
AccessEvent fr(std::uint64_t addr) { return ev(addr, AccessKind::kFree, 0); }
AccessEvent mark() {
  AccessEvent e;
  e.kind = AccessKind::kBurstMark;
  return e;
}

DepKey key(DepType type, std::uint32_t sink_line, std::uint32_t src_line,
           std::uint32_t var = 7) {
  DepKey k;
  k.type = type;
  k.sink_loc = SourceLocation(1, sink_line).packed();
  k.src_loc = src_line ? SourceLocation(1, src_line).packed() : 0;
  k.var = var;
  return k;
}

using ExactDetector = DetectorCore<PackedShadowStore<SeqSlot>>;

ExactDetector make_exact() { return ExactDetector{{}, {}}; }

/// Runs `events` through the detector as one batch, in order.
template <typename Detector>
void detect(Detector& det, DepMap& deps,
            std::initializer_list<AccessEvent> events) {
  det.process(events.begin(), nullptr, events.size(), deps);
}

// ------------------------------------------------------------ Algorithm 1

TEST(Detector, FirstWriteIsInit) {
  auto det = make_exact();
  DepMap deps;
  detect(det, deps, {wr(100, 10)});
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_NE(deps.find(key(DepType::kInit, 10, 0)), nullptr);
}

TEST(Detector, ReadAfterWriteBuildsRaw) {
  auto det = make_exact();
  DepMap deps;
  detect(det, deps, {wr(100, 10), rd(100, 20)});
  EXPECT_NE(deps.find(key(DepType::kRaw, 20, 10)), nullptr);
}

TEST(Detector, WriteAfterReadBuildsWar) {
  auto det = make_exact();
  DepMap deps;
  detect(det, deps, {rd(100, 10), wr(100, 20)});
  EXPECT_NE(deps.find(key(DepType::kWar, 20, 10)), nullptr);
}

TEST(Detector, WriteAfterWriteBuildsWaw) {
  auto det = make_exact();
  DepMap deps;
  detect(det, deps, {wr(100, 10), wr(100, 20)});
  EXPECT_NE(deps.find(key(DepType::kWaw, 20, 10)), nullptr);
}

TEST(Detector, InitAndWarCoexistOnOneSink) {
  // Fig. 1 line 1:65: "{WAR 1:67|temp2} {INIT *}" — a first write that is
  // also the sink of a WAR against an earlier read.
  auto det = make_exact();
  DepMap deps;
  detect(det, deps, {rd(100, 67), wr(100, 65)});
  EXPECT_NE(deps.find(key(DepType::kInit, 65, 0)), nullptr);
  EXPECT_NE(deps.find(key(DepType::kWar, 65, 67)), nullptr);
}

TEST(Detector, RarIsIgnored) {
  auto det = make_exact();
  DepMap deps;
  detect(det, deps, {rd(100, 10), rd(100, 20)});
  EXPECT_EQ(deps.size(), 0u);
}

TEST(Detector, ReadWithoutPriorWriteBuildsNothing) {
  auto det = make_exact();
  DepMap deps;
  detect(det, deps, {rd(100, 10)});
  EXPECT_EQ(deps.size(), 0u);
}

TEST(Detector, RawUsesLatestWrite) {
  auto det = make_exact();
  DepMap deps;
  detect(det, deps, {wr(100, 10), wr(100, 11), rd(100, 20)});
  EXPECT_NE(deps.find(key(DepType::kRaw, 20, 11)), nullptr);
  EXPECT_EQ(deps.find(key(DepType::kRaw, 20, 10)), nullptr);
}

TEST(Detector, VarNameComesFromSink) {
  auto det = make_exact();
  DepMap deps;
  detect(det, deps, {ev(100, AccessKind::kWrite, 10, /*var=*/3),
                     ev(100, AccessKind::kRead, 20, /*var=*/4)});
  EXPECT_NE(deps.find(key(DepType::kRaw, 20, 10, /*var=*/4)), nullptr);
}

// ----------------------------------------------------- lifetime analysis

TEST(Detector, FreeRemovesAddressState) {
  auto det = make_exact();
  DepMap deps;
  detect(det, deps, {wr(100, 10), fr(100)});
  detect(det, deps, {rd(100, 20)});  // re-used memory: no stale RAW
  EXPECT_EQ(deps.find(key(DepType::kRaw, 20, 10)), nullptr);
  detect(det, deps, {wr(100, 30)});  // and the next write is an INIT again
  EXPECT_NE(deps.find(key(DepType::kInit, 30, 0)), nullptr);
}

TEST(Detector, FreeRemovesReadStateToo) {
  auto det = make_exact();
  DepMap deps;
  detect(det, deps, {rd(100, 10), fr(100), wr(100, 20)});
  EXPECT_EQ(deps.find(key(DepType::kWar, 20, 10)), nullptr);
}

// ------------------------------------------------- loop-nest attribution

/// Stamps `e` with a nest context and a root-anchored iteration window,
/// which must agree with the context's parent_iter chain (the contract the
/// detector relies on, trace/nest.hpp).
AccessEvent with_nest(AccessEvent e, std::uint32_t ctx,
                      std::initializer_list<std::uint32_t> iters) {
  e.ctx = ctx;
  std::size_t i = 0;
  for (std::uint32_t v : iters) {
    if (i < kNestIters) e.iters[i] = v;
    ++i;
  }
  EXPECT_TRUE(window_matches_context(e)) << "context " << ctx;
  return e;
}

TEST(Detector, SameIterationIsNotCarried) {
  const std::uint32_t ctx = nest_forest().enter(NestForest::kRoot, 1, 0);
  auto det = make_exact();
  DepMap deps;
  detect(det, deps, {with_nest(wr(100, 10), ctx, {5}),
                     with_nest(rd(100, 20), ctx, {5})});
  const DepInfo* info = deps.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->flags & kLoopCarried, 0);
  EXPECT_EQ(info->levels[0].loop, 1u);  // attributed, distance 0
  EXPECT_EQ(info->levels[0].d0, 1u);
  EXPECT_EQ(info->levels[0].carried(), 0u);
}

TEST(Detector, DifferentIterationIsCarried) {
  const std::uint32_t ctx = nest_forest().enter(NestForest::kRoot, 1, 0);
  auto det = make_exact();
  DepMap deps;
  detect(det, deps, {with_nest(wr(100, 10), ctx, {5}),
                     with_nest(rd(100, 20), ctx, {6})});
  const DepInfo* info = deps.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr);
  EXPECT_NE(info->flags & kLoopCarried, 0);
  EXPECT_EQ(info->carried_loop(), 1u);
  EXPECT_EQ(info->carried_level(), 1u);
  EXPECT_EQ(info->levels[0].d1, 1u);
}

TEST(Detector, DifferentEntryOfSameLoopIsNotCarriedByIt) {
  // A loop re-entered from an outer context: same static loop id, same
  // iteration index, different dynamic entries — not carried by that loop.
  NestForest& f = nest_forest();
  const std::uint32_t e1 = f.enter(NestForest::kRoot, 1, 0);
  const std::uint32_t e2 = f.enter(NestForest::kRoot, 1, 0);
  auto det = make_exact();
  DepMap deps;
  detect(det, deps, {with_nest(wr(100, 10), e1, {5}),
                     with_nest(rd(100, 20), e2, {5})});
  const DepInfo* info = deps.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->flags & kLoopCarried, 0);
  EXPECT_NE(info->flags & kCrossLoop, 0);  // no shared dynamic context
  EXPECT_EQ(info->carried_level(), 0u);
}

TEST(Detector, OuterLoopCarriedThroughParentLevel) {
  // The SP pattern: inner loop re-entered per time step; the dependence is
  // carried by the outer loop (the innermost *common* entry), not the
  // inner one.
  NestForest& f = nest_forest();
  const std::uint32_t outer = f.enter(NestForest::kRoot, 1, 0);
  const std::uint32_t in1 = f.enter(outer, 2, 0);
  const std::uint32_t in2 = f.enter(outer, 2, 1);
  auto det = make_exact();
  DepMap deps;
  detect(det, deps, {with_nest(wr(100, 10), in1, {0, 3}),
                     with_nest(rd(100, 20), in2, {1, 3})});
  const DepInfo* info = deps.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr);
  EXPECT_NE(info->flags & kLoopCarried, 0);
  EXPECT_EQ(info->carried_loop(), 1u);  // attributed to the outer loop
  EXPECT_EQ(info->carried_level(), 1u);
  EXPECT_EQ(info->levels[0].d1, 1u);  // time-step distance 1
}

TEST(Detector, SourceEntryBegunInALaterOuterIteration) {
  // The parent-level case with the roles reversed: the source sits in an
  // inner entry begun at outer iteration 1, so its outer counter (1) is
  // only in the forest's parent_iter.  A detector that read it as 0 would
  // put the carried RAW at distance 2 instead of 1, and call the RAW
  // between two entries of the same outer iteration carried.
  NestForest& f = nest_forest();
  const std::uint32_t outer = f.enter(NestForest::kRoot, 1, 0);
  const std::uint32_t first = f.enter(outer, 2, 1);
  const std::uint32_t again = f.enter(outer, 2, 1);  // same outer iteration
  const std::uint32_t next = f.enter(outer, 2, 2);
  auto det = make_exact();
  DepMap deps;
  detect(det, deps, {with_nest(wr(100, 10), first, {1, 5}),
                     with_nest(wr(101, 11), first, {1, 6}),
                     with_nest(rd(101, 21), again, {1, 6}),
                     with_nest(rd(100, 20), next, {2, 5})});
  const DepInfo* carried = deps.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(carried, nullptr);
  EXPECT_EQ(carried->carried_loop(), 1u);
  EXPECT_EQ(carried->levels[0].d1, 1u) << "outer distance 2 - 1";
  EXPECT_EQ(carried->levels[0].d2p, 0u);
  const DepInfo* same_step = deps.find(key(DepType::kRaw, 21, 11));
  ASSERT_NE(same_step, nullptr);
  EXPECT_EQ(same_step->flags & kLoopCarried, 0);
  EXPECT_EQ(same_step->levels[0].d0, 1u);
}

TEST(Detector, GrandparentLoopCarriedThroughThirdLevel) {
  // The h264dec pattern: frames > slices > macroblocks; the reference-frame
  // dependence is carried by the grandparent (frame) loop.
  NestForest& f = nest_forest();
  const std::uint32_t frames = f.enter(NestForest::kRoot, 1, 0);
  const std::uint32_t s1 = f.enter(frames, 2, 0);
  const std::uint32_t s2 = f.enter(frames, 2, 1);
  const std::uint32_t m1 = f.enter(s1, 3, 1);
  const std::uint32_t m2 = f.enter(s2, 3, 1);
  auto det = make_exact();
  DepMap deps;
  detect(det, deps, {with_nest(wr(100, 10), m1, {0, 1, 2}),
                     with_nest(rd(100, 20), m2, {1, 1, 2})});
  const DepInfo* info = deps.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr);
  EXPECT_NE(info->flags & kLoopCarried, 0);
  EXPECT_EQ(info->carried_loop(), 1u);
  EXPECT_EQ(info->carried_level(), 1u);
}

TEST(Detector, InnermostCommonLoopWins) {
  // Both endpoints share the whole nest; the inner iteration differs — the
  // dependence is attributed to the innermost common loop (level 2).
  NestForest& f = nest_forest();
  const std::uint32_t outer = f.enter(NestForest::kRoot, 1, 0);
  const std::uint32_t inner = f.enter(outer, 2, 0);
  auto det = make_exact();
  DepMap deps;
  detect(det, deps, {with_nest(wr(100, 10), inner, {0, 3}),
                     with_nest(rd(100, 20), inner, {0, 4})});
  const DepInfo* info = deps.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->carried_loop(), 2u);
  EXPECT_EQ(info->carried_level(), 2u);
  EXPECT_EQ(info->levels[1].loop, 2u);
}

TEST(Detector, CarriedDistanceBucketed) {
  // Reads of a[i-4]: every carried instance has iteration distance 4,
  // which lands in the >= 2 bucket.
  const std::uint32_t ctx = nest_forest().enter(NestForest::kRoot, 1, 0);
  auto det = make_exact();
  DepMap deps;
  for (std::uint32_t i = 0; i < 16; ++i) {
    if (i >= 4)
      detect(det, deps, {with_nest(rd(100 + (i - 4), 20), ctx, {i})});
    detect(det, deps, {with_nest(wr(100 + i, 10), ctx, {i})});
  }
  const DepInfo* info = deps.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr);
  EXPECT_NE(info->flags & kLoopCarried, 0);
  EXPECT_EQ(info->levels[0].d0, 0u);
  EXPECT_EQ(info->levels[0].d1, 0u);
  EXPECT_EQ(info->levels[0].d2p, 12u);
  EXPECT_EQ(info->min_carried_bucket(), 2u);
}

TEST(Detector, DistanceBucketsAccumulate) {
  const std::uint32_t ctx = nest_forest().enter(NestForest::kRoot, 1, 0);
  auto det = make_exact();
  DepMap deps;
  // One batch: both instances of the key meet in the batch table.
  detect(det, deps, {with_nest(wr(100, 10), ctx, {0}),
                     with_nest(rd(100, 20), ctx, {1}),  // d = 1
                     with_nest(wr(100, 10), ctx, {1}),
                     with_nest(rd(100, 20), ctx, {6})});  // d = 5
  const DepInfo* info = deps.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->levels[0].d1, 1u);
  EXPECT_EQ(info->levels[0].d2p, 1u);
  EXPECT_EQ(info->min_carried_bucket(), 1u);
}

TEST(Detector, DeepNestBeyondWindowIsConservativelyCarried) {
  // Common entry deeper than the event's iteration window: the distance is
  // unknown, so the instance lands in the carried >= 2 bucket rather than
  // being guessed independent.
  NestForest& f = nest_forest();
  std::uint32_t ctx = NestForest::kRoot;
  for (std::uint32_t d = 1; d <= kNestIters + 2; ++d)
    ctx = f.enter(ctx, d, d == 1 ? 0 : 1);
  auto det = make_exact();
  DepMap deps;
  detect(det, deps, {with_nest(wr(100, 10), ctx, {1, 1, 1, 1, 1, 1, 1}),
                     with_nest(rd(100, 20), ctx, {1, 1, 1, 1, 1, 1, 1})});
  const DepInfo* info = deps.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr);
  EXPECT_NE(info->flags & kLoopCarried, 0);
  // Level clamps to the last window row; the bucket is ">= 2 / unknown".
  EXPECT_EQ(info->levels[kNestLevels - 1].d2p, 1u);
}

TEST(DepMap, MergeCombinesBuckets) {
  DepMap a, b;
  a.add(key(DepType::kRaw, 20, 10), kLoopCarried, {1, 1, 3, true});
  b.add(key(DepType::kRaw, 20, 10), kLoopCarried, {1, 1, 1, true});
  a.merge(b);
  const DepInfo* info = a.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->levels[0].d1, 1u);
  EXPECT_EQ(info->levels[0].d2p, 1u);
  EXPECT_EQ(info->min_carried_bucket(), 1u);
}

TEST(Detector, NoLoopContextNoFlags) {
  auto det = make_exact();
  DepMap deps;
  detect(det, deps, {wr(100, 10), rd(100, 20)});
  const DepInfo* info = deps.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->flags, 0);
}

// --------------------------------------------------------- tag gating

TEST(Detector, CollidingAddressStillBuildsDepButNoCarriedFlag) {
  // Modulo collision: addr and addr + slots share a slot.  The dependence
  // record is built (approximate membership), but the loop-context compare
  // is gated off by the address tag, so no carried flag can be fabricated.
  const std::uint32_t ctx = nest_forest().enter(NestForest::kRoot, 1, 0);
  DetectorCore<Signature<SeqSlot>> det{
      Signature<SeqSlot>(128, SigHash::kModulo),
      Signature<SeqSlot>(128, SigHash::kModulo)};
  DepMap deps;
  detect(det, deps, {with_nest(wr(5, 10), ctx, {3})});
  detect(det, deps, {with_nest(rd(5 + 128, 20), ctx, {4})});  // collides
  const DepInfo* info = deps.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr) << "false dependence is still reported";
  EXPECT_EQ(info->flags & kLoopCarried, 0) << "but never classified carried";
  EXPECT_EQ(info->carried_level(), 0u) << "and never attributed";
}

TEST(Detector, SameAddressKeepsCarriedFlagUnderSignature) {
  const std::uint32_t ctx = nest_forest().enter(NestForest::kRoot, 1, 0);
  DetectorCore<Signature<SeqSlot>> det{Signature<SeqSlot>(128),
                                       Signature<SeqSlot>(128)};
  DepMap deps;
  detect(det, deps, {with_nest(wr(5, 10), ctx, {3}),
                     with_nest(rd(5, 20), ctx, {4})});
  const DepInfo* info = deps.find(key(DepType::kRaw, 20, 10));
  ASSERT_NE(info, nullptr);
  EXPECT_NE(info->flags & kLoopCarried, 0);
}

// ------------------------------------------------------------- MT slots

AccessEvent mt_ev(std::uint64_t addr, AccessKind kind, std::uint32_t line,
                  std::uint16_t tid, std::uint64_t ts) {
  AccessEvent e = ev(addr, kind, line);
  e.tid = tid;
  e.ts = ts;
  return e;
}

TEST(Detector, CrossThreadFlagAndThreadIds) {
  DetectorCore<PackedShadowStore<MtSlot>> det{{}, {}};
  DepMap deps;
  detect(det, deps, {mt_ev(100, AccessKind::kWrite, 10, /*tid=*/1, /*ts=*/1),
                     mt_ev(100, AccessKind::kRead, 20, /*tid=*/2, /*ts=*/2)});
  DepKey k = key(DepType::kRaw, 20, 10);
  k.sink_tid = 2;
  k.src_tid = 1;
  const DepInfo* info = deps.find(k);
  ASSERT_NE(info, nullptr);
  EXPECT_NE(info->flags & kCrossThread, 0);
  EXPECT_EQ(info->flags & kReversed, 0);
}

TEST(Detector, TimestampReversalFlagsPotentialRace) {
  DetectorCore<PackedShadowStore<MtSlot>> det{{}, {}};
  DepMap deps;
  // The write reached the worker first but carries a LATER timestamp than
  // the read that follows: access/push atomicity was violated (Sec. V-B).
  detect(det, deps, {mt_ev(100, AccessKind::kWrite, 10, 1, /*ts=*/9),
                     mt_ev(100, AccessKind::kRead, 20, 2, /*ts=*/5)});
  DepKey k = key(DepType::kRaw, 20, 10);
  k.sink_tid = 2;
  k.src_tid = 1;
  const DepInfo* info = deps.find(k);
  ASSERT_NE(info, nullptr);
  EXPECT_NE(info->flags & kReversed, 0);
}

// ------------------------------------------------------------- migration

/// Migration between two detectors on `make`'s store: the old owner
/// forgets the address, the new one continues its history, and a burst
/// mark after the adopt forgets it again — also on a receiver armed from
/// the start, whose log must hold the adopted unit.
template <typename Store>
void check_extract_adopt(Store (*make)(), const char* what) {
  for (const bool sampled : {false, true}) {
    DetectorCore<Store> from(make(), make());
    DetectorCore<Store> to(make(), make(), sampled);
    DepMap deps;
    detect(from, deps, {wr(100, 10), rd(100, 15)});

    auto st = from.extract_state(100);
    EXPECT_TRUE(st.has_read) << what;
    EXPECT_TRUE(st.has_write) << what;
    EXPECT_EQ(st.write_slot.location().line(), 10u) << what;
    EXPECT_EQ(st.read_slot.location().line(), 15u) << what;
    EXPECT_EQ(from.read_signature().occupied(), 0u) << what;
    EXPECT_EQ(from.write_signature().occupied(), 0u) << what;
    EXPECT_FALSE(from.extract_state(100).has_write) << what;
    to.adopt_state(100, st);

    // The new owner continues the history seamlessly: a read builds RAW
    // against the migrated write.
    detect(to, deps, {rd(100, 20)});
    EXPECT_NE(deps.find(key(DepType::kRaw, 20, 10)), nullptr) << what;
    // And the old owner no longer knows the address.
    detect(from, deps, {rd(100, 30)});
    EXPECT_EQ(deps.find(key(DepType::kRaw, 30, 10)), nullptr) << what;
    // A mark after the adopt forgets the adopted state: no RAW from the
    // migrated write, no WAR from the migrated read.
    detect(to, deps, {mark(), rd(100, 40), wr(100, 50)});
    EXPECT_EQ(deps.find(key(DepType::kRaw, 40, 10)), nullptr)
        << what << " sampled=" << sampled;
    EXPECT_EQ(deps.find(key(DepType::kWar, 50, 15)), nullptr)
        << what << " sampled=" << sampled;
    EXPECT_EQ(deps.find(key(DepType::kWar, 50, 20)), nullptr)
        << what << " sampled=" << sampled;
  }
}

TEST(Detector, ExtractAdoptMovesPerAddressState) {
  check_extract_adopt<Signature<SeqSlot>>(
      +[] { return Signature<SeqSlot>(128); }, "signature");
  check_extract_adopt<HashTableRecorder<SeqSlot>>(
      +[] { return HashTableRecorder<SeqSlot>(64); }, "hashtable");
  check_extract_adopt<PackedShadowStore<SeqSlot>>(
      +[] { return PackedShadowStore<SeqSlot>(); }, "packed");
}

// --------------------------------------------------------- run folding

/// A seeded stream over twelve words, four of which share a slot of a
/// 128-slot modulo signature with another, with exact repeats (which
/// dedup_stream folds into runs), frees and burst marks, in nest contexts
/// up to kNestIters + 2 deep.  `tids` > 1 spreads events over threads.
std::vector<AccessEvent> folding_stream(std::uint64_t seed,
                                        std::uint16_t tids) {
  NestForest& f = nest_forest();
  Rng rng(seed);
  // A chain kNestIters + 2 deep with a sibling entry at every level, so
  // pairs of contexts share every common depth, beyond the window too.
  // Each entry begins in a random parent iteration.
  const auto draw = [&] { return static_cast<std::uint32_t>(rng.below(3)); };
  std::vector<std::uint32_t> ctxs{NestForest::kRoot};
  std::uint32_t chain = NestForest::kRoot;
  for (std::uint32_t d = 1; d <= kNestIters + 2; ++d) {
    ctxs.push_back(f.enter(chain, 200 + d, d == 1 ? 0 : draw()));
    chain = f.enter(chain, 200 + d, d == 1 ? 0 : draw());
    ctxs.push_back(chain);
  }
  std::vector<AccessEvent> out;
  while (out.size() < 3000) {
    // 1% burst marks (each costs a packed store a fresh leaf page), 4%
    // frees, and about half of the rest repeats the previous event.
    const std::uint64_t roll = rng.below(200);
    if (roll < 2) {
      AccessEvent mark;
      mark.kind = AccessKind::kBurstMark;
      out.push_back(mark);
      continue;
    }
    // Words 0..7, plus 3 and 5 aliased 128 and 256 slots away.
    const std::uint64_t word =
        rng.below(3) == 0 ? 3 + 2 * rng.below(2) + 128 * (1 + rng.below(2))
                          : rng.below(8);
    if (roll < 10) {
      out.push_back(fr(word));
      continue;
    }
    if (roll < 110 && !out.empty() && !out.back().is_free() &&
        !out.back().is_burst_mark()) {
      out.push_back(out.back());  // an exact repeat: the run grows
      continue;
    }
    AccessEvent e = ev(word, rng.below(3) == 0 ? AccessKind::kWrite
                                               : AccessKind::kRead,
                       10 + static_cast<std::uint32_t>(rng.below(4)),
                       7 + static_cast<std::uint32_t>(rng.below(2)));
    // Only the context's own counter is drawn; the enclosing ones are the
    // parent iterations its chain began in.
    e.ctx = ctxs[rng.below(ctxs.size())];
    std::uint32_t d = f.depth(e.ctx);
    if (d >= 1 && d <= kNestIters) e.iters[d - 1] = draw();
    for (std::uint32_t c = e.ctx; d > 1; c = f.parent(c), --d)
      if (d - 1 <= kNestIters) e.iters[d - 2] = f.parent_iter(c);
    EXPECT_TRUE(window_matches_context(e));
    e.tid = static_cast<std::uint16_t>(rng.below(tids));
    out.push_back(e);
  }
  return out;
}

/// Every field of every merged record, plus instances().
void expect_same_maps(const DepMap& a, const DepMap& b, const char* what) {
  EXPECT_EQ(a.instances(), b.instances()) << what;
  const auto sa = a.sorted();
  const auto sb = b.sorted();
  ASSERT_EQ(sa.size(), sb.size()) << what;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    const auto& [ka, ia] = sa[i];
    const auto& [kb, ib] = sb[i];
    ASSERT_TRUE(ka == kb) << what << " record " << i;
    EXPECT_EQ(ia.count, ib.count) << what << " record " << i;
    EXPECT_EQ(ia.reversed, ib.reversed) << what << " record " << i;
    EXPECT_EQ(ia.locked, ib.locked) << what << " record " << i;
    EXPECT_EQ(ia.flags, ib.flags) << what << " record " << i;
    for (std::size_t d = 0; d < kNestLevels; ++d) {
      EXPECT_EQ(ia.levels[d].loop, ib.levels[d].loop) << what << " level " << d;
      EXPECT_EQ(ia.levels[d].d0, ib.levels[d].d0) << what << " level " << d;
      EXPECT_EQ(ia.levels[d].d1, ib.levels[d].d1) << what << " level " << d;
      EXPECT_EQ(ia.levels[d].d2p, ib.levels[d].d2p) << what << " level " << d;
    }
  }
}

/// Folding a dedup run inside the kernel must give exactly the map of
/// processing its instances one by one: the same RLE stream, fed once
/// expanded (reps == nullptr) and once as runs, in unrelated batch sizes.
/// A detector armed from the start (a sampled run's), which drains its
/// log at every mark, must give that map too, and so must a fresh detector
/// per stretch between marks: a mark forgets every recorded access, and
/// the fresh detectors see no mark and keep no log.
template <typename Store>
void check_run_folding(Store (*make)(), std::uint16_t tids, const char* what) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const std::vector<AccessEvent> stream = folding_stream(seed, tids);
    const RleStream rle = dedup_stream(stream.data(), stream.size());
    const std::vector<AccessEvent> singles = expand_rle(rle);
    ASSERT_LT(rle.events.size() * 3, singles.size() * 2)
        << "the stream must carry runs";

    DetectorCore<Store> one_by_one(make(), make());
    DepMap expanded;
    for (std::size_t i = 0; i < singles.size(); i += 100)
      one_by_one.process(singles.data() + i, nullptr,
                         std::min<std::size_t>(100, singles.size() - i),
                         expanded);

    DetectorCore<Store> folding(make(), make());
    DepMap folded;
    for (std::size_t i = 0; i < rle.events.size(); i += 37)
      folding.process(rle.events.data() + i, rle.reps.data() + i,
                      std::min<std::size_t>(37, rle.events.size() - i),
                      folded);

    DetectorCore<Store> armed(make(), make(), /*sampled=*/true);
    DepMap sampled;
    for (std::size_t i = 0; i < rle.events.size(); i += 53)
      armed.process(rle.events.data() + i, rle.reps.data() + i,
                    std::min<std::size_t>(53, rle.events.size() - i),
                    sampled);

    DepMap stretches;
    std::size_t begin = 0;
    for (std::size_t i = 0; i <= singles.size(); ++i) {
      if (i < singles.size() && !singles[i].is_burst_mark()) continue;
      DetectorCore<Store> fresh(make(), make());
      fresh.process(singles.data() + begin, nullptr, i - begin, stretches);
      begin = i + 1;
    }

    ASSERT_GT(expanded.size(), 0u);
    expect_same_maps(expanded, folded, what);
    expect_same_maps(expanded, sampled, what);
    expect_same_maps(stretches, expanded, what);
  }
}

TEST(RunFolding, MatchesInstanceByInstanceOnEveryStore) {
  check_run_folding<Signature<SeqSlot>>(
      +[] { return Signature<SeqSlot>(128, SigHash::kModulo); }, 1,
      "signature");
  check_run_folding<HashTableRecorder<SeqSlot>>(
      +[] { return HashTableRecorder<SeqSlot>(64); }, 1, "hashtable");
  check_run_folding<PackedShadowStore<SeqSlot>>(
      +[] { return PackedShadowStore<SeqSlot>(); }, 1, "packed");
}

TEST(RunFolding, MatchesInstanceByInstanceWithThreadSlots) {
  check_run_folding<Signature<MtSlot>>(
      +[] { return Signature<MtSlot>(128, SigHash::kModulo); }, 3,
      "signature/mt");
  check_run_folding<HashTableRecorder<MtSlot>>(
      +[] { return HashTableRecorder<MtSlot>(64); }, 3, "hashtable/mt");
  check_run_folding<PackedShadowStore<MtSlot>>(
      +[] { return PackedShadowStore<MtSlot>(); }, 3, "packed/mt");
}

TEST(RunFolding, WriteRunAfterReadCountsEveryInstance) {
  // read x, then five writes to x in one iteration: the run makes INIT
  // once, WAR five times, and four self-WAWs in the same iteration —
  // distance 0 at the loop's level, or "carried, distance unknown" when
  // the loop lies beyond the iteration window.
  NestForest& f = nest_forest();
  constexpr auto kDeep = static_cast<std::uint32_t>(kNestIters + 2);
  for (const std::uint32_t depth : {1u, kDeep}) {
    std::uint32_t ctx = NestForest::kRoot;
    for (std::uint32_t d = 1; d <= depth; ++d)
      ctx = f.enter(ctx, 300 + d, d == 1 ? 0 : 2);
    const std::initializer_list<std::uint32_t> iters = {2, 2, 2, 2, 2, 2, 2};
    std::vector<AccessEvent> stream{with_nest(rd(100, 20), ctx, iters)};
    for (int i = 0; i < 5; ++i)
      stream.push_back(with_nest(wr(100, 10), ctx, iters));
    const RleStream rle = dedup_stream(stream.data(), stream.size());
    ASSERT_EQ(rle.events.size(), 2u);
    ASSERT_EQ(rle.reps[1], 5u);

    auto det = make_exact();
    DepMap deps;
    det.process(rle.events.data(), rle.reps.data(), rle.events.size(), deps);
    EXPECT_EQ(deps.instances(), 10u);
    const DepInfo* init = deps.find(key(DepType::kInit, 10, 0));
    ASSERT_NE(init, nullptr);
    EXPECT_EQ(init->count, 1u);
    const DepInfo* war = deps.find(key(DepType::kWar, 10, 20));
    ASSERT_NE(war, nullptr);
    EXPECT_EQ(war->count, 5u);
    const DepInfo* waw = deps.find(key(DepType::kWaw, 10, 10));
    ASSERT_NE(waw, nullptr);
    EXPECT_EQ(waw->count, 4u);
    if (depth <= kNestIters) {
      EXPECT_EQ(waw->levels[depth - 1].d0, 4u);
      EXPECT_EQ(waw->flags & kLoopCarried, 0);
    } else {
      EXPECT_EQ(waw->levels[kNestLevels - 1].d2p, 4u);
      EXPECT_NE(waw->flags & kLoopCarried, 0);
    }
  }
}

// ------------------------------------------------------ burst-mark log

/// Stores large enough that kLogCap + 1 distinct units fill as many
/// entries: a signature slot per unit, short hash chains.
template <typename Store>
Store make_wide();
template <>
Signature<SeqSlot> make_wide() {
  return Signature<SeqSlot>(std::size_t{1} << 18);
}
template <>
HashTableRecorder<SeqSlot> make_wide() {
  return HashTableRecorder<SeqSlot>(std::size_t{1} << 16);
}
template <>
PackedShadowStore<SeqSlot> make_wide() {
  return {};
}

template <typename Store>
class BurstMarkLog : public ::testing::Test {};
using WideStores = ::testing::Types<Signature<SeqSlot>,
                                    HashTableRecorder<SeqSlot>,
                                    PackedShadowStore<SeqSlot>>;
TYPED_TEST_SUITE(BurstMarkLog, WideStores);

/// Processes one burst mark; every mark leaves both stores empty.
template <typename Store>
void mark_and_check(DetectorCore<Store>& det, DepMap& deps) {
  detect(det, deps, {mark()});
  EXPECT_EQ(det.read_signature().occupied(), 0u);
  EXPECT_EQ(det.write_signature().occupied(), 0u);
}

/// Pages of both stores (packed only; 0 elsewhere).
template <typename Store>
std::size_t pages(DetectorCore<Store>& det) {
  if constexpr (requires { det.read_signature().page_count(); })
    return det.read_signature().page_count() +
           det.write_signature().page_count();
  else
    return 0;
}

TYPED_TEST(BurstMarkLog, ArmedMarksDrainWhatTheBurstWroteAndOverflowClears) {
  using Store = TypeParam;
  constexpr std::size_t kCap = DetectorCore<Store>::kLogCap;
  constexpr auto kLogBytes = static_cast<std::int64_t>(kCap * 8);  // each
  constexpr std::uint64_t kAlias = std::uint64_t{1} << 18;  // signature slots
  const auto charged = [] {
    return MemStats::instance().bytes(MemComponent::kSignatures);
  };
  const std::int64_t base = charged();
  {
    DetectorCore<Store> det(make_wide<Store>(), make_wide<Store>(),
                            /*sampled=*/true);
    const std::int64_t built = charged();
    EXPECT_TRUE(det.armed());
    DepMap deps;
    // A mark with nothing logged allocates no log (every entry store
    // charges is free again after a mark, so the charge is measured there).
    mark_and_check(det, deps);
    EXPECT_EQ(charged(), built) << "no log before the first append";
    // Burst 1: reads, writes, an overwrite, a free and refill (logged
    // twice), a unit whose signature slot a colliding unit fills first
    // (not logged there), a migration out and one in.
    std::vector<AccessEvent> burst;
    for (std::uint64_t u = 0; u < 300; ++u) {
      burst.push_back(wr(u * 3, 10));
      burst.push_back(rd(u * 3 + 1, 11));
      burst.push_back(rd(u * 3, 12));
    }
    burst.push_back(wr(0, 13));
    burst.push_back(fr(3));
    burst.push_back(wr(3, 14));
    burst.push_back(wr(6 + kAlias, 15));
    det.process(burst.data(), nullptr, burst.size(), deps);
    (void)det.extract_state(9);
    const std::uint32_t tag = addr_tag(kAlias + 7);
    det.adopt_state(kAlias + 7, {true, true,
                                 make_slot<SeqSlot>(rd(kAlias + 7, 16), tag, 0),
                                 make_slot<SeqSlot>(wr(kAlias + 7, 17), tag, 0)});
    const std::size_t paged = pages(det);
    mark_and_check(det, deps);
    EXPECT_TRUE(det.armed());
    EXPECT_EQ(pages(det), paged) << "a logged mark keeps every page";
    EXPECT_EQ(charged() - built, 2 * kLogBytes) << "a log per store, once";
    detect(det, deps, {rd(kAlias + 7, 20), wr(6 + kAlias, 21)});
    EXPECT_EQ(deps.find(key(DepType::kRaw, 20, 17)), nullptr);
    EXPECT_NE(deps.find(key(DepType::kInit, 21, 0)), nullptr);
    mark_and_check(det, deps);

    // More new units than the read store's log holds: it overflows, the
    // mark clears both stores whole and re-arms.
    std::vector<AccessEvent> flood;
    for (std::uint64_t u = 0; u <= kCap; ++u) flood.push_back(rd(u, 30));
    det.process(flood.data(), nullptr, flood.size(), deps);
    EXPECT_FALSE(det.armed()) << "kCap + 1 new units must overflow the log";
    mark_and_check(det, deps);
    EXPECT_TRUE(det.armed()) << "the clearing mark re-arms";
    if constexpr (std::is_same_v<Store, PackedShadowStore<SeqSlot>>) {
      EXPECT_EQ(pages(det), 0u) << "the overflowed mark took clear()";
    }
    EXPECT_EQ(charged() - built, 2 * kLogBytes) << "the logs are kept";

    // The re-armed log covers the next burst.
    detect(det, deps, {wr(5, 40), rd(kAlias + 5, 41)});
    const std::size_t repaged = pages(det);
    mark_and_check(det, deps);
    EXPECT_TRUE(det.armed());
    EXPECT_EQ(pages(det), repaged);
  }
  EXPECT_EQ(charged(), base) << "the logs are returned with the detector";
}

TYPED_TEST(BurstMarkLog, UnarmedDetectorClearsAtItsFirstMarkThenLogs) {
  using Store = TypeParam;
  const auto charged = [] {
    return MemStats::instance().bytes(MemComponent::kSignatures);
  };
  const std::int64_t base = charged();
  {
    DetectorCore<Store> det(make_wide<Store>(), make_wide<Store>());
    const std::int64_t built = charged();
    EXPECT_FALSE(det.armed());
    DepMap deps;
    detect(det, deps, {wr(1, 10), rd(2, 11)});
    mark_and_check(det, deps);  // the clear() path
    EXPECT_TRUE(det.armed());
    EXPECT_EQ(charged(), built) << "an unarmed detector logs nothing";
    detect(det, deps, {wr(1, 12), rd(2, 13)});
    mark_and_check(det, deps);  // the logged path
    EXPECT_EQ(charged() - built,
              static_cast<std::int64_t>(2 * DetectorCore<Store>::kLogCap * 8));
    detect(det, deps, {rd(1, 14)});
    EXPECT_EQ(deps.find(key(DepType::kRaw, 14, 12)), nullptr);
  }
  EXPECT_EQ(charged(), base);
}

// ------------------------------------------------------- LCA memo

/// Independent reference: the deepest entry of the source's ancestor chain
/// that is also on the sink's, and the source's counter there — its own
/// when the source context is that entry, else the parent iteration of the
/// chain entry just below it.
NestLca chain_lca(std::uint32_t src, std::uint32_t sink) {
  const NestForest& f = nest_forest();
  std::vector<std::uint32_t> chain;
  for (std::uint32_t c = src; c != NestForest::kRoot; c = f.parent(c))
    chain.push_back(c);
  for (std::uint32_t c = sink; c != NestForest::kRoot; c = f.parent(c))
    for (std::size_t i = 0; i < chain.size(); ++i)
      if (chain[i] == c)
        return NestLca{f.loop(c), f.depth(c),
                       i == 0 ? 0 : f.parent_iter(chain[i - 1]), i == 0};
  return NestLca{};
}

TEST(NestLcaMemo, AgreesWithTheForestWalk) {
  NestForest& f = nest_forest();
  Rng rng(20);
  // A random forest up to 12 deep.
  std::vector<std::uint32_t> nodes{NestForest::kRoot};
  while (nodes.size() < 400) {
    const std::uint32_t parent = nodes[rng.below(nodes.size())];
    if (f.depth(parent) >= 12) continue;
    nodes.push_back(f.enter(parent,
                            400 + static_cast<std::uint32_t>(rng.below(40)),
                            static_cast<std::uint32_t>(rng.below(5))));
  }
  const auto pick = [&] { return nodes[rng.below(nodes.size())]; };
  const auto same = [](NestLca a, NestLca b) {
    return a.loop == b.loop && a.level == b.level &&
           a.src_iter == b.src_iter && a.src_is_lca == b.src_is_lca;
  };

  // Pairs that share one memo slot but not one answer: a memo that skips
  // its key check hands one pair's answer to the other.
  std::map<std::size_t, std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      by_slot;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> colliding;
  while (colliding.size() < 2) {
    const std::uint32_t a = pick();
    const std::uint32_t b = pick();
    auto& bucket = by_slot[NestLcaMemo::slot(a, b)];
    for (const auto& [c, d] : bucket) {
      if (!same(nest_lca(a, b), nest_lca(c, d))) {
        colliding = {{a, b}, {c, d}};
        break;
      }
    }
    bucket.emplace_back(a, b);
  }

  NestLcaMemo memo;
  for (int i = 0; i < 100'000; ++i) {
    std::uint32_t a = pick();
    std::uint32_t b = pick();
    switch (i % 5) {
      case 0: break;  // random pair
      case 1: b = a; break;
      case 2:  // an ancestor pair, either way round
        b = a;
        for (std::uint64_t up = 1 + rng.below(4); up > 0; --up)
          b = f.parent(b);
        if (rng.below(2) != 0) std::swap(a, b);
        break;
      case 3:
        (rng.below(2) != 0 ? a : b) = NestForest::kRoot;
        break;
      case 4:
        std::tie(a, b) = colliding[(i / 5) % 2];
        break;
    }
    const NestLca want = nest_lca(a, b);
    ASSERT_TRUE(same(want, chain_lca(a, b))) << a << ", " << b;
    ASSERT_TRUE(same(memo.lookup(a, b), want)) << "pair " << i;
  }
}

// ------------------------------------------------------------- DepMap

TEST(DepMap, MergesIdenticalInstances) {
  DepMap deps;
  const DepKey k = key(DepType::kRaw, 20, 10);
  deps.add(k, 0);
  deps.add(k, kLoopCarried, {3, 1, 1, true});
  deps.add(k, kCrossThread);
  EXPECT_EQ(deps.size(), 1u);
  const DepInfo* info = deps.find(k);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->count, 3u);
  EXPECT_EQ(info->flags, kLoopCarried | kCrossThread);  // flags accumulate
  EXPECT_EQ(info->carried_loop(), 3u);
  EXPECT_EQ(deps.instances(), 3u);
}

TEST(DepMap, MergeCombinesMaps) {
  DepMap a, b;
  a.add(key(DepType::kRaw, 20, 10), 0);
  b.add(key(DepType::kRaw, 20, 10), kLoopCarried, {9, 1, 1, true});
  b.add(key(DepType::kWar, 21, 11), 0);
  a.merge(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.instances(), 3u);
  EXPECT_EQ(a.find(key(DepType::kRaw, 20, 10))->count, 2u);
  EXPECT_NE(a.find(key(DepType::kRaw, 20, 10))->flags & kLoopCarried, 0);
}

TEST(DepMap, SortedIsDeterministic) {
  DepMap deps;
  deps.add(key(DepType::kWar, 30, 10), 0);
  deps.add(key(DepType::kRaw, 20, 10), 0);
  deps.add(key(DepType::kRaw, 20, 5), 0);
  auto sorted = deps.sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_LE(sorted[0].first.sink_loc, sorted[1].first.sink_loc);
  EXPECT_LE(sorted[1].first.sink_loc, sorted[2].first.sink_loc);
}

TEST(DepMap, FoldMatchesReplayedAdds) {
  // fold() is the detect kernel's flush: one pre-aggregated record per key
  // must land exactly as the one-at-a-time adds it replaces.
  const DepKey k = key(DepType::kRaw, 20, 10);
  DepMap replayed;
  replayed.add(k, kLoopCarried, {3, 2, 1, true});
  replayed.add(k, kLoopCarried, {3, 2, 9, true});
  replayed.add(k, kCrossThread);

  DepMap folded;
  DepInfo rec;
  // Build the pre-aggregated record exactly as the batch accumulator does.
  apply_dep_instance(rec, kLoopCarried, {3, 2, 1, true}, 1);
  apply_dep_instance(rec, kLoopCarried, {3, 2, 9, true}, 1);
  apply_dep_instance(rec, kCrossThread, {}, 1);
  folded.fold(k, rec);

  EXPECT_EQ(folded.instances(), replayed.instances());
  const DepInfo* a = folded.find(k);
  const DepInfo* b = replayed.find(k);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->count, b->count);
  EXPECT_EQ(a->flags, b->flags);
  for (std::size_t d = 0; d < kNestLevels; ++d) {
    EXPECT_EQ(a->levels[d].loop, b->levels[d].loop) << "level " << d;
    EXPECT_EQ(a->levels[d].d0, b->levels[d].d0) << "level " << d;
    EXPECT_EQ(a->levels[d].d1, b->levels[d].d1) << "level " << d;
    EXPECT_EQ(a->levels[d].d2p, b->levels[d].d2p) << "level " << d;
  }
}

TEST(DepMap, FoldCombinesLevelBuckets) {
  // Folding a record on top of an existing entry must sum the per-level
  // buckets and max-join the loop ids — never overwrite either side.
  const DepKey k = key(DepType::kRaw, 20, 10);
  DepMap deps;
  deps.add(k, kLoopCarried, {3, 1, 5, true});  // level 1, d>=2 bucket
  DepInfo rec;
  apply_dep_instance(rec, kLoopCarried, {7, 1, 1, true}, 1);  // level 1, d=1
  apply_dep_instance(rec, 0, {2, 2, 0, true}, 1);             // level 2, d=0
  deps.fold(k, rec);
  const DepInfo* info = deps.find(k);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->count, 3u);
  EXPECT_EQ(info->levels[0].loop, 7u);  // max-join of 3 and 7
  EXPECT_EQ(info->levels[0].d1, 1u);
  EXPECT_EQ(info->levels[0].d2p, 1u);
  EXPECT_EQ(info->levels[1].loop, 2u);
  EXPECT_EQ(info->levels[1].d0, 1u);
  EXPECT_EQ(info->min_carried_bucket(), 1u);
}

TEST(DepMap, MergeFromTransfersAndEmptiesSource) {
  DepMap a, b;
  a.add(key(DepType::kRaw, 20, 10), 0);
  b.add(key(DepType::kRaw, 20, 10), kLoopCarried, {9, 1, 1, true});
  b.add(key(DepType::kWar, 21, 11), 0);
  a.merge_from(b);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.instances(), 0u);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.instances(), 3u);
  EXPECT_EQ(a.find(key(DepType::kRaw, 20, 10))->count, 2u);
  EXPECT_NE(a.find(key(DepType::kRaw, 20, 10))->flags & kLoopCarried, 0);
}

TEST(DepMap, MergeFromKeepsMemChargeExact) {
  MemStats::instance().reset();
  DepMap a, b;
  a.add(key(DepType::kRaw, 20, 10), 0);
  const std::int64_t per_entry =
      MemStats::instance().bytes(MemComponent::kDepMaps);
  ASSERT_GT(per_entry, 0);
  b.add(key(DepType::kRaw, 20, 10), 0);  // duplicate: collapses on merge
  b.add(key(DepType::kWar, 21, 11), 0);  // unique: transfers
  ASSERT_EQ(MemStats::instance().bytes(MemComponent::kDepMaps), 3 * per_entry);

  a.merge_from(b);
  // Two live entries remain, and the transfer never allocated a shadow copy:
  // the high-water mark is the pre-merge three entries, not four.
  EXPECT_EQ(MemStats::instance().bytes(MemComponent::kDepMaps), 2 * per_entry);
  EXPECT_EQ(MemStats::instance().peak(MemComponent::kDepMaps), 3 * per_entry);
}

TEST(DepMap, SortedHandlesInitOnlyEntries) {
  // INIT keys have src_loc == 0 (no source statement); sorting must order
  // them by sink without touching the absent source.
  DepMap deps;
  deps.add(key(DepType::kInit, 12, 0), 0);
  deps.add(key(DepType::kInit, 10, 0), 0);
  deps.add(key(DepType::kInit, 11, 0), 0);
  auto sorted = deps.sorted();
  ASSERT_EQ(sorted.size(), 3u);
  for (std::size_t i = 1; i < sorted.size(); ++i)
    EXPECT_LT(sorted[i - 1].first.sink_loc, sorted[i].first.sink_loc);
  for (const auto& [k, info] : sorted) {
    EXPECT_EQ(k.type, DepType::kInit);
    EXPECT_EQ(k.src_loc, 0u);
  }
}

TEST(DepMap, MoveLeavesSourceEmpty) {
  DepMap a;
  a.add(key(DepType::kRaw, 20, 10), 0);
  DepMap b = std::move(a);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): spec'd empty
  EXPECT_EQ(a.instances(), 0u);
}

TEST(DepMap, ChargesAndReleasesMemory) {
  MemStats::instance().reset();
  {
    DepMap deps;
    deps.add(key(DepType::kRaw, 20, 10), 0);
    EXPECT_GT(MemStats::instance().bytes(MemComponent::kDepMaps), 0);
  }
  EXPECT_EQ(MemStats::instance().bytes(MemComponent::kDepMaps), 0);
}

TEST(DepTypeName, AllNames) {
  EXPECT_STREQ(dep_type_name(DepType::kInit), "INIT");
  EXPECT_STREQ(dep_type_name(DepType::kRaw), "RAW");
  EXPECT_STREQ(dep_type_name(DepType::kWar), "WAR");
  EXPECT_STREQ(dep_type_name(DepType::kWaw), "WAW");
}

}  // namespace
}  // namespace depprof
