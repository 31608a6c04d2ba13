// Tests for the differential-oracle harness stack (ISSUE 3): the exact
// reference oracle, the structured dependence diff, the expectation
// classifier and divergence budget, the ddmin shrinker, the repro corpus
// format, and the replay of every committed repro under tests/corpus.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "oracle/corpus.hpp"
#include "oracle/diff.hpp"
#include "oracle/exact_oracle.hpp"
#include "oracle/harness.hpp"
#include "oracle/shrinker.hpp"
#include "trace/generators.hpp"
#include "trace/nest.hpp"
#include "trace/trace.hpp"

namespace depprof {
namespace {

AccessEvent make_ev(AccessKind kind, std::uint64_t addr, std::uint32_t loc,
                    std::uint32_t var = 1, std::uint16_t tid = 0,
                    std::uint64_t ts = 0) {
  AccessEvent ev;
  ev.kind = kind;
  ev.addr = addr;
  ev.loc = loc;
  ev.var = var;
  ev.tid = tid;
  ev.ts = ts;
  return ev;
}

// --- exact oracle ---------------------------------------------------------

TEST(ExactOracle, BasicDependenceKinds) {
  Trace t;
  t.events.push_back(make_ev(AccessKind::kWrite, 0x100, 11));  // INIT
  t.events.push_back(make_ev(AccessKind::kRead, 0x100, 12));   // RAW 12<-11
  t.events.push_back(make_ev(AccessKind::kWrite, 0x100, 13));  // WAW + WAR
  t.events.push_back(make_ev(AccessKind::kRead, 0x100, 14));   // RAW 14<-13
  t.events.push_back(make_ev(AccessKind::kRead, 0x100, 15));   // RAR: ignored

  const DepMap deps = oracle_dependences(t, false);
  std::size_t init = 0, raw = 0, war = 0, waw = 0;
  for (const auto& [key, info] : deps) {
    switch (key.type) {
      case DepType::kInit: ++init; break;
      case DepType::kRaw: ++raw; break;
      case DepType::kWar: ++war; break;
      case DepType::kWaw: ++waw; break;
    }
  }
  EXPECT_EQ(init, 1u);
  EXPECT_EQ(raw, 3u);  // 12<-11, 14<-13, 15<-13 (distinct sink locations)
  EXPECT_EQ(war, 1u);
  EXPECT_EQ(waw, 1u);
}

TEST(ExactOracle, FreeRestartsLifetime) {
  Trace t;
  t.events.push_back(make_ev(AccessKind::kWrite, 0x100, 11));
  t.events.push_back(make_ev(AccessKind::kFree, 0x100, 0, 0));
  t.events.push_back(make_ev(AccessKind::kWrite, 0x100, 12));  // INIT again

  const DepMap deps = oracle_dependences(t, false);
  for (const auto& [key, info] : deps) EXPECT_NE(key.type, DepType::kWaw);
  EXPECT_EQ(deps.size(), 2u);  // two INITs
}

TEST(ExactOracle, LoopCarriedDistance) {
  const std::uint32_t entry = nest_forest().enter(NestForest::kRoot, 9);
  Trace t;
  for (std::uint32_t i = 0; i < 4; ++i) {
    AccessEvent w = make_ev(AccessKind::kWrite, 0x200, 21);
    w.ctx = entry;
    w.iters[0] = i;
    t.events.push_back(w);
    AccessEvent r = make_ev(AccessKind::kRead, 0x200, 22);
    r.ctx = entry;
    r.iters[0] = i + 1;  // reads the previous iteration's value
    t.events.push_back(r);
  }
  const DepMap deps = oracle_dependences(t, false);
  bool carried_raw = false;
  for (const auto& [key, info] : deps) {
    if (key.type != DepType::kRaw) continue;
    carried_raw = true;
    EXPECT_TRUE(info.flags & kLoopCarried);
    EXPECT_EQ(info.carried_level(), 1u);
    EXPECT_EQ(info.carried_loop(), 9u);
    EXPECT_EQ(info.levels[0].d1, 4u);  // every instance at distance 1
    EXPECT_EQ(info.levels[0].d2p, 0u);
    EXPECT_EQ(info.min_carried_bucket(), 1u);
  }
  EXPECT_TRUE(carried_raw);
}

TEST(ExactOracle, NestedCommonLoopAttribution) {
  // Sink and source in different entries of an inner loop, same iteration
  // gap of the shared outer loop: the dependence is carried by the *outer*
  // loop (level 1), and the inner loop never shows up as carrier.
  NestForest& forest = nest_forest();
  const std::uint32_t outer = forest.enter(NestForest::kRoot, 5);
  const std::uint32_t in1 = forest.enter(outer, 6);
  const std::uint32_t in2 = forest.enter(outer, 6);
  Trace t;
  AccessEvent w = make_ev(AccessKind::kWrite, 0x300, 31);
  w.ctx = in1;
  w.iters[0] = 0;  // outer iteration
  w.iters[1] = 3;  // inner iteration
  t.events.push_back(w);
  AccessEvent r = make_ev(AccessKind::kRead, 0x300, 32);
  r.ctx = in2;
  r.iters[0] = 2;
  r.iters[1] = 3;
  t.events.push_back(r);
  const DepMap deps = oracle_dependences(t, false);
  bool found = false;
  for (const auto& [key, info] : deps) {
    if (key.type != DepType::kRaw) continue;
    found = true;
    EXPECT_TRUE(info.flags & kLoopCarried);
    EXPECT_TRUE(info.flags & kCrossLoop);
    EXPECT_EQ(info.carried_level(), 1u);
    EXPECT_EQ(info.carried_loop(), 5u);
    EXPECT_EQ(info.levels[0].d2p, 1u);  // outer distance 2
    EXPECT_EQ(info.levels[1].carried(), 0u);
  }
  EXPECT_TRUE(found);
}

TEST(ExactOracle, MtCrossThreadAndReversed) {
  Trace t;
  t.events.push_back(make_ev(AccessKind::kWrite, 0x300, 31, 1, /*tid=*/0,
                             /*ts=*/50));
  t.events.push_back(make_ev(AccessKind::kRead, 0x300, 32, 1, /*tid=*/1,
                             /*ts=*/10));  // earlier ts: reversed
  const DepMap deps = oracle_dependences(t, true);
  bool found = false;
  for (const auto& [key, info] : deps) {
    if (key.type != DepType::kRaw) continue;
    found = true;
    EXPECT_EQ(key.sink_tid, 1u);
    EXPECT_EQ(key.src_tid, 0u);
    EXPECT_TRUE(info.flags & kCrossThread);
    EXPECT_TRUE(info.flags & kReversed);
  }
  EXPECT_TRUE(found);
}

// --- diff -----------------------------------------------------------------

TEST(DepDiff, CountsMissingExtraMismatch) {
  DepKey init;
  init.sink_loc = 11;
  init.type = DepType::kInit;
  DepKey raw;
  raw.sink_loc = 12;
  raw.src_loc = 11;
  raw.type = DepType::kRaw;

  DepMap expected;
  expected.add(init, 0);
  expected.add(raw, 0);
  DepMap same;
  same.add(init, 0);
  same.add(raw, 0);
  EXPECT_TRUE(diff_deps(expected, same).identical());

  // Double-count one record and invent one key.
  DepMap mutated;
  mutated.add(init, 0);
  mutated.add(raw, 0);
  mutated.add(raw, 0);
  DepKey invented;
  invented.sink_loc = 999;
  invented.type = DepType::kWaw;
  mutated.add(invented, 0);
  const DepDiff d1 = diff_deps(expected, mutated);
  EXPECT_EQ(d1.extra, 1u);
  EXPECT_EQ(d1.mismatched, 1u);
  EXPECT_FALSE(d1.identical());
  EXPECT_FALSE(format_diff(d1, "oracle", "profiler").empty());

  // Drop one key.
  DepMap dropped;
  dropped.add(init, 0);
  const DepDiff d2 = diff_deps(expected, dropped);
  EXPECT_EQ(d2.missing, 1u);
}

// --- harness --------------------------------------------------------------

TEST(Harness, ClassifiesExpectations) {
  GenParams p;
  p.accesses = 500;
  p.distinct = 100;
  const Trace t = gen_uniform(p);

  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPerfect;
  EXPECT_EQ(classify_expectation(cfg, t), Expectation::kExact);

  cfg.storage = StorageKind::kSignature;
  cfg.sig_hash = SigHash::kModulo;
  cfg.slots = 1u << 20;  // span of 100 strided words fits easily
  EXPECT_EQ(classify_expectation(cfg, t), Expectation::kExact);

  cfg.slots = 8;  // span exceeds the slot count: collisions possible
  EXPECT_EQ(classify_expectation(cfg, t), Expectation::kBounded);

  cfg.sig_hash = SigHash::kMix;
  cfg.slots = 1u << 20;  // mixed hash never proves injectivity
  EXPECT_EQ(classify_expectation(cfg, t), Expectation::kBounded);
}

TEST(Harness, ExactCasesHoldAcrossBackends) {
  GenParams p;
  p.accesses = 3000;
  p.distinct = 400;
  const Trace t = gen_churn(p, 0.2);
  for (const StorageKind storage :
       {StorageKind::kPerfect, StorageKind::kShadow, StorageKind::kHashTable,
        StorageKind::kPacked, StorageKind::kSignature}) {
    ProfilerConfig cfg;
    cfg.storage = storage;
    cfg.workers = 3;
    cfg.chunk_size = 16;
    const CaseOutcome outcome = run_case(t, cfg);
    EXPECT_TRUE(outcome.ok) << storage_kind_name(storage) << "\n"
                            << outcome.detail;
  }
}

TEST(Harness, BoundedBudgetGrowsWithPredictedFpr) {
  GenParams p;
  p.accesses = 2000;
  p.distinct = 1000;
  const Trace t = gen_uniform(p);
  ProfilerConfig small, large;
  small.slots = 256;
  large.slots = 1u << 20;
  const DivergenceBudget b_small = divergence_budget(small, t, 100);
  const DivergenceBudget b_large = divergence_budget(large, t, 100);
  EXPECT_GT(b_small.fpr, b_large.fpr);
  EXPECT_GE(b_small.max_divergent_keys, b_large.max_divergent_keys);
}

// --- overhead-budget sampling ---------------------------------------------

TEST(Harness, SampleStreamIsIdentityAtSkipZero) {
  GenParams p;
  p.accesses = 2000;
  p.distinct = 128;
  const Trace t = gen_loop(p, 24, true);
  const Trace s = sample_stream(t, 8, 0);
  ASSERT_EQ(s.events.size(), t.events.size());
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    EXPECT_EQ(std::memcmp(&s.events[i], &t.events[i], sizeof(AccessEvent)), 0)
        << "event " << i << " diverged";
  }
}

TEST(Harness, SampleStreamDropsIterationsAndClosesGaps) {
  GenParams p;
  p.accesses = 2000;
  p.distinct = 128;
  const Trace t = gen_loop(p, 24, true);
  const Trace s = sample_stream(t, 1, 1);  // 50% duty, burst of one iteration
  ASSERT_LT(s.events.size(), t.events.size());
  // Every marker must directly precede a kept access (gap-close rule), and
  // at 50% duty with >1 outermost iteration at least one gap must close.
  std::size_t markers = 0;
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    if (!s.events[i].is_burst_mark()) continue;
    ++markers;
    ASSERT_LT(i + 1, s.events.size()) << "trailing marker";
    EXPECT_FALSE(s.events[i + 1].is_burst_mark());
  }
  EXPECT_GE(markers, 1u);
}

TEST(Harness, SampledOracleSatisfiesSubsetContract) {
  GenParams p;
  p.accesses = 4000;
  p.distinct = 256;
  for (const Trace& t : {gen_loop(p, 32, true), gen_churn(p, 0.25, 0, 3)}) {
    const DepMap full = oracle_dependences(t, false);
    for (const auto [burst, skip] : {std::pair{4u, 4u}, std::pair{1u, 9u}}) {
      const Trace s = sample_stream(t, burst, skip);
      const DepMap sampled = oracle_dependences(s, false);
      const SubsetReport rep = check_sampled_subset(full, sampled);
      EXPECT_TRUE(rep.ok) << "burst=" << burst << " skip=" << skip << "\n"
                          << rep.detail;
      EXPECT_LE(rep.recall, 1.0);
      EXPECT_LE(rep.sampled_edges, rep.full_edges);
    }
  }
}

TEST(Harness, SubsetCheckFlagsInventedEvidence) {
  // full: one RAW instance.  sampled-candidate A invents a second instance
  // of the same edge; candidate B invents a brand-new edge.  Both must be
  // flagged — sampling may only lose evidence.
  Trace base;
  base.events.push_back(make_ev(AccessKind::kWrite, 0x100, 1));
  base.events.push_back(make_ev(AccessKind::kRead, 0x100, 2));
  const DepMap full = oracle_dependences(base, false);

  Trace doubled = base;
  doubled.events.push_back(make_ev(AccessKind::kRead, 0x100, 2));
  const SubsetReport count_rep =
      check_sampled_subset(full, oracle_dependences(doubled, false));
  EXPECT_FALSE(count_rep.ok);
  EXPECT_NE(count_rep.detail.find("instance count"), std::string::npos);

  Trace foreign = base;
  foreign.events.push_back(make_ev(AccessKind::kWrite, 0x200, 3));
  foreign.events.push_back(make_ev(AccessKind::kRead, 0x200, 4));
  const SubsetReport absent_rep =
      check_sampled_subset(full, oracle_dependences(foreign, false));
  EXPECT_FALSE(absent_rep.ok);
  EXPECT_NE(absent_rep.detail.find("absent"), std::string::npos);
}

TEST(Harness, SampledCasesHoldAcrossBackends) {
  GenParams p;
  p.accesses = 3000;
  p.distinct = 256;
  const Trace t = gen_loop(p, 32, true);
  for (const StorageKind storage :
       {StorageKind::kPerfect, StorageKind::kShadow, StorageKind::kHashTable,
        StorageKind::kPacked, StorageKind::kSignature}) {
    ProfilerConfig cfg;
    cfg.storage = storage;
    cfg.workers = 3;
    cfg.chunk_size = 16;
    cfg.sampling_burst = 2;
    cfg.sampling_skip = 3;
    const CaseOutcome outcome = run_case(t, cfg);
    EXPECT_TRUE(outcome.ok) << storage_kind_name(storage) << "\n"
                            << outcome.detail;
  }
}

// --- shrinker -------------------------------------------------------------

TEST(Shrinker, MinimizesToThePlantedKernel) {
  // A big trace where the "failure" is the presence of one specific
  // write-read pair; ddmin should strip everything else.
  GenParams p;
  p.accesses = 400;
  p.distinct = 64;
  Trace t = gen_uniform(p);
  t.events.insert(t.events.begin() + 123,
                  make_ev(AccessKind::kWrite, 0xdead0, 77));
  t.events.insert(t.events.begin() + 301,
                  make_ev(AccessKind::kRead, 0xdead0, 78));

  const FailurePredicate planted = [](const Trace& trace,
                                      const ProfilerConfig&) {
    const DepMap deps = oracle_dependences(trace, false);
    for (const auto& [key, info] : deps)
      if (key.type == DepType::kRaw && key.sink_loc == 78 &&
          key.src_loc == 77)
        return true;
    return false;
  };

  ProfilerConfig cfg;
  ShrinkStats st;
  const Trace minimized = shrink_trace(t, cfg, planted, 10'000, &st);
  EXPECT_EQ(minimized.size(), 2u);
  EXPECT_TRUE(planted(minimized, cfg));
  EXPECT_EQ(st.initial_events, 402u);
  EXPECT_EQ(st.final_events, 2u);
  EXPECT_GT(st.evaluations, 0u);
}

TEST(Shrinker, FlattensNestWhenFailureSurvivesIt) {
  // The planted failure is an innermost-carried RAW: write and read share
  // one dynamic entry of the inner loop but sit in different iterations of
  // it.  That survives flattening (same entry stays same entry, the
  // innermost iteration moves to slot 0), so the shrinker must hand back a
  // depth-1 repro.
  NestForest& forest = nest_forest();
  const std::uint32_t outer = forest.enter(NestForest::kRoot, 80);
  const std::uint32_t inner = forest.enter(outer, 81);
  Trace t;
  AccessEvent w = make_ev(AccessKind::kWrite, 0xbeef0, 91);
  w.ctx = inner;
  w.iters[0] = 2;
  w.iters[1] = 0;
  AccessEvent r = make_ev(AccessKind::kRead, 0xbeef0, 92);
  r.ctx = inner;
  r.iters[0] = 2;
  r.iters[1] = 1;
  t.events.push_back(w);
  t.events.push_back(r);

  const FailurePredicate carried_raw = [](const Trace& trace,
                                          const ProfilerConfig&) {
    const DepMap deps = oracle_dependences(trace, false);
    for (const auto& [key, info] : deps)
      if (key.type == DepType::kRaw && (info.flags & kLoopCarried) != 0 &&
          info.carried_loop() == 81)
        return true;
    return false;
  };

  ProfilerConfig cfg;
  const Trace flat = shrink_trace(t, cfg, carried_raw, 10'000);
  ASSERT_EQ(flat.size(), 2u);
  EXPECT_TRUE(carried_raw(flat, cfg));
  for (const auto& ev : flat.events) {
    EXPECT_EQ(forest.depth(ev.ctx), 1u);
    EXPECT_EQ(forest.loop(ev.ctx), 81u);  // innermost loop kept
    EXPECT_EQ(ev.iters[1], 0u);
  }
  // The innermost iteration moved to window slot 0.
  EXPECT_EQ(flat.events[0].iters[0], 0u);
  EXPECT_EQ(flat.events[1].iters[0], 1u);
}

TEST(Shrinker, KeepsNestWhenFlatteningLosesTheFailure) {
  // Here the failure is outer-level attribution: a dependence carried by
  // the *outer* loop of a two-deep nest.  Flattening drops the outer level,
  // so the rung's candidate no longer fails and the nest must be kept.
  NestForest& forest = nest_forest();
  const std::uint32_t outer = forest.enter(NestForest::kRoot, 85);
  const std::uint32_t in1 = forest.enter(outer, 86);
  const std::uint32_t in2 = forest.enter(outer, 86);
  Trace t;
  AccessEvent w = make_ev(AccessKind::kWrite, 0xfeed0, 95);
  w.ctx = in1;
  w.iters[0] = 0;
  AccessEvent r = make_ev(AccessKind::kRead, 0xfeed0, 96);
  r.ctx = in2;
  r.iters[0] = 1;
  t.events.push_back(w);
  t.events.push_back(r);

  const FailurePredicate outer_carried = [&](const Trace& trace,
                                             const ProfilerConfig&) {
    const DepMap deps = oracle_dependences(trace, false);
    for (const auto& [key, info] : deps)
      if (key.type == DepType::kRaw && info.carried_loop() == 85) return true;
    return false;
  };

  ProfilerConfig cfg;
  const Trace kept = shrink_trace(t, cfg, outer_carried, 10'000);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_TRUE(outer_carried(kept, cfg));
  EXPECT_EQ(forest.depth(kept.events[0].ctx), 2u);
}

TEST(Shrinker, ConfigLadderSimplifiesWhenFailureIsConfigIndependent) {
  ProfilerConfig cfg;
  cfg.workers = 8;
  cfg.chunk_size = 1024;
  cfg.queue = QueueKind::kLockFreeMpmc;
  cfg.wait = WaitKind::kPark;
  cfg.load_balance.enabled = true;
  cfg.modulo_routing = true;
  Trace t;
  t.events.push_back(make_ev(AccessKind::kWrite, 0x100, 11));

  const FailurePredicate always = [](const Trace&, const ProfilerConfig&) {
    return true;
  };
  const ProfilerConfig simple = shrink_config(t, cfg, always);
  EXPECT_EQ(simple.workers, 1u);
  EXPECT_EQ(simple.chunk_size, 1u);
  EXPECT_EQ(simple.queue, QueueKind::kMutex);
  EXPECT_EQ(simple.wait, WaitKind::kSpin);
  EXPECT_FALSE(simple.load_balance.enabled);
  EXPECT_FALSE(simple.modulo_routing);
  // Likewise the front-end reduction layers: a config-independent failure
  // must shrink to a repro with both dedup and pack off.
  EXPECT_FALSE(simple.dedup);
  EXPECT_FALSE(simple.pack);
}

TEST(Shrinker, KeepsConfigWhenSimplificationLosesTheFailure) {
  ProfilerConfig cfg;
  cfg.workers = 8;
  Trace t;
  t.events.push_back(make_ev(AccessKind::kWrite, 0x100, 11));
  const FailurePredicate needs_workers =
      [](const Trace&, const ProfilerConfig& c) { return c.workers >= 4; };
  const ProfilerConfig kept = shrink_config(t, cfg, needs_workers);
  EXPECT_EQ(kept.workers, 8u);
}

// --- corpus format --------------------------------------------------------

ReproCase sample_repro() {
  ReproCase r;
  r.note = "round-trip sample";
  r.cfg.storage = StorageKind::kShadow;
  r.cfg.slots = 4096;
  r.cfg.sig_hash = SigHash::kMix;
  r.cfg.mt_targets = true;
  r.cfg.workers = 3;
  r.cfg.queue = QueueKind::kLockFreeMpmc;
  r.cfg.wait = WaitKind::kYield;
  r.cfg.chunk_size = 7;
  r.cfg.queue_capacity = 32;
  r.cfg.modulo_routing = true;
  r.cfg.dedup = false;  // non-default: the round trip must keep it
  r.cfg.pack = false;
  r.cfg.load_balance.enabled = true;
  r.cfg.load_balance.sample_shift = 2;
  r.cfg.load_balance.eval_interval_chunks = 17;
  r.cfg.load_balance.imbalance_threshold = 1.5;
  r.cfg.load_balance.top_k = 3;
  r.cfg.load_balance.max_rounds = 9;
  r.cfg.budget = 0.5;  // non-default sampling: the file must carry the axes
  r.cfg.sampling_burst = 4;
  r.cfg.sampling_skip = 3;
  AccessEvent ev = make_ev(AccessKind::kWrite, 0xabc0, 41, 2, 1, 99);
  ev.flags = kInLockRegion;
  ev.ctx = nest_forest().enter(NestForest::kRoot, 5);
  ev.iters[0] = 7;
  r.trace.events.push_back(ev);
  r.trace.events.push_back(make_ev(AccessKind::kFree, 0xabc0, 0, 0, 1, 100));
  return r;
}

/// The version, config and lb lines of a default repro: the prefix a
/// hand-written case appends its directives to.
std::string default_header() { return format_repro(ReproCase{}); }

TEST(Corpus, FormatParseRoundTrip) {
  const ReproCase original = sample_repro();
  const std::string text = format_repro(original);
  ReproCase back;
  std::string error;
  ASSERT_TRUE(parse_repro(back, text, &error)) << error;
  // Every key survives: the re-rendered file is byte-identical.
  EXPECT_EQ(format_repro(back), text);

  EXPECT_EQ(back.note, original.note);
  EXPECT_EQ(back.cfg.storage, original.cfg.storage);
  EXPECT_EQ(back.cfg.slots, original.cfg.slots);
  EXPECT_EQ(back.cfg.sig_hash, original.cfg.sig_hash);
  EXPECT_EQ(back.cfg.mt_targets, original.cfg.mt_targets);
  EXPECT_EQ(back.cfg.workers, original.cfg.workers);
  EXPECT_EQ(back.cfg.queue, original.cfg.queue);
  EXPECT_EQ(back.cfg.wait, original.cfg.wait);
  EXPECT_EQ(back.cfg.chunk_size, original.cfg.chunk_size);
  EXPECT_EQ(back.cfg.queue_capacity, original.cfg.queue_capacity);
  EXPECT_EQ(back.cfg.modulo_routing, original.cfg.modulo_routing);
  EXPECT_EQ(back.cfg.dedup, original.cfg.dedup);
  EXPECT_EQ(back.cfg.pack, original.cfg.pack);
  EXPECT_DOUBLE_EQ(back.cfg.budget, original.cfg.budget);
  EXPECT_EQ(back.cfg.sampling_burst, original.cfg.sampling_burst);
  EXPECT_EQ(back.cfg.sampling_skip, original.cfg.sampling_skip);
  EXPECT_EQ(back.cfg.races, original.cfg.races);
  EXPECT_EQ(back.cfg.load_balance.enabled, original.cfg.load_balance.enabled);
  EXPECT_EQ(back.cfg.load_balance.eval_interval_chunks,
            original.cfg.load_balance.eval_interval_chunks);
  EXPECT_EQ(back.cfg.load_balance.top_k, original.cfg.load_balance.top_k);
  ASSERT_EQ(back.trace.size(), original.trace.size());
  const AccessEvent& ev = back.trace.events[0];
  EXPECT_EQ(ev.addr, 0xabc0u);
  EXPECT_EQ(ev.ts, 99u);
  EXPECT_EQ(ev.flags, kInLockRegion);
  // The nest table re-interns on parse: the context is a (possibly new)
  // forest node with the same shape.
  ASSERT_NE(ev.ctx, NestForest::kRoot);
  EXPECT_EQ(nest_forest().loop(ev.ctx), 5u);
  EXPECT_EQ(nest_forest().depth(ev.ctx), 1u);
  EXPECT_EQ(ev.iters[0], 7u);
  EXPECT_TRUE(back.trace.events[1].is_free());
}

TEST(Corpus, OnlyTheCurrentVersionParses) {
  // The body is a valid v8 file; under any older version line it must be
  // rejected, never reinterpreted.
  const std::string header = default_header();
  const std::string body = header.substr(header.find('\n') + 1);
  ReproCase out;
  std::string error;
  ASSERT_TRUE(parse_repro(out, header, &error)) << error;
  for (int v = 1; v <= 7; ++v) {
    const std::string text =
        "depfuzz-repro v" + std::to_string(v) + "\n" + body;
    EXPECT_FALSE(parse_repro(out, text, &error)) << "v" << v;
    EXPECT_NE(error.find("depfuzz-repro v8"), std::string::npos) << error;
  }
}

TEST(Corpus, EveryKeyIsRequired) {
  // Table-driven over what format_repro writes: dropping any one key of the
  // config, lb or sched line must fail to parse, naming that key.  A repro
  // that could omit a key would replay under whatever its default becomes.
  ReproCase r = sample_repro();
  r.sched = true;
  r.sched_algo = sched::Algo::kPct;
  const std::string text = format_repro(r);
  std::size_t dropped = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line = text.substr(pos, eol - pos);
    const bool keyed = line.rfind("config ", 0) == 0 ||
                       line.rfind("lb ", 0) == 0 ||
                       line.rfind("sched ", 0) == 0;
    std::size_t tok = line.find(' ');
    while (keyed && tok != std::string::npos) {
      const std::size_t end = line.find(' ', tok + 1);
      const std::string token = line.substr(tok + 1, end - tok - 1);
      const std::string key = token.substr(0, token.find('='));
      std::string broken = text;
      const std::size_t stop = end == std::string::npos ? line.size() : end;
      broken.erase(pos + tok, stop - tok);  // " key=value"
      ReproCase out;
      std::string error;
      EXPECT_FALSE(parse_repro(out, broken, &error)) << "dropped " << key;
      EXPECT_NE(error.find("missing key '" + key + "='"), std::string::npos)
          << "dropped " << key << ": " << error;
      ++dropped;
      tok = end;
    }
    pos = eol + 1;
  }
  EXPECT_EQ(dropped, 16u + 6u + 2u);  // config + lb + sched keys
  // The lb line as a whole is required too.
  const std::string header = default_header();
  ReproCase out;
  std::string error;
  EXPECT_FALSE(
      parse_repro(out, header.substr(0, header.find("\nlb ") + 1), &error));
  EXPECT_NE(error.find("missing lb line"), std::string::npos) << error;
}

TEST(Corpus, NestDirectivesRebuildChains) {
  const std::string text = default_header() +
                           "nest id=1 parent=0 loop=50\n"
                           "nest id=2 parent=1 loop=60\n"
                           "ev W addr=0x100 loc=11 ctx=2 iters=3,4,0,0,0,0,0\n"
                           "ev R addr=0x100 loc=12 ctx=1 iters=3,0,0,0,0,0,0\n";
  ReproCase out;
  std::string error;
  ASSERT_TRUE(parse_repro(out, text, &error)) << error;
  ASSERT_EQ(out.trace.size(), 2u);
  const NestForest& forest = nest_forest();
  const AccessEvent& inner = out.trace.events[0];
  const AccessEvent& outer = out.trace.events[1];
  EXPECT_EQ(forest.loop(inner.ctx), 60u);
  EXPECT_EQ(forest.depth(inner.ctx), 2u);
  EXPECT_EQ(forest.parent(inner.ctx), outer.ctx);
  EXPECT_EQ(forest.loop(outer.ctx), 50u);
  EXPECT_EQ(inner.iters[1], 4u);
}

TEST(Corpus, RejectsMalformedNests) {
  const std::string header = default_header();
  ReproCase out;
  std::string error;
  // Undeclared parent.
  EXPECT_FALSE(parse_repro(out, header + "nest id=2 parent=1 loop=60\n",
                           &error));
  // Duplicate id.
  EXPECT_FALSE(parse_repro(out,
                           header + "nest id=1 parent=0 loop=50\n"
                                    "nest id=1 parent=0 loop=60\n",
                           &error));
  // Event referencing an undeclared context.
  EXPECT_FALSE(parse_repro(out, header + "ev W addr=0x1 ctx=7\n", &error));
  // Events carry their nest as ctx=/iters=; loops= triples are not a key.
  EXPECT_FALSE(parse_repro(
      out, header + "ev W addr=0x1 loops=7:1:0,0:0:0,0:0:0\n", &error));
  EXPECT_NE(error.find("loops="), std::string::npos) << error;
  // nest directives must carry parent= and loop= explicitly: a defaulted
  // value would silently re-shape the nest.
  EXPECT_FALSE(parse_repro(out, header + "nest id=1 loop=5\n", &error));
  EXPECT_NE(error.find("parent="), std::string::npos);
  EXPECT_FALSE(parse_repro(out, header + "nest id=1 parent=0\n", &error));
  EXPECT_NE(error.find("loop="), std::string::npos);
}

TEST(Corpus, StrictParserRejectsUnknownInput) {
  const std::string header = default_header();
  ReproCase out;
  std::string error;
  EXPECT_FALSE(parse_repro(out, "", &error));
  EXPECT_FALSE(parse_repro(out, "something else\n", &error));
  EXPECT_FALSE(parse_repro(out, header + "frobnicate 1\n", &error));
  EXPECT_NE(error.find("frobnicate"), std::string::npos);
  std::string bogus = header;
  bogus.insert(bogus.find("\nlb "), " bogus_key=1");
  EXPECT_FALSE(parse_repro(out, bogus, &error));
  EXPECT_NE(error.find("bogus_key=1"), std::string::npos);
  std::string warehouse = header;
  warehouse.replace(warehouse.find("storage=signature"), 17,
                    "storage=warehouse");
  EXPECT_FALSE(parse_repro(out, warehouse, &error));
  EXPECT_FALSE(parse_repro(out, header + "ev X addr=0x1\n", &error));
  // There is one detect kernel, so batch= is not a config key.
  std::string batch = header;
  batch.insert(batch.find("\nlb "), " batch=1");
  EXPECT_FALSE(parse_repro(out, batch, &error));
  EXPECT_NE(error.find("batch=1"), std::string::npos);
  // Missing the config line entirely.
  EXPECT_FALSE(parse_repro(out, "depfuzz-repro v8\nnote hi\n", &error));
  EXPECT_NE(error.find("missing config line"), std::string::npos);
}

TEST(Corpus, RaceModeConfigRule) {
  // The config rule mirrors races_config_ok(): race mode with sampling or
  // a sequential target could never have been recorded, so it must not
  // lint clean.
  ReproCase r;
  r.cfg.storage = StorageKind::kPacked;
  r.cfg.mt_targets = true;
  r.cfg.races = true;
  ReproCase out;
  std::string error;
  ASSERT_TRUE(parse_repro(out, format_repro(r), &error)) << error;
  EXPECT_EQ(out.cfg.storage, StorageKind::kPacked);
  EXPECT_TRUE(out.cfg.races);
  ReproCase budget = r;
  budget.cfg.budget = 0.5;
  EXPECT_FALSE(parse_repro(out, format_repro(budget), &error));
  EXPECT_NE(error.find("races=1"), std::string::npos);
  ReproCase skip = r;
  skip.cfg.sampling_skip = 4;
  EXPECT_FALSE(parse_repro(out, format_repro(skip), &error));
  ReproCase sequential = r;
  sequential.cfg.mt_targets = false;
  EXPECT_FALSE(parse_repro(out, format_repro(sequential), &error));
  // races=0 carries no preconditions.
  ReproCase off = skip;
  off.cfg.races = false;
  off.cfg.mt_targets = false;
  ASSERT_TRUE(parse_repro(out, format_repro(off), &error)) << error;
  EXPECT_FALSE(out.cfg.races);
}

TEST(Corpus, StrictParserRejectsAmbiguousShape) {
  const std::string header = default_header();
  const std::string config = header.substr(
      header.find("config "), header.find("\nlb ") - header.find("config ") + 1);
  const std::string lb = header.substr(header.find("lb "));
  ReproCase out;
  std::string error;
  // A duplicate key within one line would silently last-write-win.
  std::string twice = header;
  twice.insert(twice.find("\nlb "), " storage=shadow");
  EXPECT_FALSE(parse_repro(out, twice, &error));
  EXPECT_NE(error.find("duplicate key 'storage'"), std::string::npos);
  EXPECT_NE(error.find("line 2"), std::string::npos);
  EXPECT_FALSE(parse_repro(out, header + "ev W addr=0x1 addr=0x2\n", &error));
  EXPECT_NE(error.find("duplicate key 'addr'"), std::string::npos);
  EXPECT_NE(error.find("line 4"), std::string::npos);
  // A second config (or lb) line would retroactively rewrite the first.
  EXPECT_FALSE(parse_repro(out, header + config, &error));
  EXPECT_NE(error.find("duplicate config line"), std::string::npos);
  EXPECT_FALSE(parse_repro(out, header + lb, &error));
  EXPECT_NE(error.find("duplicate lb line"), std::string::npos);
  // Every directive except the provenance note needs the config line first.
  EXPECT_FALSE(parse_repro(
      out, "depfuzz-repro v8\nev W addr=0x1\n" + config + lb, &error));
  EXPECT_NE(error.find("before the config line"), std::string::npos);
  EXPECT_NE(error.find("line 2"), std::string::npos);
  EXPECT_FALSE(parse_repro(
      out, "depfuzz-repro v8\nnest id=1 parent=0 loop=5\n" + config + lb,
      &error));
  EXPECT_NE(error.find("before the config line"), std::string::npos);
  EXPECT_FALSE(parse_repro(out, "depfuzz-repro v8\n" + lb + config, &error));
  EXPECT_NE(error.find("before the config line"), std::string::npos);
}

// --- committed corpus replays clean ---------------------------------------

TEST(Corpus, EveryCommittedReproReplaysClean) {
  const std::filesystem::path dir = DEPFUZZ_CORPUS_DIR;
  std::size_t seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".repro") continue;
    ++seen;
    ReproCase repro;
    std::string error;
    ASSERT_TRUE(read_repro(repro, entry.path().string(), &error))
        << entry.path() << ": " << error;
    const CaseOutcome outcome = run_case(repro.trace, repro.cfg);
    EXPECT_TRUE(outcome.ok) << entry.path() << " (" << repro.note << ")\n"
                            << outcome.detail;
  }
  EXPECT_GE(seen, 3u);  // the hand-written seeds must stay present
}

}  // namespace
}  // namespace depprof
