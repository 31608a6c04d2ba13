// Regression tests for fixed defects.  The ISSUE 3 fuzz findings: the
// word-span expansion of unaligned lifetime events, load-balancer
// statistics that never decayed, the trace reader trusting a hostile
// header, and shift-width UB in the route-stage sampler.  The ISSUE 4
// bugfixes: the end-of-run merge double-counting DepMap memory, the
// redistribution override table outliving its usefulness, and the
// hot-address spreading cursor skipping the least-loaded worker.  The
// detach/record race regression lives in stress_test.cpp (DetachUnderLoad)
// where TSan watches it.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/mem_stats.hpp"
#include "core/pipeline.hpp"
#include "core/profiler.hpp"
#include "instrument/dedup.hpp"
#include "instrument/runtime.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace depprof {
namespace {

// --- satellite 1: record_free must cover every touched word ---------------

std::set<std::uint64_t> freed_words(const Trace& trace) {
  std::set<std::uint64_t> words;
  for (const AccessEvent& ev : trace.events)
    if (ev.is_free()) words.insert(word_addr(ev.addr));
  return words;
}

TEST(FreeSpanRegression, UnalignedFreeCoversEveryTouchedWord) {
  alignas(8) static char buf[16];
  Runtime& rt = Runtime::instance();
  TraceRecorder rec;
  rt.attach(&rec);
  // Bytes buf[2..5] straddle the boundary between word(buf) and word(buf+4):
  // a span derived from the byte count alone (one word for four bytes) would
  // leave the second word's signature state alive.
  rt.record_free(&buf[2], 4);
  rt.detach();

  const std::set<std::uint64_t> words = freed_words(rec.trace());
  EXPECT_EQ(words.size(), 2u);
  EXPECT_TRUE(words.count(word_addr(reinterpret_cast<std::uint64_t>(&buf[2]))));
  EXPECT_TRUE(words.count(word_addr(reinterpret_cast<std::uint64_t>(&buf[5]))));
  rt.reset();
}

TEST(FreeSpanRegression, ZeroSizeFreeStillClearsBaseWord) {
  alignas(8) static char buf[8];
  Runtime& rt = Runtime::instance();
  TraceRecorder rec;
  rt.attach(&rec);
  rt.record_free(&buf[1], 0);
  rt.detach();

  const std::set<std::uint64_t> words = freed_words(rec.trace());
  EXPECT_EQ(words.size(), 1u);
  EXPECT_TRUE(words.count(word_addr(reinterpret_cast<std::uint64_t>(&buf[1]))));
  rt.reset();
}

TEST(FreeSpanRegression, WriteAfterUnalignedFreeIsInitNotWaw) {
  alignas(8) static int cells[4];
  Runtime& rt = Runtime::instance();
  TraceRecorder rec;
  rt.attach(&rec);
  rt.record(&cells[1], 4, 1, 10, 1, /*is_write=*/true);
  // Free bytes [cells+2, cells+6): unaligned, crossing into cells[1]'s word.
  rt.record_free(reinterpret_cast<char*>(cells) + 2, 4);
  rt.record(&cells[1], 4, 1, 20, 1, /*is_write=*/true);
  rt.detach();
  rt.reset();

  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPacked;
  auto profiler = make_serial_profiler(cfg);
  replay(rec.trace(), *profiler);

  const std::uint32_t second_write = SourceLocation(1, 20).packed();
  bool init_after_free = false;
  for (const auto& [key, info] : profiler->dependences()) {
    EXPECT_NE(key.type, DepType::kWaw)
        << "lifetime event failed to clear the written word";
    if (key.type == DepType::kInit && key.sink_loc == second_write)
      init_after_free = true;
  }
  EXPECT_TRUE(init_after_free);
}

// --- satellite 2: load-balancer statistics must decay ---------------------

ProfilerConfig balanced_cfg(unsigned workers) {
  ProfilerConfig cfg;
  cfg.workers = workers;
  cfg.load_balance.enabled = true;
  cfg.load_balance.sample_shift = 0;
  cfg.load_balance.eval_interval_chunks = 1;
  cfg.load_balance.imbalance_threshold = 1.25;
  cfg.load_balance.top_k = 4;
  cfg.load_balance.max_rounds = 16;
  return cfg;
}

TEST(LoadBalanceRegression, StatsDecayToZeroWithoutFreshTraffic) {
  const ProfilerConfig cfg = balanced_cfg(1);  // one worker: never imbalanced
  obs::StageStats stats;
  RouteStage route(cfg, cfg.workers, stats);
  const std::int64_t baseline =
      MemStats::instance().bytes(MemComponent::kAccessStats);

  for (int round = 0; round < 8; ++round)
    for (std::uint64_t a = 0; a < 64; ++a) route.record_access(a * 4);
  ASSERT_EQ(route.stat_entries(), 64u);

  // Counts are 8 per entry: halving reaches zero within four rounds.  An
  // evaluator that never ages its table keeps all 64 entries forever.
  for (std::uint64_t eval = 1; eval <= 5; ++eval) route.evaluate(eval);
  EXPECT_EQ(route.stat_entries(), 0u);
  EXPECT_EQ(MemStats::instance().bytes(MemComponent::kAccessStats), baseline);
}

TEST(LoadBalanceRegression, ExhaustedRoundsReleaseTheTable) {
  ProfilerConfig cfg = balanced_cfg(4);
  cfg.load_balance.max_rounds = 0;
  obs::StageStats stats;
  RouteStage route(cfg, cfg.workers, stats);
  const std::int64_t baseline =
      MemStats::instance().bytes(MemComponent::kAccessStats);

  for (std::uint64_t a = 0; a < 32; ++a) route.record_access(a * 4);
  ASSERT_EQ(route.stat_entries(), 32u);
  route.evaluate(1);
  EXPECT_EQ(route.stat_entries(), 0u);
  EXPECT_EQ(MemStats::instance().bytes(MemComponent::kAccessStats), baseline);
}

// --- satellite 5: sampler shift width -------------------------------------

TEST(LoadBalanceRegression, OversizedSampleShiftIsClampedNotUb) {
  for (const unsigned shift : {32u, 40u, 63u, 64u, 200u}) {
    ProfilerConfig cfg = balanced_cfg(4);
    cfg.load_balance.sample_shift = shift;
    obs::StageStats stats;
    RouteStage route(cfg, cfg.workers, stats);
    // With a >= 2^32 sampling period only the very first access lands in
    // the table.  The pre-fix 32-bit mask shifted by >= 32 was UB and could
    // sample everything (or nothing) depending on codegen.
    for (std::uint64_t a = 0; a < 100; ++a) route.record_access(a * 4);
    EXPECT_EQ(route.stat_entries(), 1u) << "shift " << shift;
    route.evaluate(1);  // return the MemStats bytes
  }
}

// --- satellite 3: read_trace must not trust the header --------------------

class TraceIoRegression : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  const std::string path_ = "fuzz_regression_trace.bin";
};

Trace small_trace(std::size_t n) {
  Trace t;
  for (std::size_t i = 0; i < n; ++i) {
    AccessEvent ev;
    ev.addr = 0x1000 + 4 * i;
    ev.kind = i % 2 ? AccessKind::kRead : AccessKind::kWrite;
    ev.loc = SourceLocation(1, static_cast<std::uint32_t>(i + 1)).packed();
    t.events.push_back(ev);
  }
  return t;
}

TEST_F(TraceIoRegression, RoundTripStillWorks) {
  const Trace t = small_trace(5);
  ASSERT_TRUE(write_trace(t, path_));
  Trace back;
  ASSERT_TRUE(read_trace(back, path_));
  ASSERT_EQ(back.size(), t.size());
  EXPECT_EQ(back.events[4].addr, t.events[4].addr);
}

TEST_F(TraceIoRegression, RejectsCountLargerThanFile) {
  ASSERT_TRUE(write_trace(small_trace(2), path_));
  {
    // Patch the header count to claim a gigabyte of events.
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f);
    f.seekp(8);
    const std::uint64_t lying_count = 1'000'000'000;
    f.write(reinterpret_cast<const char*>(&lying_count), sizeof(lying_count));
  }
  Trace out;
  out.events.push_back(AccessEvent{});
  EXPECT_FALSE(read_trace(out, path_));
  EXPECT_EQ(out.size(), 1u);  // untouched on failure
}

TEST_F(TraceIoRegression, RejectsTruncatedPayload) {
  ASSERT_TRUE(write_trace(small_trace(4), path_));
  {
    std::ifstream in(path_, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 40u);
    bytes.resize(bytes.size() - 40);  // chop into the last event
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  Trace out;
  EXPECT_FALSE(read_trace(out, path_));
}

TEST_F(TraceIoRegression, RejectsGarbageAndShortFiles) {
  {
    std::ofstream f(path_, std::ios::binary | std::ios::trunc);
    f << "not a trace";
  }
  Trace out;
  EXPECT_FALSE(read_trace(out, path_));
  {
    std::ofstream f(path_, std::ios::binary | std::ios::trunc);
  }
  EXPECT_FALSE(read_trace(out, path_));
}

// --- ISSUE 4 satellite 1: end-of-run merge must transfer, not copy --------

TEST(MergeAccountingRegression, FinishDoesNotDoubleCountDepMaps) {
  // Every address gets its own write→read pair at its own pair of source
  // lines, so each worker-local map holds keys no other worker produces and
  // the merged map is exactly the sum of the locals.  A fold that *copies*
  // a local before freeing it therefore doubles the kDepMaps footprint at
  // its peak; a transferring fold keeps the peak at the final size.
  Trace t;
  constexpr std::uint32_t kAddrs = 400;
  for (std::uint32_t i = 0; i < kAddrs; ++i) {
    AccessEvent w;
    w.addr = 0x10000 + 4 * i;
    w.kind = AccessKind::kWrite;
    w.loc = SourceLocation(1, 2 * i + 1).packed();
    t.events.push_back(w);
    AccessEvent r = w;
    r.kind = AccessKind::kRead;
    r.loc = SourceLocation(1, 2 * i + 2).packed();
    t.events.push_back(r);
  }

  MemStats::instance().reset();
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPacked;
  cfg.workers = 4;
  auto prof = make_parallel_profiler(cfg);
  replay(t, *prof);

  const std::int64_t final_bytes =
      MemStats::instance().bytes(MemComponent::kDepMaps);
  const std::int64_t peak = MemStats::instance().peak(MemComponent::kDepMaps);
  EXPECT_EQ(prof->dependences().size(), 2u * kAddrs);  // INIT + RAW per addr
  ASSERT_GT(final_bytes, 0);
  EXPECT_LE(peak, final_bytes + final_bytes / 4)
      << "merge copied the worker-local maps instead of transferring them";
}

// --- ISSUE 4 satellite 2: override-table lifetime -------------------------

TEST(LoadBalanceRegression, StaleOverridesAreEvictedHomeward) {
  ProfilerConfig cfg = balanced_cfg(2);
  cfg.modulo_routing = true;
  cfg.load_balance.top_k = 2;
  obs::StageStats stats;
  RouteStage route(cfg, cfg.workers, stats);
  const std::int64_t baseline =
      MemStats::instance().bytes(MemComponent::kAccessStats);

  // Skewed traffic: unit 2 on worker 0, units 1/3/5 pile onto worker 1.
  for (int i = 0; i < 30; ++i) route.record_access(2);
  for (int i = 0; i < 25; ++i) route.record_access(1);
  for (int i = 0; i < 24; ++i) route.record_access(3);
  for (int i = 0; i < 23; ++i) route.record_access(5);
  ASSERT_EQ(route.evaluate(1).size(), 1u);
  ASSERT_EQ(route.override_entries(), 1u);
  ASSERT_EQ(route.route(1), 0u);  // overridden off its modulo home

  // No fresh traffic: the statistics decay away, and the override must go
  // with them — as a homeward migration, never a silent re-route (silent
  // re-routing strands the signature state at the override target).  The
  // pre-fix table kept the entry, and its memory, for the rest of the run.
  std::vector<Migration> home;
  for (std::uint64_t eval = 2; eval < 10 && home.empty(); ++eval)
    home = route.evaluate(eval);
  ASSERT_EQ(home.size(), 1u);
  EXPECT_EQ(home[0].addr, 1u);
  EXPECT_EQ(home[0].from, 0u);
  EXPECT_EQ(home[0].to, 1u);
  EXPECT_EQ(route.override_entries(), 0u);
  EXPECT_EQ(route.route(1), 1u);
  EXPECT_EQ(MemStats::instance().bytes(MemComponent::kAccessStats), baseline);
}

TEST(LoadBalanceRegression, MaxRoundsReleasesOverridesHomeward) {
  ProfilerConfig cfg = balanced_cfg(2);
  cfg.modulo_routing = true;
  cfg.load_balance.top_k = 2;
  cfg.load_balance.max_rounds = 1;
  obs::StageStats stats;
  RouteStage route(cfg, cfg.workers, stats);
  const std::int64_t baseline =
      MemStats::instance().bytes(MemComponent::kAccessStats);

  for (int i = 0; i < 30; ++i) route.record_access(2);
  for (int i = 0; i < 25; ++i) route.record_access(1);
  for (int i = 0; i < 24; ++i) route.record_access(3);
  for (int i = 0; i < 23; ++i) route.record_access(5);
  ASSERT_EQ(route.evaluate(1).size(), 1u);
  ASSERT_EQ(route.override_entries(), 1u);

  // Rounds exhausted: the next evaluation must send every overridden
  // address back to its formula-1 owner and free both tables for good.
  const std::vector<Migration> home = route.evaluate(2);
  ASSERT_EQ(home.size(), 1u);
  EXPECT_EQ(home[0].addr, 1u);
  EXPECT_EQ(home[0].from, 0u);
  EXPECT_EQ(home[0].to, 1u);
  EXPECT_EQ(route.override_entries(), 0u);
  EXPECT_EQ(route.stat_entries(), 0u);
  EXPECT_EQ(route.route(1), 1u);
  EXPECT_EQ(MemStats::instance().bytes(MemComponent::kAccessStats), baseline);
}

// --- ISSUE 4 satellite 3: spreading cursor advances only on a move --------

TEST(LoadBalanceRegression, SpreadingCursorDoesNotSkipLeastLoadedWorker) {
  // Two workers under modulo routing.  Unit 2 is the single hottest address
  // and already lives on the least-loaded worker 0; units 1/3/5 overload
  // worker 1 (load 30 vs 72, ratio 1.41 > threshold 1.25).  With top_k=2
  // the spreader considers [unit 2, unit 1] against the ascending-load
  // order [w0, w1].  Unit 2 stays put — and must not consume w0's slot: the
  // pre-fix cursor advanced anyway, offered unit 1 its *own* worker w1, and
  // the round moved nothing at all.
  ProfilerConfig cfg = balanced_cfg(2);
  cfg.modulo_routing = true;
  cfg.load_balance.top_k = 2;
  obs::StageStats stats;
  RouteStage route(cfg, cfg.workers, stats);

  for (int i = 0; i < 30; ++i) route.record_access(2);
  for (int i = 0; i < 25; ++i) route.record_access(1);
  for (int i = 0; i < 24; ++i) route.record_access(3);
  for (int i = 0; i < 23; ++i) route.record_access(5);

  const std::vector<Migration> moves = route.evaluate(1);
  ASSERT_EQ(moves.size(), 1u) << "hot address stranded on the busy worker";
  EXPECT_EQ(moves[0].addr, 1u);
  EXPECT_EQ(moves[0].from, 1u);
  EXPECT_EQ(moves[0].to, 0u);
  EXPECT_EQ(route.route(1), 0u);
  EXPECT_EQ(route.route(2), 0u);  // the resident hot address did not move
}

// --- ISSUE 5 satellite: record_free must invalidate the dedup cache -------

TEST(DedupRegression, FreeInvalidatesCachedWordSoReuseStartsAFreshLifetime) {
  // W(x); free(x); W(x) with byte-identical access identities — the pattern
  // a realloc-reuse produces.  The second write is a fresh INIT; without
  // the per-word cache invalidation in record_free it merges into the
  // *pre-free* write's record, the expanded stream decodes as W,W,F, and
  // the profiler reports a WAW inside what are two separate lifetimes
  // while the second INIT disappears.
  alignas(8) static int cell;
  Runtime& rt = Runtime::instance();
  rt.reset();
  TraceRecorder rec;
  rt.attach(&rec, /*mt_mode=*/false, /*dedup=*/true);
  rt.record(&cell, 4, 1, 10, 1, /*is_write=*/true);
  rt.record_free(&cell, 4);
  rt.record(&cell, 4, 1, 10, 1, /*is_write=*/true);
  rt.detach();
  rt.reset();

  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPacked;
  auto profiler = make_serial_profiler(cfg);
  replay(rec.trace(), *profiler);

  const std::uint32_t write_loc = SourceLocation(1, 10).packed();
  std::uint64_t init_instances = 0;
  for (const auto& [key, info] : profiler->dependences()) {
    EXPECT_NE(key.type, DepType::kWaw)
        << "dedup merged a write across the freed word's lifetime boundary";
    if (key.type == DepType::kInit && key.sink_loc == write_loc)
      init_instances += info.count;
  }
  EXPECT_EQ(init_instances, 2u) << "the post-free INIT was suppressed";
}

// --- ISSUE 8: the burst marker vs the front-end reduction layer ------------

TEST(DedupRegression, BurstMarkTerminatesRunsAndIsNeverMerged) {
  // A repeat separated from its first instance by a burst marker must not
  // merge: the marker clears all downstream detection state, and expanding
  // the run would move the repeat back across that clearing point — turning
  // the post-gap re-INIT into a pre-gap repeat the subset checker rejects.
  std::vector<AccessEvent> evs;
  AccessEvent w;
  w.addr = 0x2000;
  w.kind = AccessKind::kWrite;
  w.loc = SourceLocation(1, 5).packed();
  evs.push_back(w);
  evs.push_back(w);  // exact repeat: merges into a run of two
  AccessEvent mark;
  mark.kind = AccessKind::kBurstMark;
  evs.push_back(mark);
  evs.push_back(w);  // post-gap instance: must open a fresh record
  evs.push_back(w);  // ...which its own repeat may then join
  const RleStream rle = dedup_stream(evs.data(), evs.size());
  ASSERT_EQ(rle.events.size(), 3u);
  EXPECT_EQ(rle.reps[0], 2u);
  EXPECT_TRUE(rle.events[1].is_burst_mark());
  EXPECT_EQ(rle.reps[1], 1u);
  EXPECT_EQ(rle.reps[2], 2u);
  EXPECT_EQ(rle.logical_events(), 5u);
}

}  // namespace
}  // namespace depprof
