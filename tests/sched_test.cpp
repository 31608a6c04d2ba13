// Deterministic schedule exploration (ISSUE 7): the controller, the
// ownership/epoch hand-off invariant, the sealed chunk pool, the repro
// format's schedule section, and the schedule-shrinking rung.
//
// The determinism tests run the real parallel pipeline on trace-based cases
// (synthetic, fixed addresses), where recorded schedules are byte-stable:
// same seed => same grant sequence AND same sites.  Live workloads add
// target-allocator jitter that can shift chunk-fill boundaries (site drift;
// see DESIGN.md), which is why replay follows thread names — but none of
// that applies here, so these tests pin the strong property.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>

#include "core/chunk.hpp"
#include "oracle/corpus.hpp"
#include "oracle/harness.hpp"
#include "oracle/shrinker.hpp"
#include "sched/sched.hpp"
#include "trace/generators.hpp"

namespace depprof {
namespace {

Trace small_trace() {
  GenParams p;
  p.accesses = 600;
  p.distinct = 128;
  return gen_strided(p);
}

ProfilerConfig sched_cfg(unsigned workers) {
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPacked;
  cfg.workers = workers;
  cfg.chunk_size = 16;
  return cfg;
}

TEST(ScheduleTraceTest, FormatParseRoundTrip) {
  sched::ScheduleTrace t;
  t.steps.push_back({"main", "pool.acquire"});
  t.steps.push_back({"w0", "queue.pop"});
  t.steps.push_back({"w1", "pool.release"});
  sched::ScheduleTrace back;
  std::string error;
  ASSERT_TRUE(sched::ScheduleTrace::parse(back, t.format(), &error)) << error;
  ASSERT_EQ(back.steps.size(), 3u);
  EXPECT_EQ(back.steps[1].thread, "w0");
  EXPECT_EQ(back.steps[1].site, "queue.pop");
  EXPECT_EQ(back.format(), t.format());
}

TEST(SchedHarnessTest, RecordingIsDeterministicOnTraceCases) {
  const Trace trace = small_trace();
  const ProfilerConfig cfg = sched_cfg(2);
  SchedSpec spec;
  spec.seed = 7;
  spec.algo = sched::Algo::kRandomWalk;
  const CaseOutcome a = run_case(trace, cfg, &spec);
  const CaseOutcome b = run_case(trace, cfg, &spec);
  ASSERT_TRUE(a.ok) << a.detail;
  ASSERT_TRUE(b.ok) << b.detail;
  EXPECT_EQ(a.violations, 0u);
  EXPECT_FALSE(a.schedule.empty());
  // Byte-stable: grants and sites, not just the thread-turn sequence.
  EXPECT_EQ(a.schedule.format(), b.schedule.format());
}

TEST(SchedHarnessTest, SeedsDivergeAndReplayIsFaithful) {
  const Trace trace = small_trace();
  const ProfilerConfig cfg = sched_cfg(2);
  SchedSpec explore;
  explore.seed = 1;
  const CaseOutcome rec = run_case(trace, cfg, &explore);
  ASSERT_TRUE(rec.ok) << rec.detail;
  SchedSpec other;
  other.seed = 2;
  const CaseOutcome rec2 = run_case(trace, cfg, &other);
  ASSERT_TRUE(rec2.ok) << rec2.detail;
  EXPECT_NE(rec.schedule.format(), rec2.schedule.format())
      << "different seeds should explore different interleavings";

  SchedSpec replay;
  replay.replay = rec.schedule;
  const CaseOutcome rep = run_case(trace, cfg, &replay);
  ASSERT_TRUE(rep.ok) << rep.detail;
  EXPECT_EQ(rep.sched_divergences, 0u)
      << "replaying a just-recorded schedule on a trace case must not drift";
  EXPECT_EQ(rep.schedule.format(), rec.schedule.format());
}

TEST(SchedHarnessTest, PctExplorationHoldsAtEightWorkers) {
  const Trace trace = small_trace();
  const ProfilerConfig cfg = sched_cfg(8);
  SchedSpec spec;
  spec.seed = 3;
  spec.algo = sched::Algo::kPct;
  const CaseOutcome out = run_case(trace, cfg, &spec);
  ASSERT_TRUE(out.ok) << out.detail;
  EXPECT_EQ(out.violations, 0u);
}

TEST(SchedPctTest, NoThreadHoldsTheSchedulePastTheRotationBound) {
  // A worker retrying an empty queue alternates its pop with wait.poll,
  // while two idle workers only poll.  Runs count grants to one thread at
  // any site, and a demoted thread drops strictly below the others, so no
  // thread is granted more than kPctStarvationRuns steps in a row,
  // whatever the seed hands the top priority to.
  constexpr std::uint64_t kSteps = 400;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sched::Options opts;
    opts.seed = seed;
    opts.algo = sched::Algo::kPct;
    opts.max_steps = kSteps;  // then free-run, so the threads drain fast
    sched::begin(opts);
    sched::expect_threads(3);
    auto body = [](const char* name, bool retries) {
      sched::ThreadGuard guard(name);
      for (int i = 0; i < 2000; ++i) {
        if (retries) sched::point("spsc.pop");
        sched::point("wait.poll");
      }
    };
    std::thread a(body, "a", true), b(body, "b", false), c(body, "c", false);
    a.join();
    b.join();
    c.join();
    const sched::Result r = sched::end();
    ASSERT_EQ(r.recorded.steps.size(), kSteps) << "seed " << seed;
    std::uint64_t run = 0, longest = 0;
    for (std::size_t i = 0; i < r.recorded.steps.size(); ++i) {
      const bool same =
          i > 0 && r.recorded.steps[i].thread == r.recorded.steps[i - 1].thread;
      run = same ? run + 1 : 1;
      longest = std::max(longest, run);
    }
    EXPECT_LE(longest, sched::kPctStarvationRuns) << "seed " << seed;
  }
}

TEST(ChunkPoolTest, SealedAcquireBlocksInsteadOfAllocating) {
  ChunkPool pool(4, WaitKind::kPark);
  ASSERT_EQ(pool.allocated(), 4u);
  Chunk* held[4];
  for (Chunk*& c : held) c = pool.acquire();
  EXPECT_EQ(pool.pool_size(), 0u);

  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    held[0]->kind = Chunk::Kind::kData;
    pool.release(held[0]);
  });
  Chunk* waited = pool.acquire();  // must block until the release, not new
  releaser.join();
  EXPECT_EQ(waited, held[0]);
  EXPECT_EQ(pool.allocated(), 4u) << "the pool never grows";
  EXPECT_GE(pool.acquire_stalls(), 1u);
  pool.release(waited);
  for (int i = 1; i < 4; ++i) pool.release(held[i]);
}

TEST(ChunkPoolTest, RecycledChunkLeaksNoStaleHeader) {
  // Pool of one: the second acquire must hand back the same chunk, and
  // every header field a previous use could have dirtied must be reset —
  // a stale kind or count would make the worker misread the chunk.
  ChunkPool pool(1, WaitKind::kSpin);
  Chunk* c = pool.acquire();
  const std::uint32_t gen_before = c->gen.load();
  c->kind = Chunk::Kind::kMigrateOut;
  c->count = 77;
  c->payload = 5;
  c->addr = 0xdeadbeef;
  pool.release(c);

  Chunk* again = pool.acquire();
  ASSERT_EQ(again, c);
  EXPECT_EQ(again->kind, Chunk::Kind::kData);
  EXPECT_EQ(again->count, 0u);
  EXPECT_EQ(again->payload, 0u);
  EXPECT_EQ(again->addr, 0u);
  EXPECT_GT(again->gen.load(), gen_before) << "recycle bumps the epoch";
  pool.release(again);
}

TEST(ChunkInvariantTest, WrongHandoffBumpsViolationCounter) {
  ChunkPool pool(1, WaitKind::kSpin);
  Chunk* c = pool.acquire();  // legal: pool -> producer
  const std::uint64_t before = sched::violation_count();
  // A data chunk with records for workers 1 and 3, pushed to both.
  c->count = 2;
  c->owners[0] = 1;
  c->owners[1] = 3;
  chunk_publish(*c, (1u << 1) | (1u << 3));
  chunk_pop(*c, 1);
  EXPECT_EQ(sched::violation_count(), before);
  // A pop by a worker that owns no record of the chunk.
  chunk_pop(*c, 2);
  EXPECT_EQ(sched::violation_count(), before + 1);
  // A second pop by the same worker.
  chunk_pop(*c, 1);
  EXPECT_EQ(sched::violation_count(), before + 2);
  // A release before the last consumer (worker 3) finished.
  EXPECT_FALSE(chunk_done(*c));
  pool.release(c);
  EXPECT_EQ(sched::violation_count(), before + 3);
  // The last consumer's release is legal.
  c = pool.acquire();
  chunk_publish(*c, 1u << 0);
  chunk_pop(*c, 0);
  ASSERT_TRUE(chunk_done(*c));
  pool.release(c);
  EXPECT_EQ(sched::violation_count(), before + 3);
}

TEST(ReproSchedTest, SchedSectionRoundTrips) {
  ReproCase repro;
  repro.note = "sched round trip";
  repro.cfg.workers = 8;
  repro.sched = true;
  repro.sched_seed = 42;
  repro.sched_algo = sched::Algo::kPct;
  repro.schedule.steps.push_back({"w0", "queue.pop"});
  repro.schedule.steps.push_back({"main", "pool.acquire"});
  AccessEvent ev;
  ev.kind = AccessKind::kWrite;
  ev.addr = 0x1000;
  ev.loc = 1;
  repro.trace.events.push_back(ev);

  const std::string text = format_repro(repro);
  EXPECT_NE(text.find("depfuzz-repro v11"), std::string::npos);
  EXPECT_NE(text.find("sched seed=42 algo=pct"), std::string::npos);
  EXPECT_NE(text.find("sstep w0 queue.pop"), std::string::npos);

  ReproCase back;
  std::string error;
  ASSERT_TRUE(parse_repro(back, text, &error)) << error;
  EXPECT_TRUE(back.sched);
  EXPECT_EQ(back.sched_seed, 42u);
  EXPECT_EQ(back.sched_algo, sched::Algo::kPct);
  ASSERT_EQ(back.schedule.steps.size(), 2u);
  EXPECT_EQ(back.schedule.steps[1].thread, "main");
  EXPECT_EQ(back.schedule.steps[1].site, "pool.acquire");
}

TEST(ReproSchedTest, ScheduleFreeCasesWriteNoSchedSection) {
  ReproCase repro;
  AccessEvent ev;
  ev.kind = AccessKind::kRead;
  ev.addr = 0x2000;
  repro.trace.events.push_back(ev);
  const std::string text = format_repro(repro);
  EXPECT_EQ(text.find("sched"), std::string::npos);
  ReproCase back;
  ASSERT_TRUE(parse_repro(back, text));
  EXPECT_FALSE(back.sched);
}

TEST(ReproSchedTest, ScheduleStepsNeedACompleteSchedLine) {
  const std::string header = format_repro(ReproCase{});
  std::string error;
  ReproCase out;
  EXPECT_FALSE(parse_repro(out, header + "sstep w0 queue.pop\n", &error));
  EXPECT_NE(error.find("before sched"), std::string::npos) << error;
  // The exploration algorithm is not defaulted: a repro without it would
  // re-explore under whatever the default later becomes.
  EXPECT_FALSE(parse_repro(out, header + "sched seed=1\n", &error));
  EXPECT_NE(error.find("missing key 'algo='"), std::string::npos) << error;
  ASSERT_TRUE(parse_repro(out, header + "sched seed=1 algo=pct\n", &error))
      << error;
  EXPECT_TRUE(out.sched);
}

TEST(ShrinkScheduleTest, DropsScheduleWhenFailureIsScheduleFree) {
  sched::ScheduleTrace schedule;
  for (int i = 0; i < 32; ++i) schedule.steps.push_back({"w0", "queue.pop"});
  bool dropped = false;
  const sched::ScheduleTrace out = shrink_schedule(
      Trace{}, ProfilerConfig{}, schedule,
      [](const Trace&, const ProfilerConfig&, const sched::ScheduleTrace*) {
        return true;  // fails with or without a controller
      },
      nullptr, &dropped);
  EXPECT_TRUE(dropped);
  EXPECT_TRUE(out.empty());
}

TEST(ShrinkScheduleTest, TruncatesToTheShortestFailingPrefix) {
  sched::ScheduleTrace schedule;
  for (int i = 0; i < 100; ++i)
    schedule.steps.push_back({"w0", "site" + std::to_string(i)});
  bool dropped = false;
  ShrinkStats st;
  const sched::ScheduleTrace out = shrink_schedule(
      Trace{}, ProfilerConfig{}, schedule,
      [](const Trace&, const ProfilerConfig&,
         const sched::ScheduleTrace* s) {
        // Schedule-dependent failure that needs the first 10 steps.
        return s != nullptr && s->steps.size() >= 10;
      },
      &st, &dropped);
  EXPECT_FALSE(dropped);
  EXPECT_EQ(out.steps.size(), 10u);
  EXPECT_EQ(out.steps[9].site, "site9") << "truncation keeps the prefix";
  EXPECT_EQ(st.final_events, 10u);
}

}  // namespace
}  // namespace depprof
