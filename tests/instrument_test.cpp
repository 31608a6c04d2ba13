// Tests for the instrumentation runtime and macros: event assembly, loop
// context tracking (entries, iterations, three-level nesting), control-flow
// records, lifetime events, lock regions, thread ids, timestamps, session
// rebinding across detach/attach, and the disabled-runtime fast path.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "instrument/macros.hpp"
#include "instrument/runtime.hpp"
#include "trace/nest.hpp"
#include "trace/trace.hpp"

DP_FILE("instrument_test");

namespace depprof {
namespace {

class RuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override { Runtime::instance().reset(); }
  void TearDown() override {
    Runtime::instance().detach();
    Runtime::instance().reset();
  }

  TraceRecorder recorder_;
  Trace& capture() {
    Runtime::instance().detach();
    return recorder_.trace();
  }
};

TEST_F(RuntimeTest, DisabledRuntimeEmitsNothing) {
  int x = 0;
  DP_WRITE(x);
  x = 1;
  DP_READ(x);
  EXPECT_EQ(x, 1);
  Runtime::instance().attach(&recorder_);
  Runtime::instance().detach();
  EXPECT_TRUE(recorder_.trace().events.empty());
}

TEST_F(RuntimeTest, RecordsAddressKindLocationVar) {
  Runtime::instance().attach(&recorder_);
  double value = 0.0;
  DP_WRITE(value);
  value = 1.0;
  DP_READ(value);
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_EQ(t.events[0].addr, reinterpret_cast<std::uintptr_t>(&value));
  EXPECT_TRUE(t.events[0].is_write());
  EXPECT_TRUE(t.events[1].is_read());
  EXPECT_EQ(t.events[0].addr, t.events[1].addr);
  EXPECT_LT(t.events[0].location().line(), t.events[1].location().line());
  EXPECT_EQ(var_registry().name(t.events[0].var), "value");
}

TEST_F(RuntimeTest, LoopContextAttachedToAccesses) {
  Runtime::instance().attach(&recorder_);
  int a = 0;
  DP_LOOP_BEGIN();
  for (int i = 0; i < 3; ++i) {
    DP_LOOP_ITER();
    DP_WRITE(a);
    a = i;
  }
  DP_LOOP_END();
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 3u);
  const std::uint32_t ctx = t.events[0].ctx;
  ASSERT_NE(ctx, NestForest::kRoot);
  EXPECT_NE(nest_forest().loop(ctx), 0u);
  EXPECT_EQ(nest_forest().depth(ctx), 1u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(t.events[i].ctx, ctx) << "one dynamic entry, one context";
    EXPECT_EQ(t.events[i].iters[0], static_cast<std::uint32_t>(i + 1));
  }
}

TEST_F(RuntimeTest, LoopEntriesAreDistinct) {
  Runtime::instance().attach(&recorder_);
  int a = 0;
  for (int round = 0; round < 2; ++round) {
    DP_LOOP_BEGIN();
    for (int i = 0; i < 2; ++i) {
      DP_LOOP_ITER();
      DP_WRITE(a);
      a = i;
    }
    DP_LOOP_END();
  }
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 4u);
  // Same static loop, but each DP_LOOP_BEGIN interns a fresh forest node:
  // the two rounds are distinguishable dynamic entries.
  EXPECT_EQ(nest_forest().loop(t.events[0].ctx),
            nest_forest().loop(t.events[2].ctx));
  EXPECT_NE(t.events[0].ctx, t.events[2].ctx);
}

TEST_F(RuntimeTest, ThreeLevelNestingRecorded) {
  Runtime::instance().attach(&recorder_);
  int a = 0;
  DP_LOOP_BEGIN();  // outer
  DP_LOOP_ITER();
  {
    DP_LOOP_BEGIN();  // middle
    DP_LOOP_ITER();
    {
      DP_LOOP_BEGIN();  // inner
      DP_LOOP_ITER();
      DP_WRITE(a);
      a = 1;
      DP_LOOP_END();
    }
    DP_LOOP_END();
  }
  DP_LOOP_END();
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 1u);
  const AccessEvent& e = t.events[0];
  const NestForest& forest = nest_forest();
  ASSERT_EQ(forest.depth(e.ctx), 3u);
  const std::uint32_t inner = e.ctx;
  const std::uint32_t middle = forest.parent(inner);
  const std::uint32_t outer = forest.parent(middle);
  EXPECT_EQ(forest.parent(outer), NestForest::kRoot);
  EXPECT_NE(forest.loop(inner), 0u);
  EXPECT_NE(forest.loop(middle), 0u);
  EXPECT_NE(forest.loop(outer), 0u);
  EXPECT_NE(forest.loop(inner), forest.loop(middle));
  EXPECT_NE(forest.loop(middle), forest.loop(outer));
  // Root-anchored iteration window: one DP_LOOP_ITER at each level.
  EXPECT_EQ(e.iters[0], 1u);
  EXPECT_EQ(e.iters[1], 1u);
  EXPECT_EQ(e.iters[2], 1u);
}

TEST_F(RuntimeTest, NestEdgesFormLoopTree) {
  Runtime::instance().attach(&recorder_);
  int a = 0;
  DP_LOOP_BEGIN();  // outer
  DP_LOOP_ITER();
  {
    DP_LOOP_BEGIN();  // inner
    DP_LOOP_ITER();
    DP_WRITE(a);
    a = 1;
    DP_LOOP_END();
  }
  DP_LOOP_END();
  Runtime::instance().detach();
  const ControlFlowLog cf = Runtime::instance().control_flow();
  ASSERT_EQ(cf.loops.size(), 2u);
  const std::uint32_t outer_id = cf.loops[0].loop_id;
  const std::uint32_t inner_id = cf.loops[1].loop_id;
  ASSERT_EQ(cf.edges.size(), 2u);
  EXPECT_EQ(cf.children_of(0), std::vector<std::uint32_t>{outer_id});
  EXPECT_EQ(cf.children_of(outer_id), std::vector<std::uint32_t>{inner_id});
  EXPECT_FALSE(cf.has_parent(outer_id));
  EXPECT_TRUE(cf.has_parent(inner_id));
}

TEST_F(RuntimeTest, StrayLoopMarkersAreCountedNotFatal) {
  // DP_LOOP_ITER / DP_LOOP_END on an empty per-thread loop stack (mismatched
  // instrumentation, or a thread entering mid-loop) must be ignored and
  // counted — never pop or advance another frame.
  Runtime::instance().attach(&recorder_);
  int a = 0;
  DP_LOOP_ITER();
  DP_LOOP_END();
  DP_WRITE(a);
  a = 1;
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 1u);
  EXPECT_EQ(t.events[0].ctx, NestForest::kRoot) << "no nest context fabricated";
  const ControlFlowLog cf = Runtime::instance().control_flow();
  EXPECT_EQ(cf.stray_iters, 1u);
  EXPECT_EQ(cf.stray_ends, 1u);
  EXPECT_TRUE(cf.loops.empty());
}

TEST_F(RuntimeTest, ThreadEnteringMidLoopKeepsOwnNestCursor) {
  // An MT target thread that starts inside another thread's loop sees that
  // loop's iteration and end markers without ever having opened a frame.
  // Its accesses stay context-free and the opener's nest is untouched.
  Runtime::instance().attach(&recorder_, /*mt_mode=*/true);
  int a = 0;
  DP_LOOP_BEGIN();
  DP_LOOP_ITER();
  std::thread worker([&] {
    DP_LOOP_ITER();  // stray: this thread never entered the loop
    DP_WRITE(a);
    DP_LOOP_END();  // stray: must not pop the opener's frame
  });
  worker.join();
  DP_WRITE(a);
  a = 1;
  DP_LOOP_END();
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 2u);
  const std::uint16_t main_tid = Runtime::instance().thread_id();
  for (const auto& e : t.events) {
    if (e.tid == main_tid) {
      EXPECT_NE(e.ctx, NestForest::kRoot);
      EXPECT_EQ(e.iters[0], 1u);
    } else {
      EXPECT_EQ(e.ctx, NestForest::kRoot);
    }
  }
  const ControlFlowLog cf = Runtime::instance().control_flow();
  EXPECT_EQ(cf.stray_iters, 1u);
  EXPECT_EQ(cf.stray_ends, 1u);
  ASSERT_EQ(cf.loops.size(), 1u);
  EXPECT_EQ(cf.loops[0].entries, 1u);
  EXPECT_EQ(cf.loops[0].iterations, 1u);
}

TEST_F(RuntimeTest, ControlFlowLogRecordsLoops) {
  Runtime::instance().attach(&recorder_);
  int a = 0;
  DP_LOOP_BEGIN();
  for (int i = 0; i < 5; ++i) {
    DP_LOOP_ITER();
    DP_WRITE(a);
    a = i;
  }
  DP_LOOP_END();
  Runtime::instance().detach();
  const ControlFlowLog cf = Runtime::instance().control_flow();
  ASSERT_EQ(cf.loops.size(), 1u);
  EXPECT_EQ(cf.loops[0].iterations, 5u);  // the Fig. 1 "END loop 1200" count
  EXPECT_EQ(cf.loops[0].entries, 1u);
  EXPECT_LT(SourceLocation::from_packed(cf.loops[0].begin_loc).line(),
            SourceLocation::from_packed(cf.loops[0].end_loc).line());
}

TEST_F(RuntimeTest, LoopIterationsAccumulateOverEntries) {
  Runtime::instance().attach(&recorder_);
  for (int round = 0; round < 3; ++round) {
    DP_LOOP_BEGIN();
    for (int i = 0; i < 4; ++i) DP_LOOP_ITER();
    DP_LOOP_END();
  }
  Runtime::instance().detach();
  const ControlFlowLog cf = Runtime::instance().control_flow();
  ASSERT_EQ(cf.loops.size(), 1u);
  EXPECT_EQ(cf.loops[0].iterations, 12u);
  EXPECT_EQ(cf.loops[0].entries, 3u);
}

TEST_F(RuntimeTest, FreeEmitsWordGranularLifetimeEvents) {
  Runtime::instance().attach(&recorder_);
  alignas(4) char buf[16];
  DP_FREE(buf, sizeof(buf));
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 4u);  // 16 bytes / 4-byte words
  for (const auto& e : t.events) EXPECT_TRUE(e.is_free());
  EXPECT_EQ(t.events[1].addr - t.events[0].addr, 4u);
}

TEST_F(RuntimeTest, LockRegionFlagsAccesses) {
  Runtime::instance().attach(&recorder_, /*mt_mode=*/true);
  int x = 0;
  DP_WRITE(x);  // outside any lock region
  x = 1;
  DP_LOCK_ENTER();
  DP_WRITE(x);  // inside
  x = 2;
  DP_LOCK_EXIT();
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_EQ(t.events[0].flags & kInLockRegion, 0);
  EXPECT_NE(t.events[1].flags & kInLockRegion, 0);
}

TEST_F(RuntimeTest, TimestampsMonotoneInMtMode) {
  Runtime::instance().attach(&recorder_, /*mt_mode=*/true);
  int x = 0;
  DP_WRITE(x);
  x = 1;
  DP_READ(x);
  DP_READ(x);
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 3u);
  EXPECT_LT(t.events[0].ts, t.events[1].ts);
  EXPECT_LT(t.events[1].ts, t.events[2].ts);
}

TEST_F(RuntimeTest, NoTimestampsInSequentialMode) {
  Runtime::instance().attach(&recorder_, /*mt_mode=*/false);
  int x = 0;
  DP_WRITE(x);
  x = 1;
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 1u);
  EXPECT_EQ(t.events[0].ts, 0u);
}

TEST_F(RuntimeTest, ThreadIdsAssignedPerThread) {
  Runtime::instance().attach(&recorder_, /*mt_mode=*/true);
  int x = 0, y = 0;
  DP_WRITE(x);
  x = 1;
  std::thread worker([&] {
    DP_WRITE(y);
    y = 2;
  });
  worker.join();
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_NE(t.events[0].tid, t.events[1].tid);
}

TEST_F(RuntimeTest, ResetStartsNewEpoch) {
  Runtime::instance().attach(&recorder_, true);
  int x = 0;
  DP_WRITE(x);
  x = 1;
  Runtime::instance().detach();
  const std::uint16_t tid_before = Runtime::instance().thread_id();
  Runtime::instance().reset();
  // After reset the calling thread re-registers and ids restart from 0.
  EXPECT_EQ(Runtime::instance().thread_id(), 0u);
  (void)tid_before;
  EXPECT_TRUE(Runtime::instance().control_flow().loops.empty());
}

TEST_F(RuntimeTest, ReductionLinesRecorded) {
  Runtime::instance().attach(&recorder_);
  double sum = 0.0;
  DP_REDUCTION(); DP_UPDATE(sum); sum += 1.0;
  Runtime::instance().detach();
  const auto lines = Runtime::instance().reduction_lines();
  ASSERT_EQ(lines.size(), 1u);
  // The reduction line matches the update's access line (same source line).
  const Trace& t = recorder_.trace();
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_EQ(lines[0], t.events[0].loc);
}

TEST_F(RuntimeTest, UpdateEmitsReadThenWrite) {
  Runtime::instance().attach(&recorder_);
  double sum = 1.0;
  DP_UPDATE(sum);
  sum += 1.0;
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_TRUE(t.events[0].is_read());
  EXPECT_TRUE(t.events[1].is_write());
  EXPECT_EQ(t.events[0].addr, t.events[1].addr);
}

// --- lock-region boundary paths (regression + pins) -----------------------

TEST_F(RuntimeTest, LockRegionFreeIsFlaggedAndDeliveredImmediately) {
  // Regression: record_free used to buffer lock-region frees unflagged, so a
  // lock-protected free travelled the chunked path while the accesses around
  // it took the immediate one — another thread's post-free access could reach
  // the detector before the free cleared the word.  The free must be flagged
  // kInLockRegion and pushed before the target can release the lock.
  Runtime::instance().attach(&recorder_, /*mt_mode=*/true);
  alignas(4) char buf[4];
  DP_LOCK_ENTER();
  DP_FREE(buf, sizeof(buf));
  {
    // Still inside the lock region: the free is already at the sink.
    const Trace& t = recorder_.trace();
    ASSERT_EQ(t.events.size(), 1u);
    EXPECT_TRUE(t.events[0].is_free());
    EXPECT_NE(t.events[0].flags & kInLockRegion, 0);
  }
  DP_LOCK_EXIT();
}

TEST_F(RuntimeTest, LockExitFlushesBufferedAccesses) {
  // Pin: leaving the outermost lock region pushes the thread's buffered
  // accesses, so everything ordered before the release also arrives first.
  Runtime::instance().attach(&recorder_, /*mt_mode=*/true);
  int x = 0;
  DP_WRITE(x);  // outside any lock region: buffered
  x = 1;
  EXPECT_TRUE(recorder_.trace().events.empty()) << "expected to stay buffered";
  DP_LOCK_ENTER();
  DP_LOCK_EXIT();
  EXPECT_EQ(recorder_.trace().events.size(), 1u)
      << "lock exit must flush before the target releases the lock";
}

// --- per-thread event template --------------------------------------------

TEST_F(RuntimeTest, EventContextMatchesTheLoopNestAtEveryDepth) {
  // Every access carries the thread's loop context, iteration window, thread
  // id and lock flag.  The expected values come from a model of the nest the
  // test drives, not from the runtime's own bookkeeping: depths 1 through
  // kNestIters + 2 (past the window), iteration advances and loop exits, a
  // lock region, bind_thread_id mid-nest, and reset() plus a fresh attach.
  Runtime& rt = Runtime::instance();
  struct Expect {
    std::vector<std::uint32_t> loops;  ///< static loop id per depth
    std::vector<std::uint32_t> iters;  ///< iteration per depth
    std::uint32_t entry;  ///< innermost dynamic entry (0 = outside loops)
    std::uint16_t tid;
    bool locked;
  };
  std::vector<Expect> expected;
  std::vector<std::uint32_t> loops, iters, entries;
  std::uint32_t next_entry = 1;
  std::uint16_t tid = 0;
  bool locked = false;
  int cell = 0;
  const auto access = [&] {
    rt.record(&cell, sizeof(cell), dp_file_id_, 500, 1, /*is_write=*/true);
    expected.push_back(
        {loops, iters, entries.empty() ? 0 : entries.back(), tid, locked});
  };
  const auto begin = [&](std::uint32_t line) {
    rt.loop_begin(dp_file_id_, line);
    loops.push_back(SourceLocation(dp_file_id_, line).packed());
    iters.push_back(0);
    entries.push_back(next_entry++);
  };
  const auto iter = [&] {
    rt.loop_iter();
    iters.back() += 1;
  };
  const auto end = [&] {
    rt.loop_end(dp_file_id_, 999);
    loops.pop_back();
    iters.pop_back();
    entries.pop_back();
  };

  TraceRecorder second;
  rt.attach(&recorder_);
  tid = rt.thread_id();
  access();
  const std::uint32_t deepest = kNestIters + 2;
  for (std::uint32_t d = 1; d <= deepest; ++d) {
    begin(100 + d);
    access();  // before the first iteration marker
    iter();
    access();
    iter();
    access();
    if (d == 3) {
      rt.bind_thread_id(41);
      tid = 41;
      access();
    }
    if (d == 5) {
      rt.lock_enter();
      locked = true;
      access();
      rt.lock_exit();
      locked = false;
      access();
    }
  }
  for (std::uint32_t d = deepest; d >= 1; --d) {
    iter();
    access();
    end();
    access();
  }
  begin(101);  // a second dynamic entry of the outermost loop
  iter();
  access();
  end();
  rt.detach();
  const std::size_t first_session = expected.size();

  rt.reset();
  rt.attach(&second);
  tid = 0;  // the first thread to register after reset() gets id 0
  begin(101);
  iter();
  iter();
  access();
  begin(102);
  iter();
  access();
  end();
  end();
  access();
  rt.detach();

  std::vector<AccessEvent> events = recorder_.trace().events;
  ASSERT_EQ(events.size(), first_session);
  events.insert(events.end(), second.trace().events.begin(),
                second.trace().events.end());
  ASSERT_EQ(events.size(), expected.size());
  const NestForest& forest = nest_forest();
  std::map<std::uint32_t, std::uint32_t> ctx_of_entry, entry_of_ctx;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const AccessEvent& ev = events[i];
    const Expect& want = expected[i];
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(ev.tid, want.tid);
    EXPECT_EQ(ev.flags, want.locked ? kInLockRegion : 0);
    ASSERT_EQ(forest.depth(ev.ctx), want.loops.size());
    std::uint32_t node = ev.ctx;
    for (std::size_t d = want.loops.size(); d > 0; --d) {
      EXPECT_EQ(forest.loop(node), want.loops[d - 1]) << "depth " << d;
      node = forest.parent(node);
    }
    EXPECT_EQ(node, NestForest::kRoot);
    for (std::size_t k = 0; k < kNestIters; ++k)
      EXPECT_EQ(ev.iters[k], k < want.iters.size() ? want.iters[k] : 0u)
          << "window level " << k;
    // One dynamic entry, one context; every entry a context of its own.
    EXPECT_EQ(ctx_of_entry.emplace(want.entry, ev.ctx).first->second, ev.ctx);
    EXPECT_EQ(entry_of_ctx.emplace(ev.ctx, want.entry).first->second,
              want.entry);
  }
}

// --- session rebinding ----------------------------------------------------

/// Keeps every delivered record with its run length; target threads flush
/// concurrently with the main thread's reads.
class SessionSink : public AccessSink {
 public:
  void on_access(const AccessEvent& ev) override { on_batch(&ev, 1); }
  void on_batch(const AccessEvent* events, std::size_t count) override {
    std::lock_guard lock(mu_);
    for (std::size_t i = 0; i < count; ++i) {
      events_.push_back(events[i]);
      reps_.push_back(1);
    }
  }
  void on_batch_rle(const AccessEvent* events, const std::uint32_t* reps,
                    std::size_t count) override {
    std::lock_guard lock(mu_);
    for (std::size_t i = 0; i < count; ++i) {
      events_.push_back(events[i]);
      reps_.push_back(reps[i]);
    }
  }
  std::size_t records() {
    std::lock_guard lock(mu_);
    return events_.size();
  }
  std::vector<AccessEvent> events_;
  std::vector<std::uint32_t> reps_;

 private:
  std::mutex mu_;
};

TEST_F(RuntimeTest, RebindingThreadTakesTheNewSessionsFlags) {
  // Thread T records under session A and blocks before any flush point.
  // The main thread detaches A and attaches B with the opposite mt and dedup
  // flags.  T's next access rebinds it to B: its unflushed tail from A is
  // dropped, and the events it records from then on carry B's flags.
  for (const bool a_mt : {true, false}) {
    SCOPED_TRACE(a_mt ? "A mt, B dedup" : "A dedup, B mt");
    Runtime& rt = Runtime::instance();
    rt.reset();
    SessionSink a, b;
    std::mutex mu;
    std::condition_variable cv;
    int phase = 0;
    std::uint16_t t_tid = 0;
    int x = 0;
    rt.attach(&a, /*mt_mode=*/a_mt, /*dedup=*/!a_mt);
    std::thread t([&] {
      for (int i = 0; i < 3; ++i) DP_READ(x);
      std::unique_lock lock(mu);
      phase = 1;
      cv.notify_all();
      cv.wait(lock, [&] { return phase == 2; });
      lock.unlock();
      for (int i = 0; i < 2; ++i) DP_READ(x);
      DP_SYNC();
      t_tid = rt.thread_id();
    });
    {
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return phase == 1; });
    }
    rt.detach();
    const std::size_t a_at_detach = a.records();
    rt.attach(&b, /*mt_mode=*/!a_mt, /*dedup=*/a_mt);
    {
      std::lock_guard lock(mu);
      phase = 2;
    }
    cv.notify_all();
    t.join();
    rt.detach();

    EXPECT_EQ(a.records(), a_at_detach) << "A received events after detach()";
    const bool b_mt = !a_mt;
    if (b_mt) {
      // MT session: every event carries a fresh timestamp, no runs.
      ASSERT_EQ(b.events_.size(), 2u);
      EXPECT_GT(b.events_[0].ts, 0u);
      EXPECT_LT(b.events_[0].ts, b.events_[1].ts);
      EXPECT_EQ(b.reps_[0], 1u);
      EXPECT_EQ(b.reps_[1], 1u);
    } else {
      // Dedup session: the two identical reads travel as one run.
      ASSERT_EQ(b.events_.size(), 1u);
      EXPECT_EQ(b.events_[0].ts, 0u);
      EXPECT_EQ(b.reps_[0], 2u);
    }
    for (const AccessEvent& ev : b.events_) {
      EXPECT_EQ(ev.addr, reinterpret_cast<std::uintptr_t>(&x));
      EXPECT_EQ(ev.tid, t_tid);
      EXPECT_TRUE(ev.is_read());
    }
  }
}

TEST_F(RuntimeTest, FlushesAfterDetachNeverReachTheOldSink) {
  // Thread T spends one long record_free call filling and flushing buffers
  // while the main thread detaches.  Inside that call T never rebinds, so
  // only the flush-time session check keeps its later buffers away from
  // the detached sink.
  class ClosableSink final : public AccessSink {
   public:
    void on_access(const AccessEvent& ev) override { on_batch(&ev, 1); }
    void on_batch(const AccessEvent*, std::size_t count) override {
      events_.fetch_add(count, std::memory_order_relaxed);
      if (closed_.load(std::memory_order_relaxed))
        late_.fetch_add(count, std::memory_order_relaxed);
    }
    void close() { closed_.store(true, std::memory_order_relaxed); }
    std::uint64_t events() const {
      return events_.load(std::memory_order_relaxed);
    }
    std::uint64_t late() const { return late_.load(std::memory_order_relaxed); }

   private:
    std::atomic<bool> closed_{false};
    std::atomic<std::uint64_t> events_{0};
    std::atomic<std::uint64_t> late_{0};
  };

  Runtime& rt = Runtime::instance();
  ClosableSink a;
  rt.attach(&a);
  std::thread t([&] {
    // 8M lifetime events; the span is never dereferenced.
    rt.record_free(reinterpret_cast<const void*>(std::uintptr_t{1} << 20),
                   std::size_t{1} << 25);
  });
  while (a.events() == 0) std::this_thread::yield();
  rt.detach();
  a.close();
  t.join();
  EXPECT_EQ(a.late(), 0u) << "a flush reached the sink after detach()";
}

// --- overhead-budget sampling gate ----------------------------------------

/// Minimal sink capturing both the event stream and the detach-time sampling
/// summary (TraceRecorder is final, so the override lives here).
class StatsRecorder : public AccessSink {
 public:
  void on_access(const AccessEvent& ev) override {
    trace_.events.push_back(ev);
  }
  void on_sampling_stats(std::uint64_t events_sampled_out,
                         std::uint64_t bursts,
                         std::uint64_t overhead_ppm) override {
    sampled_out_ = events_sampled_out;
    bursts_ = bursts;
    ppm_ = overhead_ppm;
    reported_ = true;
  }
  Trace trace_;
  std::uint64_t sampled_out_ = 0;
  std::uint64_t bursts_ = 0;
  std::uint64_t ppm_ = 0;
  bool reported_ = false;
};

TEST_F(RuntimeTest, FixedSkipSamplingGatesWholeIterations) {
  SamplingConfig sampling;
  sampling.burst = 1;
  sampling.skip = 1;
  Runtime::instance().attach(&recorder_, false, false, sampling);
  int a = 0;
  DP_LOOP_BEGIN();
  for (int i = 0; i < 4; ++i) {
    DP_LOOP_ITER();
    DP_WRITE(a);
    a = i;
  }
  DP_LOOP_END();
  const Trace& t = capture();
  // B=1/K=1 alternates whole outermost-loop iterations.  The loop entry
  // opens the first (profiled) unit, iteration 1 starts the skipped one, so
  // the kept iterations are 2 and 4 — and each kept event after a gap is
  // preceded by exactly one burst marker.
  ASSERT_EQ(t.events.size(), 4u);
  EXPECT_TRUE(t.events[0].is_burst_mark());
  EXPECT_TRUE(t.events[1].is_write());
  EXPECT_EQ(t.events[1].iters[0], 2u);
  EXPECT_TRUE(t.events[2].is_burst_mark());
  EXPECT_TRUE(t.events[3].is_write());
  EXPECT_EQ(t.events[3].iters[0], 4u);
}

TEST_F(RuntimeTest, AccessesOutsideLoopsBypassTheGate) {
  SamplingConfig sampling;
  sampling.burst = 1;
  sampling.skip = 7;
  Runtime::instance().attach(&recorder_, false, false, sampling);
  int a = 0;
  DP_LOOP_BEGIN();
  DP_LOOP_ITER();  // first skipped unit of the cycle
  DP_WRITE(a);     // dropped
  a = 1;
  DP_LOOP_END();
  DP_READ(a);  // outside any loop: always profiled, behind a gap marker
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_TRUE(t.events[0].is_burst_mark());
  EXPECT_TRUE(t.events[1].is_read());
}

TEST_F(RuntimeTest, SamplingDisabledUnderMtMode) {
  // Cross-thread gaps would need a global cut; the per-thread unit cannot
  // provide one, so mt_mode forces the gate off no matter the config.
  SamplingConfig sampling;
  sampling.burst = 1;
  sampling.skip = 9;
  Runtime::instance().attach(&recorder_, /*mt_mode=*/true, false, sampling);
  int a = 0;
  DP_LOOP_BEGIN();
  for (int i = 0; i < 6; ++i) {
    DP_LOOP_ITER();
    DP_WRITE(a);
    a = i;
  }
  DP_LOOP_END();
  const Trace& t = capture();
  ASSERT_EQ(t.events.size(), 6u);
  for (const auto& e : t.events) EXPECT_FALSE(e.is_burst_mark());
}

TEST_F(RuntimeTest, SamplingOffConfigEmitsNoMarkersOrStats) {
  StatsRecorder sink;
  SamplingConfig sampling;  // budget 1.0, skip 0: entirely off
  Runtime::instance().attach(&sink, false, false, sampling);
  int a = 0;
  DP_LOOP_BEGIN();
  for (int i = 0; i < 4; ++i) {
    DP_LOOP_ITER();
    DP_WRITE(a);
    a = i;
  }
  DP_LOOP_END();
  Runtime::instance().detach();
  EXPECT_EQ(sink.trace_.events.size(), 4u);
  for (const auto& e : sink.trace_.events) EXPECT_FALSE(e.is_burst_mark());
  EXPECT_FALSE(sink.reported_) << "no stats callback when sampling is off";
}

TEST_F(RuntimeTest, SamplingStatsReportedOnDetach) {
  StatsRecorder sink;
  SamplingConfig sampling;
  sampling.burst = 1;
  sampling.skip = 1;
  Runtime::instance().attach(&sink, false, false, sampling);
  int a = 0;
  DP_LOOP_BEGIN();
  for (int i = 0; i < 4; ++i) {
    DP_LOOP_ITER();
    DP_WRITE(a);
    a = i;
  }
  DP_LOOP_END();
  Runtime::instance().detach();
  EXPECT_TRUE(sink.reported_);
  EXPECT_EQ(sink.sampled_out_, 2u);  // the writes of iterations 1 and 3
  EXPECT_EQ(sink.bursts_, 2u);       // one marker per closed gap
  EXPECT_EQ(sink.ppm_, 0u);          // fixed schedule: controller never ran
}

/// Sink whose reported profiling cost is a fixed 3/4 of elapsed wall time —
/// a measured overhead of cost/(wall-cost) = 3, far above any budget — so
/// the adaptive controller must raise the skip count deterministically.
class CostlySink : public AccessSink {
 public:
  CostlySink() : t0_(WallTimer::now()) {}
  void on_access(const AccessEvent&) override {}
  std::uint64_t profiling_cost_ns() const override {
    return (WallTimer::now() - t0_) * 3 / 4;
  }
  void on_sampling_stats(std::uint64_t events_sampled_out,
                         std::uint64_t bursts,
                         std::uint64_t overhead_ppm) override {
    sampled_out_ = events_sampled_out;
    bursts_ = bursts;
    ppm_ = overhead_ppm;
  }
  std::uint64_t sampled_out_ = 0;
  std::uint64_t bursts_ = 0;
  std::uint64_t ppm_ = 0;

 private:
  std::uint64_t t0_;
};

TEST_F(RuntimeTest, AdaptiveControllerThrottlesWhenOverBudget) {
  CostlySink sink;
  SamplingConfig sampling;
  sampling.budget = 0.05;
  sampling.burst = 2;
  Runtime::instance().attach(&sink, false, false, sampling);
  int a = 0;
  for (int round = 0; round < 200; ++round) {
    DP_LOOP_BEGIN();
    for (int i = 0; i < 8; ++i) {
      DP_LOOP_ITER();
      DP_WRITE(a);
      a = i;
    }
    DP_LOOP_END();
  }
  Runtime::instance().detach();
  EXPECT_GT(sink.sampled_out_, 0u) << "controller never raised the skip count";
  EXPECT_GE(sink.bursts_, 1u);
  EXPECT_GT(sink.ppm_, 0u) << "measured overhead never published";
}

}  // namespace
}  // namespace depprof
