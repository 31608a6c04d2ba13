// Concurrency stress tests for the parallel pipeline's producer and
// migration paths (ISSUE 2).  These are the TSan targets for the fixed
// races: the producer-slot publication in producer_for (formerly an
// unsynchronized double-checked load), the per-tid producer registry for
// thread ids beyond the fast-slot array (formerly all aliased one slot),
// the migration-mailbox handoff, and the parked-wait shutdown protocol.
// Queue capacities are deliberately tiny so every push exercises the
// bounded-backpressure wait and its wake hooks.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/formatter.hpp"
#include "core/profiler.hpp"
#include "harness/accuracy.hpp"
#include "instrument/runtime.hpp"
#include "queue/wait_strategy.hpp"
#include "trace/generators.hpp"
#include "trace/trace.hpp"

namespace depprof {
namespace {

bool same_deps(const DepMap& a, const DepMap& b) {
  const AccuracyResult r = compare_deps(a, b);
  return r.false_positives == 0 && r.false_negatives == 0 &&
         a.size() == b.size();
}

/// Deterministic per-thread access stream over a private address range:
/// writes then re-reads with a one-slot shift, producing RAW, WAR, and WAW
/// dependences whose endpoints carry `tid`.
std::vector<AccessEvent> thread_stream(std::uint16_t tid, std::uint64_t base,
                                       std::size_t rounds, std::size_t addrs) {
  std::vector<AccessEvent> evs;
  evs.reserve(rounds * addrs * 2);
  std::uint64_t ts = static_cast<std::uint64_t>(tid) << 32;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < addrs; ++i) {
      AccessEvent wv;
      wv.addr = base + i * 8;
      wv.kind = AccessKind::kWrite;
      wv.loc = SourceLocation(7, 10 + static_cast<std::uint32_t>(i % 5)).packed();
      wv.tid = tid;
      wv.ts = ++ts;
      evs.push_back(wv);
      AccessEvent rd;
      rd.addr = base + ((i + 1) % addrs) * 8;
      rd.kind = AccessKind::kRead;
      rd.loc = SourceLocation(7, 20 + static_cast<std::uint32_t>(i % 3)).packed();
      rd.tid = tid;
      rd.ts = ++ts;
      evs.push_back(rd);
    }
  }
  return evs;
}

// >= 8 concurrent target threads — thread ids straddling the old
// kMaxProducers=256 clamp, so several land in the mutex-guarded registry —
// each registering its producer while pushing through capacity-2 MPMC
// queues.  Address ranges are disjoint, so the merged map must equal a
// serial replay of the concatenated streams regardless of interleaving,
// for every wait strategy.
TEST(ParallelStress, ConcurrentProducersHighTidsTinyQueues) {
  constexpr std::uint16_t kTids[] = {3, 77, 255, 256, 300, 511, 1000, 40000};
  constexpr std::size_t kThreads = sizeof(kTids) / sizeof(kTids[0]);
  // Sized for the worst case: kSpin on a single-core host makes every
  // blocked push burn a scheduler quantum, so chunk count — not event
  // count — bounds the runtime (also under TSan in CI).
  constexpr std::size_t kRounds = 12;
  constexpr std::size_t kAddrs = 16;

  std::vector<std::vector<AccessEvent>> streams;
  Trace serial_trace;
  for (std::size_t i = 0; i < kThreads; ++i) {
    streams.push_back(thread_stream(kTids[i], 0x100000 + i * 0x10000, kRounds,
                                    kAddrs));
    serial_trace.events.insert(serial_trace.events.end(), streams[i].begin(),
                               streams[i].end());
  }

  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPerfect;
  cfg.mt_targets = true;
  auto serial = make_serial_profiler(cfg);
  replay(serial_trace, *serial);

  for (WaitKind wait : {WaitKind::kSpin, WaitKind::kYield, WaitKind::kPark}) {
    cfg.workers = 4;
    cfg.chunk_size = 4;
    cfg.queue_capacity = 2;
    cfg.wait = wait;
    auto prof = make_parallel_profiler(cfg);
    ASSERT_NE(prof, nullptr);

    std::vector<std::thread> producers;
    for (std::size_t i = 0; i < kThreads; ++i)
      producers.emplace_back([&, i] {
        const std::vector<AccessEvent>& evs = streams[i];
        constexpr std::size_t kBatch = 16;
        for (std::size_t off = 0; off < evs.size(); off += kBatch)
          prof->on_batch(evs.data() + off,
                         std::min(kBatch, evs.size() - off));
      });
    for (auto& t : producers) t.join();
    prof->finish();

    const ProfilerStats st = prof->stats();
    const std::uint64_t total = kThreads * kRounds * kAddrs * 2;
    // No event may be lost or duplicated by producer registration races.
    EXPECT_EQ(st.events, total) << "wait=" << wait_kind_name(wait);
    EXPECT_EQ(st.stages.detect_events(), total) << "wait=" << wait_kind_name(wait);
    EXPECT_TRUE(same_deps(serial->dependences(), prof->dependences()))
        << "wait=" << wait_kind_name(wait);
  }
}

// Aggressive load-balancer migrations through capacity-2 queues: the
// mailbox handoff (including its parked wait and wake hooks) must never
// corrupt per-address signature state.
TEST(ParallelStress, MigrationsUnderTinyQueuesPreserveDeps) {
  GenParams p;
  p.accesses = 120'000;
  p.distinct = 1'000;
  const Trace t = gen_zipf(p, 1.4);

  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPerfect;
  const DepMap serial = [&] {
    auto s = make_serial_profiler(cfg);
    replay(t, *s);
    return s->take_dependences();
  }();

  for (WaitKind wait : {WaitKind::kYield, WaitKind::kPark}) {
    cfg.workers = 4;
    cfg.chunk_size = 8;
    cfg.queue_capacity = 2;
    cfg.wait = wait;
    cfg.load_balance.enabled = true;
    cfg.load_balance.eval_interval_chunks = 100;
    cfg.load_balance.imbalance_threshold = 1.02;
    cfg.load_balance.top_k = 10;
    cfg.load_balance.max_rounds = 64;
    auto prof = make_parallel_profiler(cfg);
    replay(t, *prof);

    const ProfilerStats st = prof->stats();
    EXPECT_GT(st.migrated_addresses, 0u)
        << "migration path not exercised, wait=" << wait_kind_name(wait);
    EXPECT_TRUE(same_deps(serial, prof->dependences()))
        << "wait=" << wait_kind_name(wait);
  }
}

// Workers parked on empty queues must be woken by the stop sentinels: a
// profiler dropped (or finished) while all workers sleep must terminate
// rather than hang.  The ctest timeout is the hang detector.
TEST(ParallelStress, ShutdownWakesParkedWorkers) {
  for (int round = 0; round < 4; ++round) {
    ProfilerConfig cfg;
    cfg.storage = StorageKind::kPerfect;
    cfg.workers = 4;
    cfg.wait = WaitKind::kPark;
    auto prof = make_parallel_profiler(cfg);
    AccessEvent e;
    e.addr = 0x1000;
    e.kind = AccessKind::kWrite;
    e.loc = SourceLocation(1, 1).packed();
    prof->on_access(e);
    // Let every worker drain its queue and park before shutdown.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (round % 2 == 0)
      prof->finish();
    // Odd rounds: destructor-only shutdown must also wake parked workers.
  }
}

// The parked strategy must actually park under starvation — the counters
// the backpressure layer reports have to reflect the blocking that
// happened (produce block time under a full queue, worker parks while
// starved).
TEST(ParallelStress, BackpressureCountersReflectBlocking) {
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPerfect;
  cfg.workers = 2;
  cfg.chunk_size = 1;
  cfg.queue_capacity = 1;
  cfg.wait = WaitKind::kPark;
  auto prof = make_parallel_profiler(cfg);

  // Starve the workers first so they run through spin -> yield -> park.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  GenParams p;
  p.accesses = 40'000;
  p.distinct = 64;
  const Trace t = gen_uniform(p);
  replay(t, *prof);

  const ProfilerStats st = prof->stats();
  const obs::StageSnapshot* produce = st.stages.find("produce");
  ASSERT_NE(produce, nullptr);
  EXPECT_GT(produce->stalls, 0u);
  EXPECT_GT(produce->block_ns, 0u);
  std::uint64_t worker_parks = 0, worker_idle = 0;
  for (const auto& s : st.stages.stages)
    if (s.stage.rfind("detect", 0) == 0) {
      worker_parks += s.parks;
      worker_idle += s.idle_ns;
    }
  EXPECT_GT(worker_parks, 0u);  // the pre-replay starvation guarantees parks
  EXPECT_GT(worker_idle, 0u);
}

// An explicit pool_chunks below the liveness floor (workers + 2) could
// deadlock the sealed pool: the producer stages its only chunk for one
// worker, then blocks forever acquiring one for the next — the pending
// chunk never flushes while the producer is blocked, and the workers have
// nothing to recycle.  Overhead-budget sampling makes the quiescent-producer
// window routine (a skipped unit produces nothing), so the plan must clamp
// the population up to the floor.  The ctest timeout is the hang detector.
TEST(ParallelStress, UndersizedSealedPoolIsClampedNotDeadlocked) {
  GenParams p;
  p.accesses = 60'000;
  p.distinct = 256;
  const Trace t = gen_uniform(p);

  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPerfect;
  const DepMap serial = [&] {
    auto s = make_serial_profiler(cfg);
    replay(t, *s);
    return s->take_dependences();
  }();

  cfg.workers = 8;  // oversubscribed on most CI hosts
  cfg.chunk_size = 4;
  cfg.queue_capacity = 2;
  cfg.pool_chunks = 1;  // far below the workers + 2 floor
  cfg.wait = WaitKind::kPark;
  auto prof = make_parallel_profiler(cfg);
  // Bursty delivery with quiescent windows in between — the schedule a
  // mid-burst skip produces on a live run.
  constexpr std::size_t kBatch = 32;
  for (std::size_t off = 0; off < t.events.size(); off += kBatch) {
    prof->on_batch(t.events.data() + off,
                   std::min(kBatch, t.events.size() - off));
    if ((off / kBatch) % 64 == 0)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  prof->finish();
  EXPECT_TRUE(same_deps(serial, prof->dependences()));
}

// Target threads keep calling into the runtime while the main thread
// attaches and detaches profilers with changing flags.  Each hammer rebinds
// to every new session at its next access, and its flush points (full
// buffers, sync points) race the detach handshake.  TSan watches the
// handshake and the rebinding; the assertions check that no event is
// delivered to a sink after its detach() returned.
TEST(ParallelStress, DetachUnderLoad) {
  /// Counts deliveries and flags any that arrive after detach() completed.
  class ClosableSink final : public AccessSink {
   public:
    void on_access(const AccessEvent&) override { on_batch(nullptr, 1); }
    void on_batch(const AccessEvent*, std::size_t count) override {
      events_.fetch_add(count, std::memory_order_relaxed);
      if (closed_.load(std::memory_order_relaxed))
        late_.fetch_add(count, std::memory_order_relaxed);
    }
    void finish() override {}
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
  std::atomic<bool> stop{false};
  std::vector<std::thread> hammers;
  static int cells[64];
  for (int t = 0; t < 4; ++t)
    hammers.emplace_back([&, t] {
      std::uint32_t line = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 64; ++i)
          rt.record(&cells[(t * 16 + i) % 64], 4, 1, 1 + line % 1000,
                    1, i % 2 == 0);
        rt.record_free(&cells[t * 16], 8);
        rt.sync_point();
        ++line;
      }
    });

  std::uint64_t total = 0;
  for (int cycle = 0; cycle < 50; ++cycle) {
    ClosableSink sink;
    // Cycle the session flags (mt on/off x dedup on/off) so every hammer
    // rebinds through each combination while it records.
    rt.attach(&sink, /*mt_mode=*/cycle % 2 == 0, /*dedup=*/cycle % 4 >= 2);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    rt.detach();
    sink.close();
    // Give the hammers a beat: any still-unsynchronized record path would
    // now flush into the closed (stack-dead after this iteration) sink.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    EXPECT_EQ(sink.late(), 0u) << "events delivered after detach";
    total += sink.events();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : hammers) th.join();
  rt.reset();
  EXPECT_GT(total, 0u);  // the cycles actually observed traffic
}

}  // namespace
}  // namespace depprof
