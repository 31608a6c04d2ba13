// Queue ablation (Sec. IV / Fig. 5 inset):
//   * micro — per-operation cost of the lock-free SPSC ring, the lock-free
//     MPMC queue, and the mutex queue, single-threaded and with a
//     producer/consumer thread pair;
//   * end-to-end — one representative workload through the parallel
//     pipeline with each queue kind, reporting simulated slowdown.
//
// Paper comparison point: the lock-free design is 1.6x (NAS) / 1.3x
// (Starbench) faster than the lock-based one.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <thread>

#include "core/chunk.hpp"
#include "harness/runner.hpp"
#include "obs/bench_report.hpp"
#include "queue/queues.hpp"
#include "workloads/workload.hpp"

using namespace depprof;

namespace {

void pour_and_drain(benchmark::State& state, QueueKind kind) {
  auto q = make_queue<std::uint64_t>(kind, 1024);
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < 1024; ++i) benchmark::DoNotOptimize(q->try_push(i));
    std::uint64_t v;
    while (q->try_pop(v)) benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}

void BM_SpscPourDrain(benchmark::State& state) {
  pour_and_drain(state, QueueKind::kLockFreeSpsc);
}
BENCHMARK(BM_SpscPourDrain);

void BM_MpmcPourDrain(benchmark::State& state) {
  pour_and_drain(state, QueueKind::kLockFreeMpmc);
}
BENCHMARK(BM_MpmcPourDrain);

void BM_MutexPourDrain(benchmark::State& state) {
  pour_and_drain(state, QueueKind::kMutex);
}
BENCHMARK(BM_MutexPourDrain);

void threaded_transfer(benchmark::State& state, QueueKind kind) {
  constexpr std::uint64_t kItems = 50'000;
  for (auto _ : state) {
    auto q = make_queue<std::uint64_t>(kind, 256);
    std::thread consumer([&] {
      std::uint64_t got = 0, v = 0;
      while (got < kItems) {
        if (q->try_pop(v))
          ++got;
        else
          std::this_thread::yield();
      }
      benchmark::DoNotOptimize(v);
    });
    for (std::uint64_t i = 0; i < kItems; ++i)
      while (!q->try_push(i)) std::this_thread::yield();
    consumer.join();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kItems));
}

void BM_SpscThreaded(benchmark::State& state) {
  threaded_transfer(state, QueueKind::kLockFreeSpsc);
}
BENCHMARK(BM_SpscThreaded)->Unit(benchmark::kMillisecond);

void BM_MpmcThreaded(benchmark::State& state) {
  threaded_transfer(state, QueueKind::kLockFreeMpmc);
}
BENCHMARK(BM_MpmcThreaded)->Unit(benchmark::kMillisecond);

void BM_MutexThreaded(benchmark::State& state) {
  threaded_transfer(state, QueueKind::kMutex);
}
BENCHMARK(BM_MutexThreaded)->Unit(benchmark::kMillisecond);

/// End-to-end: the Fig. 5 lock-based vs lock-free comparison on one NAS
/// analogue, sweeping the chunk size.  Queue costs are per *chunk*, so the
/// lock-based penalty is largest at chunk=1 (one queue operation per
/// access, the regime where the paper's 1.3-1.6x gap lives) and is
/// amortized away by larger chunks.
void end_to_end(obs::BenchReport& report) {
  const Workload* w = find_workload("cg");
  if (w == nullptr) return;
  std::printf("\nEnd-to-end pipeline on '%s' (8 workers), sim slowdown:\n",
              w->name.c_str());
  std::printf("  %-10s %-12s %-15s %s\n", "chunk", "mutex", "lock-free-spsc",
              "mutex/lock-free");
  for (std::size_t chunk : {std::size_t{1}, std::size_t{16}, Chunk::kCapacity}) {
    double sim[2] = {};
    int idx = 0;
    for (QueueKind kind : {QueueKind::kMutex, QueueKind::kLockFreeSpsc}) {
      ProfilerConfig cfg;
      cfg.storage = StorageKind::kSignature;
      cfg.slots = 1u << 17;
      cfg.workers = 8;
      cfg.queue = kind;
      cfg.chunk_size = chunk;
      RunOptions opts;
      opts.parallel_pipeline = true;
      opts.native_reps = 2;
      const RunMeasurement m = profile_workload(*w, cfg, opts);
      sim[idx] = m.simulated_slowdown();
      const char* qname = idx == 0 ? "mutex" : "spsc";
      report.stages(std::string(qname) + "_chunk" + std::to_string(chunk),
                    m.stats.stages);
      ++idx;
    }
    report.metric("mutex_over_lockfree_chunk" + std::to_string(chunk),
                  sim[1] > 0 ? sim[0] / sim[1] : 0.0);
    std::printf("  %-10zu %-12.1f %-15.1f %.2fx\n", chunk, sim[0], sim[1],
                sim[1] > 0 ? sim[0] / sim[1] : 0.0);
  }
  std::printf(
      "\nPaper reference: lock-free queues gave 1.6x (NAS) / 1.3x "
      "(Starbench) over the lock-based design.\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  obs::BenchReport report("ablation_queue");
  end_to_end(report);
  report.write();
  return 0;
}
