// Fig. 8: memory consumption of the profiler on *parallel* Starbench
// analogues (pthread version, 4 target threads): naive (a chained
// per-address hash table) vs 8 and 16 profiling threads.
//
// MT profiling costs more than sequential profiling because of the wider
// MtSlot layout (thread id + timestamp per slot, Sec. V), the MPMC queues,
// and the extended dependence representation — the same reasons the paper
// gives (995 MiB / 1920 MiB vs 505/1390 sequential).
//
// Usage: fig8_memory_par [--scale N] [--slots-per-worker N] [--target-threads N]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/mem_stats.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "harness/runner.hpp"
#include "obs/bench_report.hpp"
#include "workloads/workload.hpp"

using namespace depprof;

namespace {

double mib(std::int64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace

int main(int argc, char** argv) {
  int scale = 1;
  std::size_t slots_per_worker = 125'000;
  unsigned target_threads = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc)
      scale = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--slots-per-worker") == 0 && i + 1 < argc)
      slots_per_worker = static_cast<std::size_t>(std::atoll(argv[++i]));
    else if (std::strcmp(argv[i], "--target-threads") == 0 && i + 1 < argc)
      target_threads = static_cast<unsigned>(std::atoi(argv[++i]));
  }

  TextTable table("Fig. 8 — profiler memory on parallel Starbench targets (MiB)");
  table.set_header({"program", "naive", "8T", "16T"});
  StatAccumulator avg_naive, avg8, avg16;
  obs::BenchReport report("fig8_memory_par");
  obs::PipelineSnapshot last_stages[2];

  for (const Workload* w : workloads_in_suite("starbench")) {
    if (!w->run_parallel) continue;

    RunOptions opts;
    opts.scale = scale;
    opts.target_threads = target_threads;
    opts.native_reps = 1;

    // Naive baseline: exact per-address table behind the MT pipeline (the
    // serial profiler is single-producer only).
    ProfilerConfig naive;
    naive.storage = StorageKind::kHashTable;
    naive.slots = 1u << 16;
    naive.mt_targets = true;
    naive.workers = 1;
    naive.queue = QueueKind::kLockFreeMpmc;
    RunOptions nopts = opts;
    nopts.parallel_pipeline = true;
    const RunMeasurement mn = profile_workload(*w, naive, nopts);
    const double naive_mib = mib(mn.peak_component_bytes);

    double peak[2] = {};
    const unsigned workers[2] = {8, 16};
    for (int c = 0; c < 2; ++c) {
      ProfilerConfig cfg;
      cfg.storage = StorageKind::kSignature;
      cfg.slots = slots_per_worker;
      cfg.mt_targets = true;
      cfg.workers = workers[c];
      cfg.queue = QueueKind::kLockFreeMpmc;
      RunOptions popts = opts;
      popts.parallel_pipeline = true;
      const RunMeasurement m = profile_workload(*w, cfg, popts);
      peak[c] = mib(m.peak_component_bytes);
      last_stages[c] = m.stats.stages;
    }

    avg_naive.add(naive_mib);
    avg8.add(peak[0]);
    avg16.add(peak[1]);
    table.add_row({w->name, TextTable::num(naive_mib), TextTable::num(peak[0]),
                   TextTable::num(peak[1])});
  }
  table.add_row({"average", TextTable::num(avg_naive.mean()),
                 TextTable::num(avg8.mean()), TextTable::num(avg16.mean())});

  std::ostringstream os;
  table.print(os);
  std::fputs(os.str().c_str(), stdout);
  std::printf("\nCSV:\n%s", table.csv().c_str());
  std::printf("\nprocess max RSS: %.2f MiB\n", mib(MemStats::process_max_rss()));
  std::printf(
      "\nPaper reference (Fig. 8): 995 MiB (8T) and 1920 MiB (16T) on "
      "average — higher than the sequential Fig. 7 because of MT slots, "
      "MPMC queues, and thread-extended dependence records.\n");

  report.metric("avg_naive_mib", avg_naive.mean());
  report.metric("avg_8T_mib", avg8.mean());
  report.metric("avg_16T_mib", avg16.mean());
  if (!last_stages[0].empty()) report.stages("8T_mpmc", last_stages[0]);
  if (!last_stages[1].empty()) report.stages("16T_mpmc", last_stages[1]);
  report.write();
  return 0;
}
