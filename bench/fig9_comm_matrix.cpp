// Fig. 9: communication pattern of the water-spatial analogue.
//
// Profiles the pthread water-spatial kernel with the MT pipeline and renders
// the producer/consumer matrix built from cross-thread RAW dependences.
// The expected shape is the paper's banded pattern: strong neighbour
// (t -> t±1) communication from halo exchange, plus weak scattered traffic
// from the global reduction.
//
// Usage: fig9_comm_matrix [--threads N] [--scale N]

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "analysis/comm_matrix.hpp"
#include "harness/runner.hpp"
#include "obs/bench_report.hpp"
#include "workloads/workload.hpp"

using namespace depprof;

int main(int argc, char** argv) {
  unsigned threads = 8;
  int scale = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
      threads = static_cast<unsigned>(std::atoi(argv[++i]));
    else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc)
      scale = std::atoi(argv[++i]);
  }

  const Workload* w = find_workload("water-spatial");
  if (w == nullptr || !w->run_parallel) {
    std::fprintf(stderr, "water-spatial workload unavailable\n");
    return 1;
  }

  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPacked;  // exact deps for the pattern figure
  cfg.mt_targets = true;
  cfg.workers = 4;
  cfg.queue = QueueKind::kLockFreeMpmc;

  RunOptions opts;
  opts.scale = scale;
  opts.target_threads = threads;
  opts.parallel_pipeline = true;
  opts.native_reps = 1;

  RunMeasurement m = profile_workload(*w, cfg, opts);
  // Target thread ids: 0 is the coordinating main thread, workers 1..T.
  // As in the paper's figure, the matrix shows the worker threads only;
  // the main thread contributes one-shot initialization traffic.
  const CommMatrix full = build_comm_matrix(m.deps, threads + 1);
  CommMatrix matrix;
  matrix.counts.assign(threads, std::vector<std::uint64_t>(threads, 0));
  for (unsigned p = 0; p < threads; ++p)
    for (unsigned c = 0; c < threads; ++c)
      matrix.counts[p][c] = full.counts[p + 1][c + 1];

  std::printf("Fig. 9 — communication pattern of water-spatial (%u target threads)\n\n",
              threads);
  std::fputs(format_comm_matrix(matrix).c_str(), stdout);
  std::printf("\ntotal cross-thread RAW instances: %llu\n",
              static_cast<unsigned long long>(matrix.total()));

  std::printf("\nCSV (producer,consumer,count):\n");
  for (unsigned p = 0; p < matrix.threads(); ++p)
    for (unsigned c = 0; c < matrix.threads(); ++c)
      if (matrix.counts[p][c])
        std::printf("%u,%u,%llu\n", p, c,
                    static_cast<unsigned long long>(matrix.counts[p][c]));

  std::printf(
      "\nPaper reference: banded neighbour pattern (halo exchange) as in "
      "Fig. 9; expect strong (t, t+-1 mod T) cells.\n");

  obs::BenchReport report("fig9_comm_matrix");
  report.metric("target_threads", threads);
  report.metric("cross_thread_raw_instances",
                static_cast<double>(matrix.total()));
  report.stages("mt_pipeline", m.stats.stages);
  report.write();
  return 0;
}
