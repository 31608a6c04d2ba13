// Communication-pattern detection (Sec. VII-B): profile a multi-threaded
// target with the MT pipeline and render the producer/consumer matrix
// derived from cross-thread RAW dependences — the Fig. 9 workflow.
//
//   $ ./comm_pattern [workload] [--threads N]
//
// Default: water-spatial (the paper's Fig. 9 subject) with 8 threads.

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "analysis/comm_matrix.hpp"
#include "harness/runner.hpp"
#include "workloads/workload.hpp"

int main(int argc, char** argv) {
  using namespace depprof;

  const char* name = "water-spatial";
  unsigned threads = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
      threads = static_cast<unsigned>(std::atoi(argv[++i]));
    else
      name = argv[i];
  }

  const Workload* w = find_workload(name);
  if (w == nullptr || !w->run_parallel) {
    std::fprintf(stderr, "'%s' has no parallel variant; options:\n", name);
    for (const Workload* p : parallel_workloads())
      std::fprintf(stderr, "  %s\n", p->name.c_str());
    return 1;
  }

  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPacked;  // exact dependences for the figure
  cfg.mt_targets = true;
  cfg.workers = 4;
  cfg.queue = QueueKind::kLockFreeMpmc;

  RunOptions opts;
  opts.target_threads = threads;
  opts.parallel_pipeline = true;
  opts.native_reps = 1;
  const RunMeasurement m = profile_workload(*w, cfg, opts);

  const CommMatrix matrix = build_comm_matrix(m.deps, threads + 1);
  std::printf("communication pattern of %s (%u target threads; thread 0 is "
              "the main thread):\n\n",
              w->name.c_str(), threads);
  std::fputs(format_comm_matrix(matrix).c_str(), stdout);
  std::printf("\ncross-thread RAW instances: %llu\n",
              static_cast<unsigned long long>(matrix.total()));
  return 0;
}
