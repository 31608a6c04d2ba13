// Capture-and-replay workflow: record a workload's access stream to a trace
// file, then re-profile the same stream under several signature sizes
// without re-running the target — the way one would tune the signature for
// a long-running program.
//
//   $ ./profile_trace [workload] [trace-file]

#include <cstdio>
#include <cstring>
#include <string>

#include "core/detector.hpp"
#include "core/profiler.hpp"
#include "harness/accuracy.hpp"
#include "harness/runner.hpp"
#include "sig/fpr_model.hpp"
#include "trace/trace_io.hpp"
#include "workloads/workload.hpp"

int main(int argc, char** argv) {
  using namespace depprof;

  const char* name = argc > 1 ? argv[1] : "kmeans";
  const char* path = argc > 2 ? argv[2] : "/tmp/depprof_capture.trace";

  const Workload* w = find_workload(name);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", name);
    return 1;
  }

  // 1. Capture.
  const Trace trace = record_workload(*w);
  if (!write_trace(trace, path)) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  const std::size_t n = trace.distinct_addresses();
  std::printf("captured %zu accesses (%zu distinct addresses) to %s\n",
              trace.size(), n, path);

  // 2. Reload and replay under an exact baseline (the packed shadow store).
  Trace loaded;
  std::string error;
  if (!read_trace(loaded, path, &error)) {
    std::fprintf(stderr, "cannot read %s back: %s\n", path, error.c_str());
    return 1;
  }
  ProfilerConfig exact;
  exact.storage = StorageKind::kPacked;
  auto base = make_serial_profiler(exact);
  replay(loaded, *base);
  std::printf("exact baseline: %zu merged dependences\n\n",
              base->dependences().size());

  // 3. Sweep signature sizes against the baseline, next to the formula-2
  //    sizing suggestion.
  std::printf("%-12s %-8s %-8s %-10s\n", "slots", "FPR%", "FNR%", "sig MiB");
  for (std::size_t slots : {n / 4, n, 4 * n, 16 * n}) {
    if (slots == 0) continue;
    ProfilerConfig cfg;
    cfg.storage = StorageKind::kSignature;
    cfg.slots = slots;
    auto prof = make_serial_profiler(cfg);
    replay(loaded, *prof);
    const AccuracyResult acc = compare_deps(base->dependences(), prof->dependences());
    std::printf("%-12zu %-8.2f %-8.2f %-10.2f\n", slots, acc.fpr_percent(),
                acc.fnr_percent(),
                static_cast<double>(prof->stats().signature_bytes) / 1048576.0);
  }
  std::printf("\nformula-2 sizing for 1%% slot-occupancy: %zu slots\n",
              slots_for_target_fpr(n, 0.01));
  return 0;
}
