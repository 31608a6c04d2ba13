#include "harness/table2.hpp"

#include <algorithm>

#include "analysis/loop_parallelism.hpp"
#include "harness/runner.hpp"
#include "instrument/runtime.hpp"

namespace depprof {
namespace {

/// Maps analyzer verdicts (sorted by begin location, the ControlFlowLog
/// order) onto the workload's ground-truth list and scores them.
struct Scored {
  unsigned identified = 0;      ///< annotated loops found parallelizable
  unsigned false_parallel = 0;  ///< non-annotated loops found parallelizable
};

Scored score(const std::vector<LoopVerdict>& verdicts,
             const std::vector<LoopTruth>& truth) {
  Scored s;
  const std::size_t n = std::min(verdicts.size(), truth.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (truth[i].parallelizable) {
      s.identified += verdicts[i].parallelizable() ? 1 : 0;
    } else {
      s.false_parallel += verdicts[i].parallelizable() ? 1 : 0;
    }
  }
  return s;
}

std::vector<LoopVerdict> analyze_run(const Workload& w,
                                     const ProfilerConfig& cfg, int scale) {
  RunOptions opts;
  opts.scale = scale;
  opts.native_reps = 1;
  RunMeasurement m = profile_workload(w, cfg, opts);
  LoopAnalysisOptions aopts;
  aopts.reduction_lines = Runtime::instance().reduction_lines();
  return analyze_loops(m.deps, m.control_flow, aopts);
}

}  // namespace

Table2Row run_table2(const Workload& w, std::size_t sig_slots, int scale) {
  Table2Row row;
  row.program = w.name;
  for (const auto& t : w.loops) row.omp_loops += t.parallelizable ? 1 : 0;

  ProfilerConfig exact;
  exact.storage = StorageKind::kPacked;
  const auto dp_verdicts = analyze_run(w, exact, scale);
  const Scored dp = score(dp_verdicts, w.loops);
  row.identified_dp = dp.identified;

  ProfilerConfig sig;
  sig.storage = StorageKind::kSignature;
  sig.slots = sig_slots;
  const auto sig_verdicts = analyze_run(w, sig, scale);
  const Scored sg = score(sig_verdicts, w.loops);
  row.identified_sig = sg.identified;
  row.false_parallel_sig = sg.false_parallel;
  row.missed_sig =
      row.identified_dp > row.identified_sig
          ? row.identified_dp - row.identified_sig
          : 0;
  return row;
}

}  // namespace depprof
