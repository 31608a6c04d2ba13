#pragma once
// Table II harness support: parallelizable-loop detection per workload.
//
// For one workload the harness runs the loop-parallelism analysis twice —
// once on exact dependences from the packed shadow store (the paper's
// "perfect signature"; the "DiscoPoP (DP)" column: the tool's own
// collision-free profiling component) and once on finite-
// signature dependences (the "(sig)" column) — and scores both against the
// workload's ground truth (the loops annotated parallel in the OpenMP
// version of the analogue).

#include <string>
#include <vector>

#include "core/profiler.hpp"
#include "workloads/workload.hpp"

namespace depprof {

struct Table2Row {
  std::string program;
  unsigned omp_loops = 0;        ///< loops annotated parallel (ground truth)
  unsigned identified_dp = 0;    ///< of those, found parallelizable w/ exact deps
  unsigned identified_sig = 0;   ///< of those, found parallelizable w/ signature deps
  unsigned missed_sig = 0;       ///< identified by DP but not by sig
  unsigned false_parallel_sig = 0;  ///< non-annotated loops wrongly marked parallel
};

/// Runs the Table II experiment for one workload.  `sig_slots` configures
/// the finite signature; the DP column always uses the exact packed store.
Table2Row run_table2(const Workload& w, std::size_t sig_slots, int scale = 1);

}  // namespace depprof
