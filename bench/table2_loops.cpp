// Table II: detection of parallelizable loops in the NAS analogues.
//
// "# OMP" counts the loops annotated parallel in the OpenMP version of each
// analogue (ground truth); "# identified (DP)" runs the DiscoPoP-style
// analysis on exact (packed-store) dependences; "# identified (sig)" runs the
// same analysis on finite-signature dependences; "# missed" is DP-but-not-
// sig.  The paper's headline: with sufficiently large signatures the sig
// column equals the DP column with zero missed loops.
//
// Usage: table2_loops [--slots N] [--scale N]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/table.hpp"
#include "harness/runner.hpp"
#include "harness/table2.hpp"
#include "obs/bench_report.hpp"
#include "workloads/workload.hpp"

using namespace depprof;

int main(int argc, char** argv) {
  std::size_t slots = 1u << 20;
  int scale = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--slots") == 0 && i + 1 < argc)
      slots = static_cast<std::size_t>(std::atoll(argv[++i]));
    else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc)
      scale = std::atoi(argv[++i]);
  }

  TextTable table("Table II — detection of parallelizable loops (NAS analogues, " +
                  std::to_string(slots) + " slots)");
  table.set_header({"program", "# OMP", "# identified (DP)",
                    "# identified (sig)", "# missed (sig)",
                    "# false-parallel (sig)"});

  unsigned omp = 0, dp = 0, sig = 0, missed = 0, false_par = 0;
  for (const Workload* w : workloads_in_suite("nas")) {
    const Table2Row row = run_table2(*w, slots, scale);
    table.add_row({row.program, std::to_string(row.omp_loops),
                   std::to_string(row.identified_dp),
                   std::to_string(row.identified_sig),
                   std::to_string(row.missed_sig),
                   std::to_string(row.false_parallel_sig)});
    omp += row.omp_loops;
    dp += row.identified_dp;
    sig += row.identified_sig;
    missed += row.missed_sig;
    false_par += row.false_parallel_sig;
  }
  table.add_row({"Overall", std::to_string(omp), std::to_string(dp),
                 std::to_string(sig), std::to_string(missed),
                 std::to_string(false_par)});

  std::ostringstream os;
  table.print(os);
  std::fputs(os.str().c_str(), stdout);
  std::printf("\nCSV:\n%s", table.csv().c_str());
  std::printf(
      "\nPaper reference (Table II): 147 OMP loops, 136 identified by both "
      "DP and sig, 0 missed (92.5%%).\n");

  obs::BenchReport report("table2_loops");
  report.metric("omp_loops", omp);
  report.metric("identified_dp", dp);
  report.metric("identified_sig", sig);
  report.metric("missed_sig", missed);
  report.metric("false_parallel_sig", false_par);
  // run_table2 consumes its profilers internally; profile one NAS workload
  // at the same signature size for the stage breakdown.
  auto nas = workloads_in_suite("nas");
  if (!nas.empty()) {
    ProfilerConfig cfg;
    cfg.storage = StorageKind::kSignature;
    cfg.slots = slots;
    RunOptions opts;
    opts.scale = scale;
    opts.native_reps = 1;
    const RunMeasurement m = profile_workload(*nas.front(), cfg, opts);
    report.stages("serial_sig", m.stats.stages);
  }
  report.write();
  return 0;
}
