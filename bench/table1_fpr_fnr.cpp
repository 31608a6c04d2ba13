// Table I: false positive and false negative rates of profiled dependences
// for the Starbench analogues under three signature sizes, measured against
// the perfect signature (the exact packed shadow store, a table where each
// memory address has its own entry).
//
// The paper uses 1e6 / 1e7 / 1e8 slots against benchmark runs touching
// 4e2..6e6 distinct addresses.  Our analogues touch ~1e2-1e3x fewer
// addresses (laptop-scale inputs), so the default sweep scales the slot
// counts down by 1e2 (1e4 / 1e5 / 1e6) to land in the same n/m regime; the
// paper's absolute sizes can be requested with --paper-slots.
//
// Usage: table1_fpr_fnr [--scale N] [--paper-slots]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "harness/accuracy.hpp"
#include "harness/runner.hpp"
#include "obs/bench_report.hpp"
#include "workloads/workload.hpp"

using namespace depprof;

int main(int argc, char** argv) {
  int scale = 1;
  bool paper_slots = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc)
      scale = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--paper-slots") == 0)
      paper_slots = true;
  }
  const std::size_t slots[3] = {
      paper_slots ? 1'000'000u : 10'000u,
      paper_slots ? 10'000'000u : 100'000u,
      paper_slots ? 100'000'000u : 1'000'000u,
  };

  TextTable table("Table I — FPR/FNR of profiled dependences (Starbench analogues)");
  table.set_header({"program", "#addresses", "#accesses", "#deps",
                    "FPR@" + std::to_string(slots[0]),
                    "FNR@" + std::to_string(slots[0]),
                    "FPR@" + std::to_string(slots[1]),
                    "FNR@" + std::to_string(slots[1]),
                    "FPR@" + std::to_string(slots[2]),
                    "FNR@" + std::to_string(slots[2])});

  StatAccumulator avg_fpr[3], avg_fnr[3];
  obs::BenchReport report("table1_fpr_fnr");
  obs::PipelineSnapshot last_stages;  // largest-slot signature run

  auto suite = workloads_in_suite("starbench");
  for (const Workload* w : suite) {
    RunOptions opts;
    opts.scale = scale;
    opts.native_reps = 1;

    // Trace statistics for the "# addresses" / "# accesses" columns.
    const Trace trace = record_workload(*w, opts);
    const std::size_t addresses = trace.distinct_addresses();
    const std::size_t accesses = trace.size();

    // Exact baseline.
    ProfilerConfig exact;
    exact.storage = StorageKind::kPacked;
    RunMeasurement base = profile_workload(*w, exact, opts);

    std::vector<std::string> row = {w->name, std::to_string(addresses),
                                    std::to_string(accesses),
                                    std::to_string(base.deps.size())};
    for (int s = 0; s < 3; ++s) {
      ProfilerConfig sig;
      sig.storage = StorageKind::kSignature;
      sig.slots = slots[s];
      RunMeasurement m = profile_workload(*w, sig, opts);
      if (s == 2) last_stages = m.stats.stages;
      const AccuracyResult acc = compare_deps(base.deps, m.deps);
      avg_fpr[s].add(acc.fpr_percent());
      avg_fnr[s].add(acc.fnr_percent());
      row.push_back(TextTable::num(acc.fpr_percent()));
      row.push_back(TextTable::num(acc.fnr_percent()));
    }
    table.add_row(std::move(row));
  }

  std::vector<std::string> avg = {"average", "-", "-", "-"};
  for (int s = 0; s < 3; ++s) {
    avg.push_back(TextTable::num(avg_fpr[s].mean()));
    avg.push_back(TextTable::num(avg_fnr[s].mean()));
  }
  table.add_row(std::move(avg));

  std::ostringstream os;
  table.print(os);
  std::fputs(os.str().c_str(), stdout);
  std::printf("\nCSV:\n%s", table.csv().c_str());
  std::printf(
      "\nPaper reference (Table I averages): FPR 24.47/4.71/0.35 %%, "
      "FNR 5.42/0.71/0.04 %% at 1e6/1e7/1e8 slots.\n");

  for (int s = 0; s < 3; ++s) {
    report.metric("avg_fpr_at_" + std::to_string(slots[s]), avg_fpr[s].mean());
    report.metric("avg_fnr_at_" + std::to_string(slots[s]), avg_fnr[s].mean());
  }
  if (!last_stages.empty())
    report.stages("serial_sig_" + std::to_string(slots[2]), last_stages);
  report.write();
  return 0;
}
