// Slot-index ablation: modulo indexing (paper-style, the default) vs a
// strong 64-bit mixing hash, measured as end-to-end dependence FPR/FNR on
// the Starbench analogues.
//
// Under modulo indexing, a collision partner is the deterministic address m
// slots away — usually an element of the same data structure touched at the
// same source lines, so the fabricated record coincides with a true one and
// the measured FPR collapses as m grows.  A mixing hash randomizes partners
// across structures: every representable false line-pair eventually gets
// realized and FPR saturates.  This is why bounded FPR at modest signature
// sizes (Table I) depends on the indexing choice, not only on occupancy.

#include <cstdio>
#include <cstdlib>
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
  std::size_t slots = 100'000;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--scale" && i + 1 < argc)
      scale = std::atoi(argv[++i]);
    else if (std::string(argv[i]) == "--slots" && i + 1 < argc)
      slots = static_cast<std::size_t>(std::atoll(argv[++i]));
  }

  TextTable table("Slot-index ablation — FPR/FNR at " + std::to_string(slots) +
                  " slots");
  table.set_header({"program", "FPR modulo", "FNR modulo", "FPR mix", "FNR mix"});
  StatAccumulator fpr_mod, fnr_mod, fpr_mix, fnr_mix;
  obs::BenchReport report("ablation_sighash");
  obs::PipelineSnapshot last_stages[2];  // modulo / mix

  for (const Workload* w : workloads_in_suite("starbench")) {
    RunOptions opts;
    opts.scale = scale;
    opts.native_reps = 1;

    ProfilerConfig exact;
    exact.storage = StorageKind::kPacked;
    const RunMeasurement base = profile_workload(*w, exact, opts);

    AccuracyResult acc[2];
    const SigHash hashes[2] = {SigHash::kModulo, SigHash::kMix};
    for (int h = 0; h < 2; ++h) {
      ProfilerConfig cfg;
      cfg.storage = StorageKind::kSignature;
      cfg.slots = slots;
      cfg.sig_hash = hashes[h];
      const RunMeasurement m = profile_workload(*w, cfg, opts);
      acc[h] = compare_deps(base.deps, m.deps);
      last_stages[h] = m.stats.stages;
    }
    fpr_mod.add(acc[0].fpr_percent());
    fnr_mod.add(acc[0].fnr_percent());
    fpr_mix.add(acc[1].fpr_percent());
    fnr_mix.add(acc[1].fnr_percent());
    table.add_row({w->name, TextTable::num(acc[0].fpr_percent()),
                   TextTable::num(acc[0].fnr_percent()),
                   TextTable::num(acc[1].fpr_percent()),
                   TextTable::num(acc[1].fnr_percent())});
  }
  table.add_row({"average", TextTable::num(fpr_mod.mean()),
                 TextTable::num(fnr_mod.mean()), TextTable::num(fpr_mix.mean()),
                 TextTable::num(fnr_mix.mean())});

  std::ostringstream os;
  table.print(os);
  std::fputs(os.str().c_str(), stdout);
  std::printf("\nCSV:\n%s", table.csv().c_str());

  report.metric("avg_fpr_modulo", fpr_mod.mean());
  report.metric("avg_fnr_modulo", fnr_mod.mean());
  report.metric("avg_fpr_mix", fpr_mix.mean());
  report.metric("avg_fnr_mix", fnr_mix.mean());
  if (!last_stages[0].empty()) report.stages("modulo", last_stages[0]);
  if (!last_stages[1].empty()) report.stages("mix", last_stages[1]);
  report.write();
  return 0;
}
