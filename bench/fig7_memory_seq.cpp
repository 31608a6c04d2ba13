// Fig. 7: memory consumption of the profiler on sequential NAS and
// Starbench analogues: naive (a chained per-address hash table) vs 8-worker
// and 16-worker lock-free configurations with a fixed *aggregate* signature
// budget.
//
// As in the paper, the slot count is fixed *per worker* (the paper uses
// 6.25e6 per thread, 1e8 aggregate over 16 threads), so the 16-worker
// configuration costs twice the signature memory of the 8-worker one — the
// Fig. 7 shape.  Component-exact bytes (signatures, queues and chunks,
// dependence maps) and the in-process peak are reported.
//
// Usage: fig7_memory_seq [--scale N] [--slots-per-worker N]

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
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc)
      scale = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--slots-per-worker") == 0 && i + 1 < argc)
      slots_per_worker = static_cast<std::size_t>(std::atoll(argv[++i]));
  }

  TextTable table("Fig. 7 — profiler memory on sequential targets (MiB, " +
                  std::to_string(slots_per_worker) + " slots/worker)");
  table.set_header({"program", "suite", "naive", "8T_lock-free", "16T_lock-free",
                    "sig8", "queues8", "deps8"});

  StatAccumulator avg_naive[2], avg8[2], avg16[2];
  obs::BenchReport report("fig7_memory_seq");
  obs::PipelineSnapshot last_stages[2];  // 8T / 16T of last workload

  for (const Workload& wl : all_workloads()) {
    const Workload* w = &wl;
    if (w->suite != "nas" && w->suite != "starbench") continue;
    const int s = w->suite == "nas" ? 0 : 1;

    RunOptions opts;
    opts.scale = scale;
    opts.native_reps = 1;

    // Naive: exact per-address table, serial.  The chained hash table
    // charges its real nodes plus the 2^16-bucket array.
    ProfilerConfig naive;
    naive.storage = StorageKind::kHashTable;
    naive.slots = 1u << 16;
    const RunMeasurement mn = profile_workload(*w, naive, opts);
    const double naive_mib = mib(mn.peak_component_bytes);

    double peak[2] = {}, sig8 = 0, q8 = 0, d8 = 0;
    const unsigned workers[2] = {8, 16};
    for (int c = 0; c < 2; ++c) {
      ProfilerConfig cfg;
      cfg.storage = StorageKind::kSignature;
      cfg.slots = slots_per_worker;
      cfg.workers = workers[c];
      cfg.queue = QueueKind::kLockFreeSpsc;
      RunOptions popts = opts;
      popts.parallel_pipeline = true;
      const RunMeasurement m = profile_workload(*w, cfg, popts);
      peak[c] = mib(m.peak_component_bytes);
      last_stages[c] = m.stats.stages;
      if (c == 0) {
        sig8 = mib(m.component_bytes[static_cast<unsigned>(MemComponent::kSignatures)]);
        q8 = mib(m.component_bytes[static_cast<unsigned>(MemComponent::kQueues)]);
        d8 = mib(m.component_bytes[static_cast<unsigned>(MemComponent::kDepMaps)]);
      }
    }

    avg_naive[s].add(naive_mib);
    avg8[s].add(peak[0]);
    avg16[s].add(peak[1]);
    table.add_row({w->name, w->suite, TextTable::num(naive_mib),
                   TextTable::num(peak[0]), TextTable::num(peak[1]),
                   TextTable::num(sig8), TextTable::num(q8),
                   TextTable::num(d8)});
  }

  const char* labels[2] = {"NAS-average", "Starbench-average"};
  for (int s = 0; s < 2; ++s) {
    table.add_row({labels[s], "-", TextTable::num(avg_naive[s].mean()),
                   TextTable::num(avg8[s].mean()), TextTable::num(avg16[s].mean()),
                   "-", "-", "-"});
  }

  std::ostringstream os;
  table.print(os);
  std::fputs(os.str().c_str(), stdout);
  std::printf("\nCSV:\n%s", table.csv().c_str());
  std::printf("\nprocess max RSS: %.2f MiB\n", mib(MemStats::process_max_rss()));
  std::printf(
      "\nPaper reference (Fig. 7): 473/505 MiB (8T), 649/1390 MiB (16T) for "
      "NAS/Starbench at 6.25e6 slots per worker; more workers => more "
      "signature memory, naive grows with the address footprint.\n");

  const char* suite_keys[2] = {"nas", "starbench"};
  for (int s = 0; s < 2; ++s) {
    if (avg_naive[s].count() == 0) continue;
    report.metric(std::string(suite_keys[s]) + "_avg_naive_mib",
                  avg_naive[s].mean());
    report.metric(std::string(suite_keys[s]) + "_avg_8T_mib", avg8[s].mean());
    report.metric(std::string(suite_keys[s]) + "_avg_16T_mib", avg16[s].mean());
  }
  if (!last_stages[0].empty()) report.stages("8T_lock-free", last_stages[0]);
  if (!last_stages[1].empty()) report.stages("16T_lock-free", last_stages[1]);
  report.write();
  return 0;
}
