// Worker-scaling ablation: slowdown of the lock-free pipeline as the worker
// count grows (1, 2, 4, 8, 16), against the serial profiler.  Each cell is
// the measured wall-clock slowdown, then the simulated one (the time a host
// with one core per pipeline thread would see, from the threads' CPU
// clocks); on a host with fewer cores than pipeline threads only the
// simulated figure reflects the pipeline's capacity.
//
// The paper reports 190x serial -> 97x (8T) -> 78x (16T) on NAS, a 2.4x
// speedup at 16 threads.  The speedup saturates once the producing target
// thread becomes the bottleneck — on this reproduction the producer
// saturates earlier (coarser instrumentation means fewer cycles of worker
// work per produced event), so the knee sits at a smaller worker count; the
// curve's *shape* (monotone drop, then flat at the producer bound) is the
// reproduced result.

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "common/table.hpp"
#include "harness/runner.hpp"
#include "obs/bench_report.hpp"
#include "workloads/workload.hpp"

using namespace depprof;

int main(int argc, char** argv) {
  int scale = 1;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--scale" && i + 1 < argc)
      scale = std::atoi(argv[++i]);

  const char* names[] = {"cg", "is", "kmeans", "rgbyuv"};
  const unsigned workers[] = {1, 2, 4, 8, 16};

  TextTable table(
      "Worker scaling — wall / simulated slowdown (x native), lock-free queues");
  table.set_header({"program", "serial", "W=1", "W=2", "W=4", "W=8", "W=16",
                    "producer-bound"});

  obs::BenchReport report("ablation_scaling");
  obs::PipelineSnapshot last_stages[5];  // last workload, per worker count

  for (const char* name : names) {
    const Workload* w = find_workload(name);
    if (w == nullptr) continue;

    RunOptions opts;
    opts.scale = scale;
    opts.native_reps = 3;

    ProfilerConfig serial_cfg;
    serial_cfg.storage = StorageKind::kSignature;
    serial_cfg.slots = 1u << 20;
    const RunMeasurement serial = profile_workload(*w, serial_cfg, opts);

    std::vector<std::string> row = {w->name, TextTable::num(serial.slowdown(), 1)};
    double producer_bound = 0.0;
    int wi = 0;
    for (unsigned wc : workers) {
      ProfilerConfig cfg;
      cfg.storage = StorageKind::kSignature;
      cfg.slots = (1u << 21) / wc;
      cfg.workers = wc;
      cfg.queue = QueueKind::kLockFreeSpsc;
      RunOptions popts = opts;
      popts.parallel_pipeline = true;
      const RunMeasurement m = profile_workload(*w, cfg, popts);
      row.push_back(TextTable::num(m.slowdown(), 1) + " / " +
                    TextTable::num(m.simulated_slowdown(), 1));
      const std::string key =
          std::string(w->name) + "_w" + std::to_string(wc);
      report.metric(key + "_slowdown", m.slowdown());
      report.metric(key + "_simulated_slowdown", m.simulated_slowdown());
      producer_bound = m.native_sec > 0 ? m.producer_cpu_sec / m.native_sec : 0;
      last_stages[wi++] = m.stats.stages;
    }
    report.metric(std::string(w->name) + "_serial_slowdown", serial.slowdown());
    report.metric(std::string(w->name) + "_producer_bound", producer_bound);
    row.push_back(TextTable::num(producer_bound, 1));
    table.add_row(std::move(row));
  }

  std::ostringstream os;
  table.print(os);
  std::fputs(os.str().c_str(), stdout);
  std::printf("\nCSV:\n%s", table.csv().c_str());
  std::printf(
      "\nPaper reference: serial 190x -> 78x at 16 workers (2.4x pipeline "
      "speedup), saturating at the producer bound.\n");

  for (int i = 0; i < 5; ++i)
    if (!last_stages[i].empty())
      report.stages("W=" + std::to_string(workers[i]), last_stages[i]);
  report.write();
  return 0;
}
