#include "harness/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/mem_stats.hpp"
#include "common/timer.hpp"
#include "instrument/runtime.hpp"
#include "sched/sched.hpp"

namespace depprof {

double RunMeasurement::simulated_parallel_sec() const {
  double worker_max = 0.0;
  for (double b : stats.worker_busy_sec) worker_max = std::max(worker_max, b);
  return std::max(producer_cpu_sec, worker_max) + stats.merge_sec;
}

namespace {

WorkloadResult invoke(const Workload& w, const RunOptions& opts) {
  if (opts.target_threads > 0 && w.run_parallel)
    return w.run_parallel(opts.scale, opts.target_threads);
  return w.run(opts.scale);
}

std::unique_ptr<IProfiler> make_profiler(const ProfilerConfig& cfg,
                                         const RunOptions& opts) {
  return opts.parallel_pipeline ? make_parallel_profiler(cfg)
                                : make_serial_profiler(cfg);
}

}  // namespace

SchedEnvSession::SchedEnvSession(bool enabled) {
  const char* on = std::getenv("DEPPROF_SCHED");
  if (!enabled || on == nullptr || std::string(on) == "0") return;
  sched::Options opts;
  if (const char* seed = std::getenv("DEPPROF_SCHED_SEED"))
    opts.seed = std::strtoull(seed, nullptr, 10);
  if (const char* algo = std::getenv("DEPPROF_SCHED_ALGO"))
    if (!sched::parse_algo(algo, opts.algo))
      std::fprintf(stderr, "sched: unknown DEPPROF_SCHED_ALGO '%s'\n", algo);
  if (const char* path = std::getenv("DEPPROF_SCHED_REPLAY")) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    if (!in || !sched::ScheduleTrace::parse(opts.replay, text.str(), &error))
      std::fprintf(stderr, "sched: cannot replay %s: %s\n", path,
                   in ? error.c_str() : "unreadable");
  }
  sched::begin(opts);
  active_ = true;
}

SchedEnvSession::~SchedEnvSession() {
  if (!active_) return;
  const sched::Result r = sched::end();
  if (const char* path = std::getenv("DEPPROF_SCHED_RECORD")) {
    std::ofstream out(path);
    out << r.recorded.format();
    if (!out)
      std::fprintf(stderr, "sched: cannot write schedule to %s\n", path);
  }
  std::fprintf(stderr,
               "sched: steps=%llu divergences=%llu free_ran=%d "
               "violations=%llu\n",
               static_cast<unsigned long long>(r.steps),
               static_cast<unsigned long long>(r.divergences),
               r.free_ran ? 1 : 0,
               static_cast<unsigned long long>(sched::violation_count()));
}

double measure_native(const Workload& w, const RunOptions& opts) {
  // Warm-up run populates caches and the allocator.
  (void)invoke(w, opts);
  WallTimer t;
  for (int r = 0; r < std::max(1, opts.native_reps); ++r) (void)invoke(w, opts);
  return t.elapsed() / std::max(1, opts.native_reps);
}

DepMap union_over_inputs(const Workload& w, const ProfilerConfig& config,
                         const std::vector<int>& scales) {
  DepMap all;
  for (int scale : scales) {
    RunOptions opts;
    opts.scale = scale;
    opts.native_reps = 1;
    RunMeasurement m = profile_workload(w, config, opts);
    all.merge(m.deps);
  }
  return all;
}

Trace record_workload(const Workload& w, const RunOptions& opts) {
  TraceRecorder recorder;
  Runtime::instance().reset();
  Runtime::instance().attach(&recorder, opts.target_threads > 0);
  (void)invoke(w, opts);
  Runtime::instance().detach();
  return std::move(recorder.trace());
}

void attach_runtime(IProfiler& profiler, const ProfilerConfig& config) {
  SamplingConfig sampling;
  sampling.budget = config.budget;
  sampling.burst = config.sampling_burst;
  sampling.skip = config.sampling_skip;
  Runtime::instance().attach(&profiler, config.mt_targets, config.dedup,
                             sampling);
}

RunMeasurement profile_workload(const Workload& w, const ProfilerConfig& config,
                                const RunOptions& opts) {
  RunMeasurement m;

  // Native baseline (runtime detached: macros cost one predicted branch).
  Runtime::instance().reset();
  m.native_checksum = invoke(w, opts).checksum;  // warm-up + checksum
  {
    WallTimer t;
    for (int r = 0; r < std::max(1, opts.native_reps); ++r) (void)invoke(w, opts);
    m.native_sec = t.elapsed() / std::max(1, opts.native_reps);
  }

  // Profiled run (optionally under the deterministic schedule controller —
  // the session spans construction through finish so every pipeline thread
  // is scheduled from its first hand-off).
  ProfilerConfig cfg = config;
  if (opts.target_threads > 0) cfg.mt_targets = true;
  MemStats::instance().reset();
  Runtime::instance().reset();
  // MT targets are excluded: the main thread blocks joining target threads
  // mid-run, which the controller would (correctly) flag as a stall.
  SchedEnvSession sched_session(opts.parallel_pipeline &&
                                opts.target_threads == 0);
  auto profiler = make_profiler(cfg, opts);
  attach_runtime(*profiler, cfg);
  ThreadCpuTimer producer_cpu;
  WallTimer wall;
  m.profiled_checksum = invoke(w, opts).checksum;
  m.producer_cpu_sec = producer_cpu.elapsed();
  Runtime::instance().detach();  // calls finish(): drains, joins, merges
  m.profiled_sec = wall.elapsed();

  m.control_flow = Runtime::instance().control_flow();
  m.stats = profiler->stats();
  m.peak_component_bytes = MemStats::instance().peak();
  for (unsigned c = 0; c < static_cast<unsigned>(MemComponent::kCount); ++c)
    m.component_bytes[c] =
        MemStats::instance().bytes(static_cast<MemComponent>(c));
  m.deps = profiler->take_dependences();

  if (opts.target_threads > 0) {
    // MT targets run their accesses on their own threads; the main thread's
    // CPU time misses them.  Reconstruct the per-core producer share from
    // total wall time minus worker processing (single-core host: everything
    // is serialized), spread over the target threads.
    double worker_total = 0.0;
    for (double b : m.stats.worker_busy_sec) worker_total += b;
    m.producer_cpu_sec =
        std::max(0.0, m.profiled_sec - worker_total) /
        static_cast<double>(opts.target_threads);
  }
  return m;
}

}  // namespace depprof
