#pragma once
// Measurement harness shared by the benchmark binaries and examples.
//
// Runs a workload natively and under a configured profiler, and collects
// the quantities the paper's evaluation reports: slowdown (Sec. VI-B1),
// component memory (Sec. VI-B2), dependence sets for accuracy comparison
// (Sec. VI-A), and the control-flow log for the analyses of Sec. VII.
//
// Single-core host note (see DESIGN.md): besides the real wall-clock
// slowdown, parallel runs report a *simulated* parallel time — the time a
// machine with one core per pipeline thread would observe, reconstructed
// from the producer's CPU time and the per-worker busy times measured with
// CLOCK_THREAD_CPUTIME_ID.

#include <memory>

#include "common/mem_stats.hpp"
#include "core/dep.hpp"
#include "core/profiler.hpp"
#include "trace/control_flow.hpp"
#include "trace/trace.hpp"
#include "workloads/workload.hpp"

namespace depprof {

struct RunMeasurement {
  double native_sec = 0.0;       ///< uninstrumented wall time
  double profiled_sec = 0.0;     ///< instrumented wall time incl. finish()
  double producer_cpu_sec = 0.0; ///< CPU time of the target thread(s)
  ProfilerStats stats;
  std::int64_t peak_component_bytes = 0;  ///< MemStats high-water during the run
  /// Component bytes at end of run (profiler still alive), indexed by
  /// MemComponent: signatures, queues+chunks, dep-maps, access-stats,
  /// other, store-pages.
  std::int64_t component_bytes[static_cast<unsigned>(MemComponent::kCount)] =
      {};
  DepMap deps;                   ///< merged dependences of the profiled run
  ControlFlowLog control_flow;
  std::uint64_t native_checksum = 0;
  std::uint64_t profiled_checksum = 0;

  /// Real wall-clock slowdown (the Fig. 5/6 metric on a multicore host).
  double slowdown() const {
    return native_sec > 0.0 ? profiled_sec / native_sec : 0.0;
  }

  /// Wall time a W-core host would observe for the pipeline: the slower of
  /// the producing target and the busiest worker, plus the final merge.
  double simulated_parallel_sec() const;

  double simulated_slowdown() const {
    return native_sec > 0.0 ? simulated_parallel_sec() / native_sec : 0.0;
  }
};

struct RunOptions {
  int scale = 1;
  /// 0 = sequential workload via Workload::run; otherwise the pthread
  /// variant via Workload::run_parallel with this many target threads.
  unsigned target_threads = 0;
  /// Use the parallel (Fig. 2) pipeline instead of the serial profiler.
  bool parallel_pipeline = false;
  /// Repetitions of the native run (its time is averaged; tiny kernels need
  /// a few reps for a stable denominator).
  int native_reps = 3;
};

/// Runs `w` natively and under a profiler configured by `config`.
RunMeasurement profile_workload(const Workload& w, const ProfilerConfig& config,
                                const RunOptions& opts = {});

/// Attaches the instrumentation runtime to `profiler` with the front end
/// `config` asks for: MT mode, dedup and the sampling schedule.
void attach_runtime(IProfiler& profiler, const ProfilerConfig& config);

/// Environment-activated deterministic-schedule session (ISSUE 7).  When
/// constructed with `enabled` true and DEPPROF_SCHED=1 in the environment,
/// the scope runs under the schedule controller: DEPPROF_SCHED_SEED /
/// DEPPROF_SCHED_ALGO pick the exploration, DEPPROF_SCHED_REPLAY replays a
/// recorded schedule, DEPPROF_SCHED_RECORD writes the schedule taken, and a
/// one-line summary (steps/divergences/violations) goes to stderr at scope
/// exit.  Construct it BEFORE the parallel profiler: workers attach to the
/// controller as they spawn.
class SchedEnvSession {
 public:
  explicit SchedEnvSession(bool enabled);
  ~SchedEnvSession();
  SchedEnvSession(const SchedEnvSession&) = delete;
  SchedEnvSession& operator=(const SchedEnvSession&) = delete;

 private:
  bool active_ = false;
};

/// Runs only the native side (used when one native baseline serves many
/// profiler configurations).
double measure_native(const Workload& w, const RunOptions& opts = {});

/// Captures the workload's access stream into a trace (and the control-flow
/// log via Runtime::control_flow()).  Used for trace statistics (Table I's
/// "# addresses" / "# accesses" columns), replay tests, and ablations that
/// feed identical streams to different stores.
Trace record_workload(const Workload& w, const RunOptions& opts = {});

/// Unions dependences over several inputs — the paper's remedy for the
/// input sensitivity of dynamic profiling ("running the target program with
/// changing inputs and computing the union of all collected dependences",
/// Sec. I).  Runs the workload once per scale and merges the maps.
DepMap union_over_inputs(const Workload& w, const ProfilerConfig& config,
                         const std::vector<int>& scales);

}  // namespace depprof
