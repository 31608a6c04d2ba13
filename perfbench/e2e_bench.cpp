// e2e_bench — layer-accounted end-to-end benchmark program.
//
// Runs one workload — a fixed set of suite programs under one profiler
// configuration — as a closed loop: the programs run back to back, one
// pass after another, until the measuring time is used up.  The pass order
// is a shuffle fixed by --seed.  An end-to-end metric aggregates, over the
// programs, each program's median over the passes; a per-layer metric is
// the median over passes of its per-pass aggregate.
//
// The profiler is driven only through its public API, with the
// configuration `depprof run` uses for the workload's flags:
//   setup     make_serial_profiler / make_parallel_profiler
//   profile   Runtime::attach .. target run .. Runtime::detach (which calls
//             finish(): drain, join, merge)
//   analysis  analyze_loops + check_verdicts (seq-*), find_races (mt-races)
//   teardown  destruction of the profiler
//
// Untraced runs (--trace 0) report the end-to-end metrics.  Traced runs
// (--trace 1) add, per program and pass, a run with a no-op sink (the
// instrumentation front end alone) and a run with the profiler wrapped in a
// timing sink (time inside the profiler's batch and finish calls), and read
// the profiler's own counters through IProfiler::stats() and MemStats.
//
// Every profiled run is checked: the target's checksum against the native
// run, the loop verdicts against the OpenMP ground truth, exact maps against
// the program's warm-up map, confirmed races against the injected ones, and
// the access-count identities.  A failing check is a row of its own and
// never stops the pass.
//
// Usage:
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1 [--scale K]
//   e2e_bench --workload NAME --seed N --counts [--scale K]
// The last line of stdout is one JSON object: the metrics, or with
// --counts the per-program counts, digests and verdicts of one pass.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "analysis/loop_parallelism.hpp"
#include "analysis/report.hpp"
#include "common/location.hpp"
#include "common/mem_stats.hpp"
#include "common/timer.hpp"
#include "core/formatter.hpp"
#include "core/profiler.hpp"
#include "instrument/runtime.hpp"
#include "mt/race_report.hpp"
#include "workloads/workload.hpp"

using namespace depprof;

namespace {

/// Native reps per program and pass: the pthread variants' native times
/// jitter with thread start-up, and they are the slowdown denominator.
constexpr int kNativeReps = 5;
constexpr double kMiB = 1024.0 * 1024.0;
/// ROADMAP accounting tolerance for core.unaccounted_share.
constexpr double kAccountingTolerance = 0.10;

double now_s() { return static_cast<double>(WallTimer::now()) * 1e-9; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
  return h;
}

// --- workloads -------------------------------------------------------------

struct WorkloadSpec {
  ProfilerConfig cfg;
  bool parallel = false;   ///< the Fig. 2 pipeline instead of the serial profiler
  unsigned mt_threads = 0;  ///< 0: the sequential programs; else pthread variants
  int scale = 4;
};

/// The `depprof run` flags of each workload, as a ProfilerConfig.
bool make_spec(const std::string& name, WorkloadSpec& spec) {
  if (name == "seq-serial") {
    // defaults: serial, 1M-slot signatures, dedup on
  } else if (name == "seq-pipeline") {
    spec.parallel = true;  // --parallel --workers 3
    spec.cfg.workers = 3;
  } else if (name == "seq-exact") {
    spec.cfg.storage = StorageKind::kPacked;  // --storage packed
  } else if (name == "mt-races") {
    // --mt-threads 2 --parallel --workers 2 --races --scale 8
    spec.parallel = true;
    spec.mt_threads = 2;
    spec.cfg.workers = 2;
    spec.cfg.mt_targets = true;
    spec.cfg.races = true;
    spec.scale = 8;
  } else {
    return false;
  }
  return true;
}

bool exact_store(const WorkloadSpec& spec) {
  return spec.cfg.storage == StorageKind::kPacked;
}

std::vector<const Workload*> programs_of(const WorkloadSpec& spec) {
  if (spec.mt_threads > 0) return parallel_workloads();
  std::vector<const Workload*> out;
  for (const Workload& w : all_workloads())
    if (w.suite == "nas" || w.suite == "starbench" || w.suite == "splash")
      out.push_back(&w);
  return out;
}

/// Check failures the baseline is known to show, with the cause.  They are
/// reported and counted in check.error_rate, but not as failed runs.
struct KnownFailure {
  const char* program;
  const char* check;
  const char* cause;
};
constexpr KnownFailure kKnownFailures[] = {
    {"cg", "map-repeat",
     "make_matrix grows vectors without DP_FREE, so recycled addresses "
     "depend on the heap layout (ROADMAP: heap-layout independence)"},
};

const KnownFailure* known_failure(const std::string& program,
                                  const std::string& check) {
  for (const KnownFailure& k : kKnownFailures)
    if (program == k.program && check == k.check) return &k;
  return nullptr;
}

WorkloadResult invoke(const Workload& w, const WorkloadSpec& spec) {
  if (spec.mt_threads > 0) return w.run_parallel(spec.scale, spec.mt_threads);
  return w.run(spec.scale);
}

// --- probes ----------------------------------------------------------------

struct ProbeCounts {
  std::uint64_t accesses = 0;  ///< instances, RLE runs expanded
  std::uint64_t records = 0;   ///< entries handed over (one per RLE run)
  std::uint64_t flushes = 0;   ///< batch calls
  double sink_s = 0.0;         ///< wall time inside the profiler's batch calls
  double finish_s = 0.0;       ///< wall time inside the profiler's finish()
};

/// AccessSink attached in place of the profiler.  Without an inner profiler
/// it is the no-op sink that isolates the instrumentation front end; with
/// one it forwards every call and times it.  Batches of MT targets arrive
/// from several threads at once, hence the atomics.
class ProbeSink final : public AccessSink {
 public:
  explicit ProbeSink(IProfiler* inner = nullptr) : inner_(inner) {}

  void on_access(const AccessEvent& ev) override { on_batch(&ev, 1); }

  void on_batch(const AccessEvent* events, std::size_t count) override {
    const std::uint64_t t0 = inner_ ? WallTimer::now() : 0;
    if (inner_) inner_->on_batch(events, count);
    tally(count, count, t0);
  }

  void on_batch_rle(const AccessEvent* events, const std::uint32_t* reps,
                    std::size_t count) override {
    const std::uint64_t t0 = inner_ ? WallTimer::now() : 0;
    if (inner_) inner_->on_batch_rle(events, reps, count);
    std::uint64_t instances = 0;
    for (std::size_t i = 0; i < count; ++i) instances += reps[i];
    tally(instances, count, t0);
  }

  void on_unlock(std::uint16_t tid) override {
    if (!inner_) return;
    const std::uint64_t t0 = WallTimer::now();
    inner_->on_unlock(tid);
    sink_ns_.fetch_add(WallTimer::now() - t0, std::memory_order_relaxed);
  }

  void finish() override {
    if (!inner_) return;
    const std::uint64_t t0 = WallTimer::now();
    inner_->finish();
    finish_ns_ = WallTimer::now() - t0;
  }

  std::uint64_t profiling_cost_ns() const override {
    return inner_ ? inner_->profiling_cost_ns() : 0;
  }

  void on_sampling_stats(std::uint64_t sampled_out, std::uint64_t bursts,
                         std::uint64_t overhead_ppm) override {
    if (inner_) inner_->on_sampling_stats(sampled_out, bursts, overhead_ppm);
  }

  ProbeCounts counts() const {
    ProbeCounts c;
    c.accesses = accesses_.load(std::memory_order_relaxed);
    c.records = records_.load(std::memory_order_relaxed);
    c.flushes = flushes_.load(std::memory_order_relaxed);
    c.sink_s = static_cast<double>(sink_ns_.load(std::memory_order_relaxed)) * 1e-9;
    c.finish_s = static_cast<double>(finish_ns_) * 1e-9;
    return c;
  }

 private:
  void tally(std::uint64_t instances, std::uint64_t records, std::uint64_t t0) {
    if (inner_)
      sink_ns_.fetch_add(WallTimer::now() - t0, std::memory_order_relaxed);
    accesses_.fetch_add(instances, std::memory_order_relaxed);
    records_.fetch_add(records, std::memory_order_relaxed);
    flushes_.fetch_add(1, std::memory_order_relaxed);
  }

  IProfiler* inner_;
  std::atomic<std::uint64_t> accesses_{0};
  std::atomic<std::uint64_t> records_{0};
  std::atomic<std::uint64_t> flushes_{0};
  std::atomic<std::uint64_t> sink_ns_{0};
  std::uint64_t finish_ns_ = 0;  ///< written by detach() on the main thread
};

// --- one program run -------------------------------------------------------

constexpr unsigned kComponents = static_cast<unsigned>(MemComponent::kCount);

/// One profiled run of one program.
struct ProfiledRun {
  double setup_s = 0.0;
  double profile_s = 0.0;   ///< attach .. detach returned (merged map ready)
  double analysis_s = 0.0;
  double teardown_s = 0.0;
  std::uint64_t checksum = 0;
  ProfilerStats stats;
  std::int64_t peak_bytes = 0;
  std::int64_t component_peak[kComponents] = {};
  std::uint64_t digest = 0;  ///< of the CSV map; exact stores only
  std::string verdicts;      ///< verdict kinds in loop order (seq-*)
  std::vector<std::string> verdict_mismatches;
  std::set<std::string> races;  ///< confirmed race variables (mt-races)
  ProbeCounts probe;            ///< traced runs only

  std::uint64_t produced() const {
    const obs::StageSnapshot* p = stats.stages.find("produce");
    return p ? p->events : 0;
  }
};

ProfiledRun profile_once(const Workload& w, const WorkloadSpec& spec,
                         bool traced) {
  ProfiledRun r;
  Runtime& rt = Runtime::instance();
  rt.reset();
  MemStats::instance().reset();

  double t = now_s();
  std::unique_ptr<IProfiler> profiler = spec.parallel
                                            ? make_parallel_profiler(spec.cfg)
                                            : make_serial_profiler(spec.cfg);
  r.setup_s = now_s() - t;
  if (!profiler) {
    std::fprintf(stderr, "e2e_bench: configuration rejected by the factory\n");
    std::exit(2);
  }

  ProbeSink probe(profiler.get());
  AccessSink* sink = traced ? static_cast<AccessSink*>(&probe) : profiler.get();
  t = now_s();
  rt.attach(sink, spec.cfg.mt_targets, spec.cfg.dedup);
  r.checksum = invoke(w, spec).checksum;
  rt.detach();
  r.profile_s = now_s() - t;

  r.stats = profiler->stats();
  if (traced) r.probe = probe.counts();
  MemStats& mem = MemStats::instance();
  r.peak_bytes = mem.peak();
  for (unsigned c = 0; c < kComponents; ++c)
    r.component_peak[c] = mem.peak(static_cast<MemComponent>(c));
  const DepMap deps = profiler->take_dependences();

  t = now_s();
  if (spec.mt_threads > 0) {
    const RaceReport report = find_races(deps);
    r.analysis_s = now_s() - t;
    for (const RaceFinding& f : report.findings)
      if (f.confirmed) r.races.insert(std::string(var_registry().name(f.dep.var)));
  } else {
    LoopAnalysisOptions opts;
    opts.reduction_lines = rt.reduction_lines();
    const std::vector<LoopVerdict> verdicts =
        analyze_loops(deps, rt.control_flow(), opts);
    std::vector<LoopExpectation> truth;
    for (const LoopTruth& lt : w.loops) truth.push_back({lt.label, lt.parallelizable});
    const ReportCheck chk = check_verdicts(verdicts, truth);
    r.analysis_s = now_s() - t;
    r.verdict_mismatches = chk.mismatches;
    for (const LoopVerdict& v : verdicts) {
      if (!r.verdicts.empty()) r.verdicts += ',';
      r.verdicts += loop_verdict_name(v.kind);
    }
  }
  if (exact_store(spec)) r.digest = fnv1a(deps_csv(deps));

  t = now_s();
  profiler.reset();
  r.teardown_s = now_s() - t;
  return r;
}

struct NativeRun {
  double sec = 0.0;  ///< median of kNativeReps
  std::uint64_t checksum = 0;
};

NativeRun run_native(const Workload& w, const WorkloadSpec& spec) {
  Runtime::instance().reset();
  NativeRun n;
  std::vector<double> times;
  for (int r = 0; r < kNativeReps; ++r) {
    const double t = now_s();
    n.checksum = invoke(w, spec).checksum;
    times.push_back(now_s() - t);
  }
  n.sec = median(times);
  return n;
}

/// The program under the no-op sink, with the workload's runtime flags.
double run_frontend_only(const Workload& w, const WorkloadSpec& spec,
                         ProbeCounts& counts) {
  Runtime& rt = Runtime::instance();
  rt.reset();
  ProbeSink noop;
  const double t = now_s();
  rt.attach(&noop, spec.cfg.mt_targets, spec.cfg.dedup);
  (void)invoke(w, spec);
  rt.detach();
  const double sec = now_s() - t;
  counts = noop.counts();
  return sec;
}

/// One program within one pass.
struct ProgramSample {
  const Workload* w = nullptr;
  double native_s = 0.0;
  std::uint64_t native_checksum = 0;
  ProfiledRun run;
  // traced passes only
  double frontend_s = 0.0;
  ProbeCounts frontend;
  double bare_profile_s = 0.0;  ///< untraced profile_s of the same pass
};

ProgramSample sample_program(const Workload& w, const WorkloadSpec& spec,
                             bool traced) {
  ProgramSample s;
  s.w = &w;
  const NativeRun nat = run_native(w, spec);
  s.native_s = nat.sec;
  s.native_checksum = nat.checksum;
  if (traced) {
    s.frontend_s = run_frontend_only(w, spec, s.frontend);
    s.bare_profile_s = profile_once(w, spec, false).profile_s;
  }
  s.run = profile_once(w, spec, traced);
  return s;
}

// --- checks ----------------------------------------------------------------

/// What the warm-up run of a program established, for the repeat checks.
struct Reference {
  std::uint64_t native_checksum = 0;
  std::uint64_t accesses = 0;
  std::uint64_t digest = 0;
};

struct Failure {
  std::string program;
  std::string check;
  std::string detail;
  const KnownFailure* known = nullptr;
};

std::uint64_t detect_events(const ProfiledRun& r) {
  return r.stats.stages.detect_events();
}

/// Runs every check that applies to one program's profiled run; appends one
/// Failure per failed check.
void check_run(const WorkloadSpec& spec, const Reference& ref,
               const ProgramSample& s, std::vector<Failure>& out) {
  const Workload& w = *s.w;
  const ProfiledRun& r = s.run;
  auto fail = [&](const char* check, std::string detail) {
    out.push_back({w.name, check, std::move(detail), known_failure(w.name, check)});
  };
  for (const std::uint64_t sum : {s.native_checksum, r.checksum})
    if (sum != ref.native_checksum)
      fail("checksum", std::to_string(sum) + " != warm-up native " +
                           std::to_string(ref.native_checksum));
  if (spec.mt_threads > 0) {
    const std::set<std::string> expected(w.races.begin(), w.races.end());
    if (r.races != expected) {
      std::string got;
      for (const std::string& v : r.races) got += (got.empty() ? "" : ",") + v;
      fail("races", "confirmed {" + got + "}, expected " +
                        std::to_string(expected.size()) + " injected");
    }
  } else {
    for (const std::string& m : r.verdict_mismatches) fail("verdicts", m);
    // Count identities: every access the front end hands over is produced
    // and detected exactly once, and the stream is the program's alone.
    const std::uint64_t produced = r.produced();
    if (produced != detect_events(r))
      fail("count-identity", "produce " + std::to_string(produced) +
                                 " != detect " + std::to_string(detect_events(r)));
    if (produced != ref.accesses)
      fail("count-repeat", "produce " + std::to_string(produced) +
                               " != warm-up " + std::to_string(ref.accesses));
    // Traced runs: the outside-in counts of both probes agree too.
    for (const ProbeCounts* c : {&s.frontend, &r.probe})
      if (c->flushes > 0 && c->accesses != produced)
        fail("count-identity", "sink saw " + std::to_string(c->accesses) +
                                   " != produce " + std::to_string(produced));
    if (exact_store(spec) && r.digest != ref.digest)
      fail("map-repeat", "map differs from the warm-up map");
  }
}

// --- metrics ---------------------------------------------------------------

using Metrics = std::map<std::string, double>;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The bounded end-to-end metrics: time ratios to the native run, which a
/// host-wide slowdown leaves unchanged, the profiler's memory, and setup.
constexpr MetricDef kEndToEnd[] = {
    {"slowdown", "x"},
    {"total_slowdown", "x"},
    {"setup_s", "s"},
    {"peak_profiler_mib", "MiB"},
};

/// The end-to-end wall times.  Every untraced run prints them; they carry no
/// bound (traced runs report them as wall.*) because on a shared host they
/// follow the host's speed far more than the native-relative ratios do.
constexpr MetricDef kWallTimes[] = {
    {"profile_s", "s"},
    {"ns_per_access", "ns"},
    {"teardown_s", "s"},
    {"total_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"wall.profile_s", "s"},
    {"wall.ns_per_access", "ns"},
    {"wall.teardown_s", "s"},
    {"wall.total_s", "s"},
    {"workloads.native_s", "s"},
    {"instrument.ns_per_access", "ns"},
    {"instrument.accesses", "count"},
    {"instrument.records", "count"},
    {"instrument.flushes", "count"},
    {"instrument.dedup_ratio", "x"},
    {"core.sink_ns_per_access", "ns"},
    {"core.finish_s", "s"},
    {"core.unaccounted_share", "share"},
    {"core.trace_overhead", "share"},
    {"detect.cpu_s", "s"},
    {"detect.events", "count"},
    {"detect.ns_per_event", "ns"},
    {"detect.imbalance", "x"},
    {"sig.resident_pages", "count"},
    {"sig.hugepage_fallbacks", "count"},
    {"route.wire_bytes_per_access", "B"},
    {"route.pack_escapes", "count"},
    {"queue.producer_block_s", "s"},
    {"queue.stalls", "count"},
    {"queue.parks", "count"},
    {"queue.wakes", "count"},
    {"queue.worker_idle_s", "s"},
    {"queue.depth_hwm", "count"},
    {"merge.busy_s", "s"},
    {"merge.entries", "count"},
    {"mem.signatures_mib", "MiB"},
    {"mem.queues_mib", "MiB"},
    {"mem.depmaps_mib", "MiB"},
    {"mem.store_mib", "MiB"},
    {"analysis.loop_report_s", "s"},
    {"mt.race_report_s", "s"},
    {"check.error_rate", "share"},
};

using Pass = std::vector<ProgramSample>;

/// One program's medians over the passes of a run.
struct ProgramSummary {
  const Workload* w = nullptr;
  double native_s = 0, profile_s = 0, setup_s = 0, teardown_s = 0, analysis_s = 0;
  double accesses = 0;
  double peak_mib = 0;
};

/// Per-program medians over `passes` (programs in the same order in each),
/// so that one slow run of one program does not move a whole pass.
std::vector<ProgramSummary> summarize(const std::vector<Pass>& passes) {
  std::vector<ProgramSummary> out;
  for (std::size_t i = 0; i < passes.front().size(); ++i) {
    auto med = [&](auto field) {
      std::vector<double> v;
      for (const Pass& p : passes) v.push_back(field(p[i]));
      return median(std::move(v));
    };
    ProgramSummary ps;
    ps.w = passes.front()[i].w;
    ps.native_s = med([](const ProgramSample& s) { return s.native_s; });
    ps.profile_s = med([](const ProgramSample& s) { return s.run.profile_s; });
    ps.setup_s = med([](const ProgramSample& s) { return s.run.setup_s; });
    ps.teardown_s = med([](const ProgramSample& s) { return s.run.teardown_s; });
    ps.analysis_s = med([](const ProgramSample& s) { return s.run.analysis_s; });
    ps.accesses = static_cast<double>(passes.front()[i].run.produced());
    ps.peak_mib = med([](const ProgramSample& s) {
      return static_cast<double>(s.run.peak_bytes) / kMiB;
    });
    out.push_back(ps);
  }
  return out;
}

/// End-to-end metrics: per-program medians summed over the programs
/// (slowdowns: geometric means of the per-program ratios to native; peak: the
/// mean, since on the paged store the largest program's peak moves with its
/// heap layout).
Metrics end_to_end(const std::vector<ProgramSummary>& programs) {
  double native = 0, profile = 0, setup = 0, teardown = 0, analysis = 0;
  double log_slowdown = 0, log_total_slowdown = 0, accesses = 0, peak = 0;
  const double n = static_cast<double>(programs.size());
  for (const ProgramSummary& ps : programs) {
    native += ps.native_s;
    profile += ps.profile_s;
    setup += ps.setup_s;
    teardown += ps.teardown_s;
    analysis += ps.analysis_s;
    accesses += ps.accesses;
    const double nat = std::max(ps.native_s, 1e-9);
    log_slowdown += std::log(ps.profile_s / nat);
    log_total_slowdown +=
        std::log((ps.setup_s + ps.profile_s + ps.analysis_s + ps.teardown_s) / nat);
    peak += ps.peak_mib / n;
  }
  Metrics m;
  m["profile_s"] = profile;
  m["ns_per_access"] = (profile - native) / std::max(accesses, 1.0) * 1e9;
  m["slowdown"] = std::exp(log_slowdown / n);
  m["total_slowdown"] = std::exp(log_total_slowdown / n);
  m["setup_s"] = setup;
  m["teardown_s"] = teardown;
  m["total_s"] = setup + profile + analysis + teardown;
  m["peak_profiler_mib"] = peak;
  return m;
}

double component_mib(const ProfiledRun& r, MemComponent c) {
  return static_cast<double>(r.component_peak[static_cast<unsigned>(c)]) / kMiB;
}

/// Per-layer metrics of one traced pass.  `races`: the analysis step was
/// find_races rather than the loop report.
Metrics per_layer(const Pass& pass, bool races) {
  Metrics m;
  double native = 0, frontend = 0, traced = 0, bare = 0;
  double accesses = 0, records = 0, flushes = 0, sink = 0, finish = 0;
  double detect_cpu = 0, detect_ev = 0, weighted_imbalance = 0;
  double resident = 0, fallbacks = 0, wire = 0, escapes = 0;
  double block = 0, stalls = 0, parks = 0, wakes = 0, idle = 0, hwm = 0;
  double merge_busy = 0, merge_entries = 0, loop_report = 0, race_report = 0;
  double setup = 0, teardown = 0;
  double sig_mib = 0, queue_mib = 0, depmap_mib = 0, store_mib = 0;
  for (const ProgramSample& s : pass) {
    const ProfiledRun& r = s.run;
    native += s.native_s;
    frontend += s.frontend_s;
    traced += r.profile_s;
    bare += s.bare_profile_s;
    setup += r.setup_s;
    teardown += r.teardown_s;
    accesses += static_cast<double>(s.frontend.accesses);
    records += static_cast<double>(s.frontend.records);
    flushes += static_cast<double>(s.frontend.flushes);
    sink += r.probe.sink_s;
    finish += r.probe.finish_s;
    double max_events = 0, sum_events = 0, workers = 0;
    for (const obs::StageSnapshot& st : r.stats.stages.stages) {
      const bool is_detect = st.stage.rfind("detect", 0) == 0;
      if (is_detect) {
        detect_cpu += st.cpu_sec();
        max_events = std::max(max_events, static_cast<double>(st.events));
        sum_events += static_cast<double>(st.events);
        workers += 1;
        idle += st.idle_sec();
      }
      if (st.stage == "produce") {
        wire += static_cast<double>(st.bytes_on_wire);
        escapes += static_cast<double>(st.pack_escapes);
        block += st.block_sec();
      }
      if (st.stage == "merge") {
        merge_busy += st.busy_sec();
        merge_entries += static_cast<double>(st.events);
      }
      resident += static_cast<double>(st.resident_pages);
      fallbacks += static_cast<double>(st.hugepage_fallbacks);
      stalls += static_cast<double>(st.stalls);
      parks += static_cast<double>(st.parks);
      wakes += static_cast<double>(st.wakes);
      hwm = std::max(hwm, static_cast<double>(st.queue_depth_hwm));
    }
    detect_ev += sum_events;
    // Events-weighted mean of max/mean worker events: sum * (max / mean).
    if (sum_events > 0) weighted_imbalance += max_events * workers;
    (races ? race_report : loop_report) += r.analysis_s;
    sig_mib = std::max(sig_mib, component_mib(r, MemComponent::kSignatures));
    queue_mib = std::max(queue_mib, component_mib(r, MemComponent::kQueues));
    depmap_mib = std::max(depmap_mib, component_mib(r, MemComponent::kDepMaps));
    store_mib = std::max(store_mib, component_mib(r, MemComponent::kStore));
  }
  const double acc = std::max(accesses, 1.0);
  // Wall times of the untraced profile runs of the same pass.
  m["wall.profile_s"] = bare;
  m["wall.ns_per_access"] = (bare - native) / acc * 1e9;
  m["wall.teardown_s"] = teardown;
  m["wall.total_s"] = setup + bare + loop_report + race_report + teardown;
  m["workloads.native_s"] = native;
  m["instrument.ns_per_access"] = (frontend - native) / acc * 1e9;
  m["instrument.accesses"] = accesses;
  m["instrument.records"] = records;
  m["instrument.flushes"] = flushes;
  m["instrument.dedup_ratio"] = accesses / std::max(records, 1.0);
  m["core.sink_ns_per_access"] = sink / acc * 1e9;
  m["core.finish_s"] = finish;
  // An identity for one target thread only: with concurrent producers the
  // thread-summed sink time overlaps, and the share goes negative.
  m["core.unaccounted_share"] = 1.0 - (frontend + sink + finish) / traced;
  m["core.trace_overhead"] = traced / bare - 1.0;
  m["detect.cpu_s"] = detect_cpu;
  m["detect.events"] = detect_ev;
  m["detect.ns_per_event"] = detect_cpu / std::max(detect_ev, 1.0) * 1e9;
  m["detect.imbalance"] = weighted_imbalance / std::max(detect_ev, 1.0);
  m["sig.resident_pages"] = resident;
  m["sig.hugepage_fallbacks"] = fallbacks;
  m["route.wire_bytes_per_access"] = wire / acc;
  m["route.pack_escapes"] = escapes;
  m["queue.producer_block_s"] = block;
  m["queue.stalls"] = stalls;
  m["queue.parks"] = parks;
  m["queue.wakes"] = wakes;
  m["queue.worker_idle_s"] = idle;
  m["queue.depth_hwm"] = hwm;
  m["merge.busy_s"] = merge_busy;
  m["merge.entries"] = merge_entries;
  m["mem.signatures_mib"] = sig_mib;
  m["mem.queues_mib"] = queue_mib;
  m["mem.depmaps_mib"] = depmap_mib;
  m["mem.store_mib"] = store_mib;
  m["analysis.loop_report_s"] = loop_report;
  m["mt.race_report_s"] = race_report;
  return m;
}

// --- host fingerprint ------------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

// --- main ------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool counts = false;
  int scale = 0;  ///< 0 = the workload's own scale
};

int usage() {
  std::fputs(
      "usage: e2e_bench --workload seq-serial|seq-pipeline|seq-exact|mt-races "
      "--seed N (--seconds S --trace 0|1 | --counts) [--scale K]\n",
      stderr);
  return 2;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--counts") {
      o.counts = true;
      continue;
    }
    if (v == nullptr) return false;
    ++i;
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(v);
    else if (a == "--trace") o.trace = std::strcmp(v, "0") != 0;
    else if (a == "--scale") o.scale = std::atoi(v);
    else return false;
  }
  return !o.workload.empty() && o.seconds > 0.0 && o.scale >= 0;
}

void print_metrics(const char* title, std::span<const MetricDef> defs,
                   const Metrics& m) {
  std::printf("# %s\n", title);
  for (const MetricDef& d : defs)
    std::printf("#   %-28s %14.6g %s\n", d.name, m.at(d.name), d.unit);
}

std::string metrics_json(std::span<const MetricDef> defs, const Metrics& m) {
  std::string out = "{";
  char buf[160];
  for (const MetricDef& d : defs) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  out.size() > 1 ? ", " : "", d.name, m.at(d.name), d.unit);
    out += buf;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return usage();
  WorkloadSpec spec;
  if (!make_spec(opt.workload, spec)) return usage();
  if (opt.scale > 0) spec.scale = opt.scale;

  std::vector<const Workload*> order = programs_of(spec);
  std::mt19937_64 rng(opt.seed);
  std::shuffle(order.begin(), order.end(), rng);

  std::printf("# host nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s\n",
              std::thread::hardware_concurrency(), cpu_model().c_str(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  std::printf("# workload=%s scale=%d seed=%llu trace=%d order=", opt.workload.c_str(),
              spec.scale, static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  for (std::size_t i = 0; i < order.size(); ++i)
    std::printf("%s%s", i ? "," : "", order[i]->name.c_str());
  std::printf("\n");
  std::fflush(stdout);

  // Warm-up: caches, allocator and lazy set-up settle, and each program's
  // reference checksum, access count and map are recorded.
  std::map<const Workload*, Reference> refs;
  for (const Workload* w : order) {
    Reference& ref = refs[w];
    ref.native_checksum = invoke(*w, spec).checksum;
    const ProfiledRun r = profile_once(*w, spec, false);
    ref.accesses = r.produced();
    ref.digest = r.digest;
  }

  std::vector<Failure> failures;
  std::uint64_t attempted = 0, failed_runs = 0, known_runs = 0;
  std::vector<Pass> passes;
  std::vector<Metrics> pass_metrics;
  const double start = now_s();
  for (;;) {
    const double elapsed = now_s() - start;
    const std::size_t done = pass_metrics.size();
    if (done > 0 && (opt.counts || elapsed + elapsed / static_cast<double>(done) >
                                       opt.seconds))
      break;
    Pass pass;
    for (const Workload* w : order) {
      ProgramSample s = sample_program(*w, spec, opt.trace);
      std::vector<Failure> fs;
      check_run(spec, refs[w], s, fs);
      ++attempted;
      if (!fs.empty()) {
        bool all_known = true;
        for (const Failure& f : fs) all_known = all_known && f.known != nullptr;
        ++(all_known ? known_runs : failed_runs);
        failures.insert(failures.end(), fs.begin(), fs.end());
      }
      pass.push_back(std::move(s));
    }
    Metrics m = opt.trace ? per_layer(pass, spec.mt_threads > 0)
                          : end_to_end(summarize({pass}));
    if (!opt.trace)
      std::printf("# pass %zu: profile_s=%.4f setup_s=%.4f teardown_s=%.4f "
                  "total_s=%.4f slowdown=%.2f ns_per_access=%.2f\n",
                  pass_metrics.size(), m.at("profile_s"), m.at("setup_s"),
                  m.at("teardown_s"), m.at("total_s"), m.at("slowdown"),
                  m.at("ns_per_access"));
    else
      std::printf("# pass %zu: native_s=%.4f sink_ns/acc=%.2f finish_s=%.4f "
                  "unaccounted=%.4f trace_overhead=%.4f\n",
                  pass_metrics.size(), m.at("workloads.native_s"),
                  m.at("core.sink_ns_per_access"), m.at("core.finish_s"),
                  m.at("core.unaccounted_share"), m.at("core.trace_overhead"));
    std::fflush(stdout);
    pass_metrics.push_back(std::move(m));
    passes.push_back(std::move(pass));
  }

  for (const Failure& f : failures)
    std::printf("# %s %s %s: %s%s%s\n", f.known ? "KNOWN-FAIL" : "FAIL",
                f.program.c_str(), f.check.c_str(), f.detail.c_str(),
                f.known ? " -- " : "", f.known ? f.known->cause : "");
  const double error_rate =
      static_cast<double>(failed_runs + known_runs) / static_cast<double>(attempted);

  if (opt.counts) {
    // One pass at the given scale: the counts, digests and verdicts that
    // must repeat exactly from one process to the next.
    std::string out = "{\"workload\": \"" + opt.workload + "\", \"failed\": " +
                      std::to_string(failed_runs) + ", \"programs\": {";
    bool first = true;
    for (const ProgramSample& s : passes.front()) {
      std::string races;
      for (const std::string& v : s.run.races)
        races += (races.empty() ? "\"" : ", \"") + json_escape(v) + "\"";
      out += std::string(first ? "" : ", ") + "\"" + s.w->name + "\": {" +
             "\"accesses\": " + std::to_string(s.run.produced()) +
             ", \"detect_events\": " + std::to_string(detect_events(s.run)) +
             ", \"checksum\": " + std::to_string(s.run.checksum) +
             ", \"digest\": " + std::to_string(s.run.digest) +
             ", \"verdicts\": \"" + s.run.verdicts + "\", \"races\": [" + races + "]}";
      first = false;
    }
    std::printf("%s}}\n", out.c_str());
    return 0;
  }

  Metrics med;
  if (opt.trace) {
    for (const auto& [name, value] : pass_metrics.front()) {
      std::vector<double> v;
      for (const Metrics& m : pass_metrics) v.push_back(m.at(name));
      med[name] = median(std::move(v));
    }
  } else {
    const std::vector<ProgramSummary> programs = summarize(passes);
    std::printf("# %-14s %10s %10s %8s %10s %10s %9s\n", "program", "native_s",
                "profile_s", "slowdown", "setup_s", "teardown_s", "peak_mib");
    for (const ProgramSummary& ps : programs)
      std::printf("# %-14s %10.6f %10.6f %8.2f %10.6f %10.6f %9.2f\n",
                  ps.w->name.c_str(), ps.native_s, ps.profile_s,
                  ps.profile_s / ps.native_s, ps.setup_s, ps.teardown_s, ps.peak_mib);
    med = end_to_end(programs);
  }
  const bool sequential = spec.mt_threads == 0;
  if (opt.trace) {
    med["check.error_rate"] = error_rate;
    print_metrics("per-layer (median over passes)", kPerLayer, med);
    const double share = med["core.unaccounted_share"];
    if (sequential && std::fabs(share) > kAccountingTolerance)
      std::printf("# FLAG core.unaccounted_share=%.4f outside +-%.2f on %s\n", share,
                  kAccountingTolerance, opt.workload.c_str());
  } else {
    print_metrics("end-to-end (per-program medians over passes)", kEndToEnd, med);
    print_metrics("end-to-end wall times (no bound)", kWallTimes, med);
    std::printf("#   %-28s %14.6g share (failed + known-failing runs / runs)\n",
                "error_rate", error_rate);
  }
  std::printf("# passes=%zu attempted=%llu failed=%llu known_failures=%llu\n",
              pass_metrics.size(), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed_runs),
              static_cast<unsigned long long>(known_runs));
  const std::string metrics =
      opt.trace ? metrics_json(kPerLayer, med) : metrics_json(kEndToEnd, med);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed_runs == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed_runs), metrics.c_str());
  return 0;
}
