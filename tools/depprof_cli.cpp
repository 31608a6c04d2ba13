// depprof — command-line front end.
//
// Profiles a bundled workload (or a recorded trace file) under a chosen
// profiler configuration and emits dependences in the paper's text format,
// CSV, or Graphviz DOT, optionally running analysis plugins.
//
// Usage:
//   depprof list
//   depprof plugins
//   depprof run <workload> [options]
//   depprof replay <trace-file> [options]
//   depprof report <workload> [options]   loop-parallelism verdicts over the
//                        run's loop-nest tree (DOALL-safe / reduction-suspect
//                        / serial), text by default
//
// Options:
//   --storage signature|hashtable|packed
//                        (default signature; packed = SLAMP-style paged
//                        shadow memory with packed 64-bit words — exact,
//                        memory proportional to touched pages; hashtable =
//                        the chained exact baseline of Sec. III-B)
//   --slots N            signature slots per signature   (default 1M)
//   --parallel           use the Fig. 2 pipeline
//   --workers N          pipeline workers, at most 64     (default 8)
//   --queue lockfree|mpmc|mutex                          (default lockfree)
//   --wait spin|yield|park   pipeline wait strategy at the blocking sites
//                        (idle workers, full queues, migration mailbox;
//                        default park — see src/queue/wait_strategy.hpp)
//   --dedup / --no-dedup front-end redundancy elision: collapse exact access
//                        repeats at record time (default --dedup; the merged
//                        map is identical either way — see DESIGN.md
//                        "Front-end event reduction")
//   --budget F           overhead-budget sampling: adapt the burst duty
//                        cycle so profiling overhead tracks fraction F of
//                        target runtime (0 < F < 1; default 1 = profile
//                        everything).  Sequential targets only.
//   --burst N            profiled outermost-loop iterations per burst
//                        (default 8)
//   --skip N             fixed skipped iterations per cycle (deterministic
//                        sampling; overrides the --budget controller).
//                        The three sampling flags are for run and report:
//                        replay rejects them, because the burst gate lives
//                        in the instrumentation runtime a replay bypasses
//   --races              first-class race mode (Sec. V-B): print the run's
//                        potential-data-race report (text, or JSON with
//                        --json) instead of the dependence listing.  Needs
//                        an MT target (--mt-threads for run, an MT-recorded
//                        trace for replay) and rejects the sampling flags —
//                        a dropped event can hide the reversal that
//                        confirms a race
//   --mt-threads N       run the pthread variant with N target threads
//   --scale N            workload scale factor            (default 1)
//   --format text|csv|dot                                (default text)
//   --distances          annotate per-level carried-distance buckets
//                        (text format): each level prints d0|d1|d2p — the
//                        iteration-local, distance-1, and distance>=2-or-
//                        unknown instance counts at that nest level
//   --json               (report) emit the report as JSON
//   --check              (report) score verdicts against the workload's
//                        OpenMP ground truth; exit 1 on any mismatch
//   --plugin NAME        run an analysis plugin (repeatable; 'all' = every)
//   --stats              print run statistics and the per-stage pipeline
//                        counters (produce/route/detect/merge); rendered as
//                        CSV or JSON when --format csv|json is given
//
// Integer options take a whole decimal number: --skip >= 0, the others
// (--slots, --workers, --burst, --mt-threads, --scale) >= 1, and --workers
// <= 64.  Anything else is a usage error (exit 2) naming the option.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "core/formatter.hpp"
#include "framework/plugin.hpp"
#include "obs/report.hpp"
#include "framework/program_model.hpp"
#include "harness/runner.hpp"
#include "instrument/runtime.hpp"
#include "mt/race_report.hpp"
#include "trace/trace_io.hpp"
#include "workloads/workload.hpp"

using namespace depprof;

namespace {

int usage() {
  std::fputs(
      "usage: depprof <list|plugins|run <workload>|replay <trace>|"
      "report <workload>> [options]\n"
      "see the header of tools/depprof_cli.cpp or README.md for options\n",
      stderr);
  return 2;
}

struct CliOptions {
  ProfilerConfig cfg;
  bool parallel = false;
  unsigned mt_threads = 0;
  int scale = 1;
  std::string format = "text";
  bool distances = false;
  std::vector<std::string> plugins;
  bool stats = false;
  bool report_json = false;
  bool report_check = false;
  bool races = false;
  bool sampling_flags = false;  ///< --budget, --burst or --skip was given
};

/// Strict integer option: `v` must be a whole decimal number in
/// [min, max of T].  Prints a message naming `opt` and returns false
/// otherwise — no whitespace, no trailing text, no wrap-around.
template <typename T>
bool parse_int(const char* opt, const char* v, T min, T& out,
               T max = std::numeric_limits<T>::max()) {
  if (v == nullptr) v = "";
  const char* end = v + std::strlen(v);
  T n = 0;
  const auto [ptr, ec] = std::from_chars(v, end, n);
  if (ec != std::errc() || ptr != end || n < min || n > max) {
    std::fprintf(stderr,
                 "%s: expected a whole number in [%s, %s], got '%s'\n", opt,
                 std::to_string(min).c_str(), std::to_string(max).c_str(), v);
    return false;
  }
  out = n;
  return true;
}

bool parse(int argc, char** argv, int start, CliOptions& out) {
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--storage") {
      const char* v = next();
      if (v == nullptr || !parse_storage_kind(v, out.cfg.storage)) return false;
    } else if (arg == "--slots") {
      if (!parse_int("--slots", next(), std::size_t{1}, out.cfg.slots))
        return false;
    } else if (arg == "--parallel") {
      out.parallel = true;
    } else if (arg == "--workers") {
      if (!parse_int("--workers", next(), 1u, out.cfg.workers, kMaxWorkers))
        return false;
    } else if (arg == "--queue") {
      const char* v = next();
      if (v == nullptr) return false;
      if (std::strcmp(v, "mutex") == 0)
        out.cfg.queue = QueueKind::kMutex;
      else if (std::strcmp(v, "lockfree") == 0)
        out.cfg.queue = QueueKind::kLockFreeSpsc;
      else if (std::strcmp(v, "mpmc") == 0)
        out.cfg.queue = QueueKind::kLockFreeMpmc;
      else
        return false;
    } else if (arg == "--wait") {
      const char* v = next();
      if (v == nullptr || !parse_wait_kind(v, out.cfg.wait)) return false;
    } else if (arg == "--dedup") {
      out.cfg.dedup = true;
    } else if (arg == "--no-dedup") {
      out.cfg.dedup = false;
    } else if (arg == "--budget") {
      const char* v = next();
      if (v == nullptr) return false;
      out.cfg.budget = std::atof(v);
      if (out.cfg.budget <= 0.0 || out.cfg.budget > 1.0) return false;
      out.sampling_flags = true;
    } else if (arg == "--burst") {
      if (!parse_int("--burst", next(), 1u, out.cfg.sampling_burst))
        return false;
      out.sampling_flags = true;
    } else if (arg == "--skip") {
      if (!parse_int("--skip", next(), 0u, out.cfg.sampling_skip))
        return false;
      out.sampling_flags = true;
    } else if (arg == "--races") {
      out.races = true;
    } else if (arg == "--mt-threads") {
      if (!parse_int("--mt-threads", next(), 1u, out.mt_threads)) return false;
      out.parallel = true;
    } else if (arg == "--scale") {
      if (!parse_int("--scale", next(), 1, out.scale)) return false;
    } else if (arg == "--format") {
      const char* v = next();
      if (v == nullptr) return false;
      out.format = v;
    } else if (arg == "--distances") {
      out.distances = true;
    } else if (arg == "--plugin") {
      const char* v = next();
      if (v == nullptr) return false;
      out.plugins.emplace_back(v);
    } else if (arg == "--stats") {
      out.stats = true;
    } else if (arg == "--json") {
      out.report_json = true;
    } else if (arg == "--check") {
      out.report_check = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  if (out.races) {
    // Hard reject, not a warning: the sampling subset guarantee covers
    // dependence edges, not race candidates — one dropped event can hide
    // the reversal that confirms a race, silently under-reporting.
    if (out.sampling_flags) {
      std::fputs(
          "--races cannot be combined with sampling "
          "(--budget/--burst/--skip): a dropped event can hide the "
          "reversal that confirms a race\n",
          stderr);
      return false;
    }
    out.cfg.races = true;
    out.cfg.mt_targets = true;  // replay of MT-recorded traces
  }
  return true;
}

void emit(const ProgramModel& model, const CliOptions& opts) {
  if (opts.races) {
    const RaceReport report = find_races(model.deps());
    if (opts.report_json || opts.format == "json")
      std::fputs(race_report_json(report).c_str(), stdout);
    else
      std::fputs(format_race_report(report).c_str(), stdout);
  } else if (opts.format == "csv") {
    std::fputs(deps_csv(model.deps()).c_str(), stdout);
  } else if (opts.format == "dot") {
    std::fputs(model.dep_graph().to_dot().c_str(), stdout);
  } else {
    FormatOptions fmt;
    fmt.show_tids = opts.mt_threads > 0;
    fmt.show_distances = opts.distances;
    std::fputs(format_deps(model.deps(), &model.control_flow(), fmt).c_str(),
               stdout);
  }

  for (const std::string& name : opts.plugins) {
    if (name == "all") {
      for (AnalysisPlugin* p : PluginRegistry::instance().all())
        std::printf("\n== plugin %s ==\n%s", p->name().c_str(),
                    p->run(model).c_str());
      continue;
    }
    AnalysisPlugin* p = PluginRegistry::instance().find(name);
    if (p == nullptr) {
      std::fprintf(stderr, "unknown plugin '%s' (try `depprof plugins`)\n",
                   name.c_str());
      continue;
    }
    std::printf("\n== plugin %s ==\n%s", p->name().c_str(),
                p->run(model).c_str());
  }

  if (opts.stats) {
    const ProfilerStats& st = model.stats();
    std::printf("\n# events=%llu chunks=%llu workers=%u merged=%zu "
                "instances=%llu redistributions=%u sig_bytes=%zu\n",
                static_cast<unsigned long long>(st.events),
                static_cast<unsigned long long>(st.chunks), st.workers,
                model.deps().size(),
                static_cast<unsigned long long>(model.deps().instances()),
                st.redistribution_rounds, st.signature_bytes);
    if (opts.format == "csv")
      std::fputs(obs::snapshot_csv(st.stages).c_str(), stdout);
    else if (opts.format == "json")
      std::printf("%s\n", obs::snapshot_json(st.stages).c_str());
    else
      std::fputs(obs::snapshot_text(st.stages).c_str(), stdout);
  }
}

/// Profiles `w` under `opts` and builds the run's program model.  Returns
/// false when the configuration is unsupported.
bool profile_workload(const Workload& w, const CliOptions& opts,
                      ProgramModel& out) {
  ProfilerConfig cfg = opts.cfg;
  if (opts.mt_threads > 0) cfg.mt_targets = true;

  Runtime::instance().reset();
  // DEPPROF_SCHED=1 runs the pipeline under the deterministic schedule
  // controller (see harness/runner.hpp); sequential targets only — an MT
  // target's joins would stall the schedule.
  SchedEnvSession sched_session(opts.parallel && opts.mt_threads == 0);
  auto profiler = opts.parallel ? make_parallel_profiler(cfg)
                                : make_serial_profiler(cfg);
  if (!profiler) {
    std::fprintf(stderr, "storage kind not supported by this pipeline\n");
    return false;
  }
  attach_runtime(*profiler, cfg);
  if (opts.mt_threads > 0 && w.run_parallel)
    (void)w.run_parallel(opts.scale, opts.mt_threads);
  else
    (void)w.run(opts.scale);
  Runtime::instance().detach();
  out = ProgramModel::from_run(*profiler);
  return true;
}

int cmd_run(const char* name, const CliOptions& opts) {
  const Workload* w = find_workload(name);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (try `depprof list`)\n", name);
    return 1;
  }
  if (opts.races && opts.mt_threads == 0) {
    std::fputs("--races needs an MT target: pass --mt-threads N\n", stderr);
    return usage();
  }
  if (opts.races && !w->run_parallel) {
    std::fprintf(stderr, "workload '%s' has no pthread variant to race\n",
                 name);
    return 1;
  }
  ProgramModel model;
  if (!profile_workload(*w, opts, model)) return 1;
  emit(model, opts);
  return 0;
}

int cmd_report(const char* name, const CliOptions& opts) {
  const Workload* w = find_workload(name);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (try `depprof list`)\n", name);
    return 1;
  }
  ProgramModel model;
  if (!profile_workload(*w, opts, model)) return 1;

  LoopAnalysisOptions ao;
  ao.reduction_lines = model.reduction_lines();
  const std::vector<LoopVerdict> verdicts =
      analyze_loops(model.deps(), model.control_flow(), ao);
  ReportOptions ro;
  ro.json = opts.report_json;
  std::fputs(render_loop_report(verdicts, model.control_flow(), ro).c_str(),
             stdout);

  if (opts.report_check) {
    std::vector<LoopExpectation> truth;
    truth.reserve(w->loops.size());
    for (const LoopTruth& t : w->loops)
      truth.push_back({t.label, t.parallelizable});
    const ReportCheck chk = check_verdicts(verdicts, truth);
    std::printf("check: %u/%u loops match ground truth\n", chk.matched,
                chk.total);
    for (const std::string& m : chk.mismatches)
      std::printf("  mismatch: %s\n", m.c_str());
    if (!chk.ok()) return 1;
  }
  return 0;
}

int cmd_replay(const char* path, const CliOptions& opts) {
  // Same reasoning as the --races rejection: a flag that cannot act must
  // not be silently accepted.  Sampling is the runtime's burst gate, and a
  // replay feeds the recorded stream straight to the profiler.
  if (opts.sampling_flags) {
    std::fputs(
        "replay cannot sample (--budget/--burst/--skip): the burst gate "
        "lives in the instrumentation runtime, which a trace replay "
        "bypasses\n",
        stderr);
    return usage();
  }
  Trace trace;
  std::string error;
  if (!read_trace(trace, path, &error)) {
    std::fprintf(stderr, "cannot read trace '%s': %s\n", path,
                 error.c_str());
    return 1;
  }
  auto profiler = opts.parallel ? make_parallel_profiler(opts.cfg)
                                : make_serial_profiler(opts.cfg);
  if (!profiler) {
    std::fprintf(stderr, "storage kind not supported by this pipeline\n");
    return 1;
  }
  Runtime::instance().reset();
  replay(trace, *profiler);
  emit(ProgramModel(profiler->take_dependences(), {}, {}, {},
                    profiler->stats()),
       opts);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  if (cmd == "list") {
    for (const auto& w : all_workloads())
      std::printf("%-14s %-10s %s\n", w.name.c_str(), w.suite.c_str(),
                  w.run_parallel ? "(seq+pthread)" : "(seq)");
    return 0;
  }
  if (cmd == "plugins") {
    for (AnalysisPlugin* p : PluginRegistry::instance().all())
      std::printf("%-18s %s\n", p->name().c_str(), p->description().c_str());
    return 0;
  }
  if ((cmd == "run" || cmd == "replay" || cmd == "report") && argc >= 3) {
    CliOptions opts;
    if (!parse(argc, argv, 3, opts)) return usage();
    if (cmd == "run") return cmd_run(argv[2], opts);
    if (cmd == "report") return cmd_report(argv[2], opts);
    return cmd_replay(argv[2], opts);
  }
  return usage();
}
