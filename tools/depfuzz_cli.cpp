// depfuzz: differential-oracle fuzzer for the profiler pipeline.
//
// Sweeps synthetic traces across the configuration lattice (storage backend
// x queue kind x wait strategy x workers x chunk size x load balancer x
// seq/MT) and checks every case against the exact reference oracle via the
// harness contract: exact stores must match the oracle byte-for-byte,
// finite signatures must stay within the formula-2 divergence budget.  On a
// mismatch the ddmin shrinker minimizes the (trace, config) pair and, with
// --corpus, writes a replayable repro for tests/corpus/.
//
//   depfuzz --smoke [--corpus DIR]       deterministic PR-gate lattice (40 cases)
//   depfuzz --deep [--runs N] [--seconds S] [--seed S] [--corpus DIR]
//                                        randomized nightly sweep
//   depfuzz --schedules [--runs N] [--seed S] [--corpus DIR]
//                                        deterministic-schedule lattice: every
//                                        case runs the parallel pipeline under
//                                        the seeded interleaving controller
//                                        (src/sched/); --runs adds N extra
//                                        seeds on the flake-shaped point
//   depfuzz --replay FILE                re-run one committed repro (a sched
//                                        section replays its schedule)
//   depfuzz --replay-dir DIR             corpus lint: parse + re-run every repro
//   depfuzz --list                       print the smoke lattice
//
// Exit codes: 0 all cases hold, 1 mismatch or unreplayable repro, 2 usage.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "oracle/corpus.hpp"
#include "oracle/harness.hpp"
#include "oracle/shrinker.hpp"
#include "queue/queues.hpp"
#include "trace/generators.hpp"

namespace depprof {
namespace {

struct FuzzCase {
  std::string name;
  ProfilerConfig cfg;
  Trace trace;
  /// --schedules: run the parallel side under the interleaving controller.
  bool sched = false;
  SchedSpec sched_spec;
};

struct NamedTrace {
  const char* name;
  Trace trace;
  bool mt;
};

/// Storage half of the lattice.  The two signature points pin down both
/// regimes: modulo indexing over an in-span trace (structurally
/// collision-free, so exact) and the mixed hash over few slots (bounded).
struct StoragePoint {
  const char* name;
  StorageKind storage;
  std::size_t slots;
  SigHash hash;
};

constexpr StoragePoint kStorages[] = {
    {"sig-exact", StorageKind::kSignature, 1u << 18, SigHash::kModulo},
    {"sig-bounded", StorageKind::kSignature, 1u << 14, SigHash::kMix},
    {"hashtable", StorageKind::kHashTable, 1u << 18, SigHash::kModulo},
    {"packed", StorageKind::kPacked, 1u << 18, SigHash::kModulo},
};
/// The lattice point named `name` (one of kStorages).
const StoragePoint& storage_point(std::string_view name) {
  for (const StoragePoint& sp : kStorages)
    if (sp.name == name) return sp;
  std::abort();
}

constexpr QueueKind kQueues[] = {QueueKind::kLockFreeSpsc,
                                 QueueKind::kLockFreeMpmc, QueueKind::kMutex};
constexpr WaitKind kWaits[] = {WaitKind::kSpin, WaitKind::kYield,
                               WaitKind::kPark};
constexpr unsigned kWorkerCounts[] = {1, 2, 4, 8};
constexpr std::size_t kChunkSizes[] = {1, 7, 1024};

/// A load-balancer tuned to actually fire on smoke-sized traces.
LoadBalanceConfig active_balancer() {
  LoadBalanceConfig lb;
  lb.enabled = true;
  lb.sample_shift = 0;
  lb.eval_interval_chunks = 8;
  lb.imbalance_threshold = 1.1;
  lb.top_k = 4;
  lb.max_rounds = 16;
  return lb;
}

std::vector<NamedTrace> smoke_traces(std::size_t accesses,
                                     std::size_t distinct) {
  GenParams p;
  p.accesses = accesses;
  p.distinct = distinct;
  std::vector<NamedTrace> traces;
  traces.push_back({"uniform", gen_uniform(p), false});
  traces.push_back({"strided", gen_strided(p), false});
  traces.push_back({"zipf", gen_zipf(p, 1.2), false});
  GenParams lp = p;
  lp.distinct = 256;
  traces.push_back({"loop-carried", gen_loop(lp, 24, true), false});
  GenParams cp = p;
  cp.distinct = 512;
  traces.push_back({"churn", gen_churn(cp, 0.3), false});
  // Nested traces: a deep imperfect nest (zero-iteration inner entries,
  // sibling re-entry) and churn stamped under a three-deep nest — the cases
  // that exercise common-loop attribution.
  GenParams np = p;
  np.accesses = accesses;
  traces.push_back({"nest3", gen_nest(np, 3, 4), false});
  traces.push_back({"churn-nest", gen_churn(cp, 0.2, 0, 3), false});
  traces.push_back({"mt-pc", gen_mt_producer_consumer(p, 4, 64), true});
  traces.push_back({"mt-churn", gen_churn(cp, 0.25, 4), true});
  return traces;
}

/// Deterministic smoke lattice: every storage x queue x chunk point, with
/// wait, workers, load-balance, and trace round-robined by case index, plus
/// one MT case per storage backend.
std::vector<FuzzCase> smoke_cases() {
  const std::vector<NamedTrace> traces = smoke_traces(6000, 1500);
  std::vector<FuzzCase> cases;
  std::size_t idx = 0;
  for (const StoragePoint& sp : kStorages) {
    for (const QueueKind queue : kQueues) {
      for (const std::size_t chunk : kChunkSizes) {
        const NamedTrace& tr = traces[idx % 7];  // sequential traces only
        FuzzCase c;
        c.cfg.storage = sp.storage;
        c.cfg.slots = sp.slots;
        c.cfg.sig_hash = sp.hash;
        c.cfg.queue = queue;
        c.cfg.chunk_size = chunk;
        c.cfg.wait = kWaits[idx % 3];
        c.cfg.workers = kWorkerCounts[idx % 4];
        if (idx % 2 == 0) c.cfg.load_balance = active_balancer();
        c.cfg.mt_targets = false;
        // Front-end reduction axis: dedup alternates in pairs of cases, so
        // it crosses both load-balance settings as the index advances.
        c.cfg.dedup = (idx / 2) % 2 == 0;
        // Sampling axis: rotate off / 100% / 50% / 10% duty.  100% (skip=0)
        // drops nothing and must behave exactly like off; the 50% and 10%
        // points run the sampled-mode harness path — subset contract against
        // the full oracle, then exact/bounded judging against the sampled
        // one — on every storage backend as the index advances.
        const char* samp = "";
        switch (idx % 4) {
          case 1:
            c.cfg.sampling_burst = 8;
            c.cfg.sampling_skip = 0;
            samp = "/samp100";
            break;
          case 2:
            c.cfg.sampling_burst = 4;
            c.cfg.sampling_skip = 4;
            samp = "/samp50";
            break;
          case 3:
            c.cfg.sampling_burst = 1;
            c.cfg.sampling_skip = 9;
            samp = "/samp10";
            break;
          default:
            break;  // sampling off
        }
        c.trace = tr.trace;
        c.name = std::string(sp.name) + "/" + queue_kind_name(queue) +
                 "/chunk" + std::to_string(chunk) + "/" +
                 wait_kind_name(c.cfg.wait) + "/w" +
                 std::to_string(c.cfg.workers) +
                 (c.cfg.load_balance.enabled ? "/lb" : "") +
                 (c.cfg.dedup ? "/dedup" : "") + samp + "/" + tr.name;
        cases.push_back(std::move(c));
        ++idx;
      }
    }
  }
  for (std::size_t s = 0; s < std::size(kStorages); ++s) {
    const StoragePoint& sp = kStorages[s];
    const NamedTrace& tr = traces[7 + (s % 2)];  // mt-pc / mt-churn
    FuzzCase c;
    c.cfg.storage = sp.storage;
    c.cfg.slots = sp.slots;
    c.cfg.sig_hash = sp.hash;
    c.cfg.mt_targets = true;
    c.cfg.queue = kQueues[s % 3];
    c.cfg.chunk_size = kChunkSizes[s % 3];
    c.cfg.wait = kWaits[s % 3];
    c.cfg.workers = 4;
    if (s % 2 == 1) c.cfg.load_balance = active_balancer();
    // MT events never dedup (fresh timestamps), but the axis still alters
    // the replay path (RLE delivery) — keep it exercised under MT too.
    c.cfg.dedup = s % 2 == 0;
    c.trace = tr.trace;
    c.name = std::string(sp.name) + "/mt/" + queue_kind_name(c.cfg.queue) +
             "/chunk" + std::to_string(c.cfg.chunk_size) +
             (c.cfg.dedup ? "/dedup" : "") + "/" + tr.name;
    cases.push_back(std::move(c));
  }
  return cases;
}

/// One randomized case for the deep sweep.
FuzzCase random_case(Rng& rng, std::uint64_t seq) {
  GenParams p;
  p.accesses = 2000 + rng.below(18'000);
  p.distinct = 64 + rng.below(4000);
  p.write_ratio = 0.1 + 0.8 * rng.uniform();
  p.stride = 4u << rng.below(3);
  p.seed = rng();

  FuzzCase c;
  const std::uint64_t gen = rng.below(9);
  bool mt = false;
  const char* gname = "?";
  switch (gen) {
    case 0: c.trace = gen_uniform(p); gname = "uniform"; break;
    case 1: c.trace = gen_strided(p); gname = "strided"; break;
    case 2: c.trace = gen_zipf(p, 1.0 + rng.uniform()); gname = "zipf"; break;
    case 3:
      p.distinct = 32 + rng.below(512);
      c.trace = gen_loop(p, 4 + rng.below(64), rng.below(2) == 0);
      gname = "loop";
      break;
    case 4:
      p.distinct = 64 + rng.below(1024);
      c.trace = gen_churn(p, 0.1 + 0.4 * rng.uniform());
      gname = "churn";
      break;
    case 7:
      c.trace = gen_nest(p, 2 + static_cast<std::uint32_t>(rng.below(3)),
                         2 + static_cast<std::size_t>(rng.below(4)));
      gname = "nest";
      break;
    case 8:
      p.distinct = 64 + rng.below(1024);
      c.trace = gen_churn(p, 0.1 + 0.4 * rng.uniform(), 0,
                          1 + static_cast<unsigned>(rng.below(3)));
      gname = "churn-nest";
      break;
    case 5:
      c.trace = gen_mt_producer_consumer(
          p, 2 + static_cast<unsigned>(rng.below(7)), 16 + rng.below(256));
      gname = "mt-pc";
      mt = true;
      break;
    default:
      p.distinct = 64 + rng.below(1024);
      c.trace = gen_churn(p, 0.1 + 0.4 * rng.uniform(),
                          2 + static_cast<unsigned>(rng.below(7)));
      gname = "mt-churn";
      mt = true;
      break;
  }

  const StoragePoint& sp = kStorages[rng.below(std::size(kStorages))];
  c.cfg.storage = sp.storage;
  c.cfg.slots = sp.slots;
  c.cfg.sig_hash = sp.hash;
  c.cfg.mt_targets = mt;
  c.cfg.queue = kQueues[rng.below(3)];
  c.cfg.wait = kWaits[rng.below(3)];
  c.cfg.workers = kWorkerCounts[rng.below(4)];
  c.cfg.chunk_size = kChunkSizes[rng.below(3)];
  c.cfg.queue_capacity = 4u << rng.below(5);
  c.cfg.modulo_routing = rng.below(2) == 0;
  c.cfg.dedup = rng.below(2) == 0;
  // Sampling axis: half the sequential cases run sampled with a random
  // burst/skip duty point (MT traces replay unsampled — the runtime gate is
  // sequential-targets-only, and the harness mirrors that).
  std::string samp;
  if (!mt && rng.below(2) == 0) {
    c.cfg.sampling_burst = 1 + static_cast<unsigned>(rng.below(8));
    c.cfg.sampling_skip = 1 + static_cast<unsigned>(rng.below(11));
    samp = "/samp" + std::to_string(c.cfg.sampling_burst) + "-" +
           std::to_string(c.cfg.sampling_skip);
  }
  if (rng.below(2) == 0) {
    c.cfg.load_balance = active_balancer();
    c.cfg.load_balance.sample_shift = static_cast<unsigned>(rng.below(4));
    c.cfg.load_balance.eval_interval_chunks = 4 + rng.below(64);
  }
  c.name = "deep#" + std::to_string(seq) + "/" + sp.name + "/" + gname +
           (mt ? "/mt" : "") + samp;
  return c;
}

/// Deterministic-schedule lattice: queue x wait at 2 and 8 workers, one case
/// per point, exact-expectation storages only (sig-exact / packed
/// alternate) so any schedule-dependent divergence is a hard byte-level
/// failure, with the exploration seed and algorithm varied per case.
/// `extra` appends that many additional seeds on the flake-shaped point —
/// eight workers, the default SPSC/park transport — which is where the
/// cross-attribution bug this lattice exists to catch actually lived.
std::vector<FuzzCase> schedule_cases(std::uint64_t seed, std::size_t extra) {
  // Smaller traces than the plain smoke gate: every hand-off runs through
  // the controller (one grant per point), so case cost scales with the
  // point count, and 2.5k events already cross every chunk boundary kind.
  const std::vector<NamedTrace> traces = smoke_traces(2500, 800);
  std::vector<FuzzCase> cases;
  const StoragePoint& sig_exact = storage_point("sig-exact");
  const StoragePoint& packed = storage_point("packed");
  std::size_t idx = 0;
  auto make = [&](unsigned workers, QueueKind queue, WaitKind wait,
                  std::uint64_t case_seed) {
    const StoragePoint& sp = idx % 2 == 0 ? sig_exact : packed;
    FuzzCase c;
    c.cfg.storage = sp.storage;
    c.cfg.slots = sp.slots;
    c.cfg.sig_hash = sp.hash;
    c.cfg.workers = workers;
    c.cfg.queue = queue;
    c.cfg.wait = wait;
    c.cfg.dedup = (idx / 2) % 2 == 0;
    c.cfg.chunk_size = kChunkSizes[idx % 3];
    const NamedTrace& tr = traces[idx % 7];  // sequential traces only
    c.trace = tr.trace;
    c.sched = true;
    c.sched_spec.seed = case_seed;
    c.sched_spec.algo =
        idx % 2 == 0 ? sched::Algo::kRandomWalk : sched::Algo::kPct;
    c.name = std::string("sched/") + sp.name + "/w" + std::to_string(workers) +
             "/" + queue_kind_name(queue) + "/" + wait_kind_name(wait) +
             (c.cfg.dedup ? "/dedup" : "") +
             "/chunk" + std::to_string(c.cfg.chunk_size) + "/" + tr.name +
             "/" + sched::algo_name(c.sched_spec.algo) + "-seed" +
             std::to_string(case_seed);
    cases.push_back(std::move(c));
    ++idx;
  };
  for (const unsigned workers : {2u, 8u})
    for (const QueueKind queue : kQueues)
      for (const WaitKind wait : kWaits) make(workers, queue, wait, seed + idx);
  for (std::size_t i = 0; i < extra; ++i)
    make(8, QueueKind::kLockFreeSpsc, WaitKind::kPark, seed + 1000 + i);
  return cases;
}

/// Shrinks a failing case and (optionally) writes a corpus repro.  For a
/// scheduled case the ladder starts with the schedule itself (drop, then
/// truncate — see shrink_schedule); trace and config minimization then run
/// with the surviving schedule replayed, and the repro is written with a
/// sched section carrying it.
void handle_failure(const FuzzCase& c, const CaseOutcome& outcome,
                    const std::string& corpus_dir, std::size_t failure_no) {
  std::fprintf(stderr, "FAIL %s (%s expectation)\n%s\n", c.name.c_str(),
               expectation_name(outcome.expectation), outcome.detail.c_str());

  ReproCase repro;
  ShrinkStats st;
  if (c.sched) {
    // The failing exploration recorded the interleaving it took; replaying
    // that recording (not re-exploring) is what makes the shrink predicate
    // deterministic.
    const SchedFailurePredicate sched_fails =
        [&](const Trace& t, const ProfilerConfig& cfg,
            const sched::ScheduleTrace* schedule) {
          if (schedule == nullptr) return !run_case(t, cfg).ok;
          SchedSpec spec = c.sched_spec;
          spec.replay = *schedule;
          return !run_case(t, cfg, &spec).ok;
        };
    bool dropped = false;
    repro.schedule = shrink_schedule(c.trace, c.cfg, outcome.schedule,
                                     sched_fails, &st, &dropped);
    std::fprintf(stderr, "schedule shrunk: %zu -> %zu steps%s\n",
                 st.initial_events, st.final_events,
                 dropped ? " (dropped: fails free-running)" : "");
    repro.sched = !dropped;
    repro.sched_seed = c.sched_spec.seed;
    repro.sched_algo = c.sched_spec.algo;
    const FailurePredicate still_fails =
        [&](const Trace& t, const ProfilerConfig& cfg) {
          return sched_fails(t, cfg, repro.sched ? &repro.schedule : nullptr);
        };
    st = ShrinkStats{};
    repro.trace = shrink_trace(c.trace, c.cfg, still_fails, 400, &st);
    repro.cfg = shrink_config(repro.trace, c.cfg, still_fails);
  } else {
    const FailurePredicate still_fails =
        [](const Trace& t, const ProfilerConfig& cfg) {
          return !run_case(t, cfg).ok;
        };
    repro.trace = shrink_trace(c.trace, c.cfg, still_fails, 400, &st);
    repro.cfg = shrink_config(repro.trace, c.cfg, still_fails);
  }
  std::fprintf(stderr,
               "shrunk: %zu -> %zu events in %zu evaluations\n",
               st.initial_events, st.final_events, st.evaluations);

  if (corpus_dir.empty()) return;
  repro.note = c.name;
  std::error_code ec;
  std::filesystem::create_directories(corpus_dir, ec);
  const std::string path =
      corpus_dir + "/depfuzz-" + std::to_string(failure_no) + ".repro";
  if (write_repro(repro, path))
    std::fprintf(stderr, "repro written to %s\n", path.c_str());
  else
    std::fprintf(stderr, "could not write repro to %s\n", path.c_str());
}

int run_cases(const std::vector<FuzzCase>& cases,
              const std::string& corpus_dir) {
  std::size_t failures = 0, free_runs = 0;
  for (const FuzzCase& c : cases) {
    const CaseOutcome outcome =
        run_case(c.trace, c.cfg, c.sched ? &c.sched_spec : nullptr);
    if (c.sched)
      std::printf("%s: %llu steps%s\n", c.name.c_str(),
                  static_cast<unsigned long long>(outcome.sched_steps),
                  outcome.sched_free_ran ? ", free-ran" : "");
    if (outcome.sched_free_ran) {
      // A case that used up its step budget ran the rest unscheduled: it
      // did not explore the interleaving it names, so it does not hold.
      std::fprintf(stderr, "FAIL %s: free-ran after %llu steps\n",
                   c.name.c_str(),
                   static_cast<unsigned long long>(outcome.sched_steps));
      ++free_runs;
    }
    if (outcome.ok) {
      failures += outcome.sched_free_ran;
      continue;
    }
    handle_failure(c, outcome, corpus_dir, failures);
    ++failures;
  }
  if (!cases.empty() && cases.front().sched)
    std::printf("depfuzz: %zu scheduled case(s) free-ran\n", free_runs);
  std::printf("depfuzz: %zu/%zu cases hold\n", cases.size() - failures,
              cases.size());
  return failures == 0 ? 0 : 1;
}

int replay_file(const std::string& path) {
  ReproCase repro;
  std::string error;
  if (!read_repro(repro, path, &error)) {
    std::fprintf(stderr, "depfuzz: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  SchedSpec spec;
  if (repro.sched) {
    spec.seed = repro.sched_seed;
    spec.algo = repro.sched_algo;
    spec.replay = repro.schedule;
  }
  const CaseOutcome outcome =
      run_case(repro.trace, repro.cfg, repro.sched ? &spec : nullptr);
  if (!outcome.ok) {
    std::fprintf(stderr, "FAIL %s%s%s (%s expectation)\n%s\n", path.c_str(),
                 repro.note.empty() ? "" : ": ", repro.note.c_str(),
                 expectation_name(outcome.expectation), outcome.detail.c_str());
    return 1;
  }
  std::printf("ok %s (%zu events, %s expectation%s)\n", path.c_str(),
              repro.trace.size(), expectation_name(outcome.expectation),
              repro.sched ? ", scheduled" : "");
  return 0;
}

int replay_dir(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec))
    if (entry.path().extension() == ".repro")
      paths.push_back(entry.path().string());
  if (ec) {
    std::fprintf(stderr, "depfuzz: cannot read %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  if (paths.empty()) {
    std::fprintf(stderr, "depfuzz: no .repro files under %s\n", dir.c_str());
    return 1;
  }
  std::sort(paths.begin(), paths.end());
  int rc = 0;
  for (const std::string& path : paths)
    if (replay_file(path) != 0) rc = 1;
  return rc;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: depfuzz --smoke [--corpus DIR]\n"
      "       depfuzz --deep [--runs N] [--seconds S] [--seed S] [--corpus DIR]\n"
      "       depfuzz --schedules [--runs N] [--seed S] [--corpus DIR]\n"
      "       depfuzz --replay FILE | --replay-dir DIR | --list\n");
  return 2;
}

int depfuzz_main(int argc, char** argv) {
  enum class Mode { kNone, kSmoke, kDeep, kSchedules, kReplay, kReplayDir,
                    kList };
  Mode mode = Mode::kNone;
  std::string corpus_dir, replay_path;
  std::uint64_t seed = 1;
  std::size_t runs = 200;
  bool runs_set = false;
  long seconds = 0;

  auto value = [&](int& i) -> const char* {
    return i + 1 < argc ? argv[++i] : nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") mode = Mode::kSmoke;
    else if (arg == "--deep") mode = Mode::kDeep;
    else if (arg == "--schedules") mode = Mode::kSchedules;
    else if (arg == "--list") mode = Mode::kList;
    else if (arg == "--replay") {
      mode = Mode::kReplay;
      const char* v = value(i);
      if (v == nullptr) return usage();
      replay_path = v;
    } else if (arg == "--replay-dir") {
      mode = Mode::kReplayDir;
      const char* v = value(i);
      if (v == nullptr) return usage();
      replay_path = v;
    } else if (arg == "--corpus") {
      const char* v = value(i);
      if (v == nullptr) return usage();
      corpus_dir = v;
    } else if (arg == "--seed") {
      const char* v = value(i);
      if (v == nullptr) return usage();
      seed = std::strtoull(v, nullptr, 0);
    } else if (arg == "--runs") {
      const char* v = value(i);
      if (v == nullptr) return usage();
      runs = std::strtoull(v, nullptr, 0);
      runs_set = true;
    } else if (arg == "--seconds") {
      const char* v = value(i);
      if (v == nullptr) return usage();
      seconds = std::strtol(v, nullptr, 0);
    } else {
      return usage();
    }
  }

  switch (mode) {
    case Mode::kList: {
      for (const FuzzCase& c : smoke_cases())
        std::printf("%s (%zu events)\n", c.name.c_str(), c.trace.size());
      return 0;
    }
    case Mode::kSmoke:
      return run_cases(smoke_cases(), corpus_dir);
    case Mode::kSchedules:
      // The 18-case lattice is the bounded PR gate; --runs N appends N
      // extra exploration seeds for the nightly sweep.
      return run_cases(schedule_cases(seed, runs_set ? runs : 0), corpus_dir);
    case Mode::kDeep: {
      Rng rng(seed);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
      std::size_t failures = 0, executed = 0;
      for (std::size_t i = 0; i < runs; ++i) {
        if (seconds > 0 && std::chrono::steady_clock::now() >= deadline) break;
        const FuzzCase c = random_case(rng, i);
        const CaseOutcome outcome = run_case(c.trace, c.cfg);
        ++executed;
        if (!outcome.ok) {
          handle_failure(c, outcome, corpus_dir, failures);
          ++failures;
        }
      }
      std::printf("depfuzz: %zu/%zu cases hold (seed %llu)\n",
                  executed - failures, executed,
                  static_cast<unsigned long long>(seed));
      return failures == 0 ? 0 : 1;
    }
    case Mode::kReplay:
      return replay_file(replay_path);
    case Mode::kReplayDir:
      return replay_dir(replay_path);
    case Mode::kNone:
      break;
  }
  return usage();
}

}  // namespace
}  // namespace depprof

int main(int argc, char** argv) { return depprof::depfuzz_main(argc, argv); }
