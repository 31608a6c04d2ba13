#include "oracle/harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "common/hash.hpp"
#include "instrument/dedup.hpp"
#include "oracle/diff.hpp"
#include "oracle/exact_oracle.hpp"
#include "sig/fpr_model.hpp"
#include "trace/nest.hpp"

namespace depprof {
namespace {

/// Budget parameters: kMargin absorbs the difference between the per-probe
/// formula-2 estimate and the realized collision count of a concrete hash
/// over a concrete address set; kSlack keeps tiny traces from flagging a
/// single unlucky collision as a contract violation.
constexpr double kMargin = 4.0;
constexpr std::size_t kSlack = 16;

/// Word-unit span and distinct-unit count of the trace (free events
/// excluded: they only clear state).  The signature operates on word units,
/// so these — not byte addresses — are the n of formula 2.
struct UnitStats {
  std::uint64_t span = 0;   ///< max_unit - min_unit + 1 (0 for empty traces)
  std::size_t events = 0;   ///< non-free accesses
  std::size_t distinct = 0; ///< distinct word units
};

/// Depth-1 ancestor of a nest context — the outermost-loop invocation the
/// event executed under (kRoot for events outside any loop, or for context
/// ids the forest never interned, which only corrupt input can produce).
std::uint32_t outermost_invocation(const NestForest& forest,
                                   std::uint32_t ctx) {
  if (ctx == NestForest::kRoot || ctx >= forest.size())
    return NestForest::kRoot;
  std::uint32_t c = ctx;
  while (forest.parent(c) != NestForest::kRoot) c = forest.parent(c);
  return c;
}

UnitStats unit_stats(const Trace& trace) {
  UnitStats s;
  std::uint64_t lo = ~0ull, hi = 0;
  std::unordered_set<std::uint64_t> units;
  for (const AccessEvent& ev : trace.events) {
    if (ev.is_free()) continue;
    const std::uint64_t u = word_addr(ev.addr);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    units.insert(u);
    ++s.events;
  }
  if (s.events > 0) s.span = hi - lo + 1;
  s.distinct = units.size();
  return s;
}

}  // namespace

const char* expectation_name(Expectation e) {
  switch (e) {
    case Expectation::kExact: return "exact";
    case Expectation::kBounded: return "bounded";
  }
  return "?";
}

Expectation classify_expectation(const ProfilerConfig& cfg,
                                 const Trace& trace) {
  if (cfg.storage != StorageKind::kSignature) return Expectation::kExact;
  if (cfg.sig_hash == SigHash::kModulo &&
      unit_stats(trace).span <= cfg.slots)
    return Expectation::kExact;
  return Expectation::kBounded;
}

DivergenceBudget divergence_budget(const ProfilerConfig& cfg,
                                   const Trace& trace,
                                   std::size_t oracle_keys) {
  DivergenceBudget b;
  const UnitStats s = unit_stats(trace);
  b.fpr = predicted_fpr(cfg.slots, s.distinct);
  const double scaled =
      kMargin * b.fpr * static_cast<double>(oracle_keys + s.events);
  b.max_divergent_keys = kSlack + static_cast<std::size_t>(std::ceil(scaled));
  return b;
}

Trace sample_stream(const Trace& trace, unsigned burst, unsigned skip) {
  Trace out;
  out.events.reserve(trace.events.size());
  if (burst == 0) burst = 1;
  const NestForest& forest = nest_forest();
  const unsigned cycle = burst + skip;
  bool in_unit = false;
  std::uint32_t unit_root = NestForest::kRoot;
  std::uint32_t unit_iter = 0;
  unsigned pos = 0;       // index of the current unit within the B+K cycle
  bool off = false;       // current unit is skipped
  bool pending_gap = false;
  for (const AccessEvent& ev : trace.events) {
    const std::uint32_t root = outermost_invocation(forest, ev.ctx);
    if (root == NestForest::kRoot) {
      // Outside any loop: always profiled, and any open unit is over.
      in_unit = false;
      off = false;
    } else if (!in_unit || root != unit_root || ev.iters[0] != unit_iter) {
      // New unit: a fresh outermost-loop invocation (each dynamic entry is
      // a fresh forest node) or the next iteration of the current one.
      in_unit = true;
      unit_root = root;
      unit_iter = ev.iters[0];
      off = pos >= burst;
      pos += 1;
      if (pos >= cycle) pos = 0;
    }
    if (off) {
      pending_gap = true;
      continue;
    }
    if (pending_gap) {
      // Gap-close rule: the marker precedes the first kept event after any
      // drop, so nothing is ever detected against pre-gap store state.
      pending_gap = false;
      AccessEvent mark;
      mark.kind = AccessKind::kBurstMark;
      mark.tid = ev.tid;
      out.events.push_back(mark);
    }
    out.events.push_back(ev);
  }
  return out;
}

SubsetReport check_sampled_subset(const DepMap& full, const DepMap& sampled) {
  SubsetReport r;
  for (const auto& [k, info] : full)
    if (k.type != DepType::kInit) ++r.full_edges;
  std::size_t violations = 0;
  auto violate = [&](const DepKey& k, const char* what) {
    r.ok = false;
    ++violations;
    if (violations > 8) return;
    char line[192];
    std::snprintf(line, sizeof(line),
                  "subset violation: %s sink=%u src=%u var=%u tid=%u: %s\n",
                  dep_type_name(k.type), k.sink_loc, k.src_loc, k.var,
                  k.sink_tid, what);
    r.detail += line;
  };
  for (const auto& [k, info] : sampled) {
    if (k.type == DepType::kInit) continue;
    ++r.sampled_edges;
    const DepInfo* f = full.find(k);
    if (f == nullptr) {
      violate(k, "edge absent from the unsampled map");
      continue;
    }
    if (info.count > f->count)
      violate(k, "instance count exceeds the unsampled map");
    if ((info.flags & static_cast<std::uint8_t>(~f->flags)) != 0)
      violate(k, "qualifier flags are not a subset");
    for (std::size_t d = 0; d < kNestLevels; ++d) {
      if (info.levels[d].d0 > f->levels[d].d0 ||
          info.levels[d].d1 > f->levels[d].d1 ||
          info.levels[d].d2p > f->levels[d].d2p) {
        violate(k, "per-level distance bucket exceeds the unsampled map");
        break;
      }
    }
  }
  if (violations > 8) {
    char line[64];
    std::snprintf(line, sizeof(line), "(+%zu more violations)\n",
                  violations - 8);
    r.detail += line;
  }
  r.recall = r.full_edges == 0
                 ? 1.0
                 : static_cast<double>(r.sampled_edges) /
                       static_cast<double>(r.full_edges);
  return r;
}

CaseOutcome run_case(const Trace& trace, const ProfilerConfig& cfg,
                     const SchedSpec* sched_spec) {
  CaseOutcome out;

  auto fail = [&](const std::string& what) {
    out.ok = false;
    if (!out.detail.empty()) out.detail += '\n';
    out.detail += what;
  };

  // Sampled mode (sequential targets, fixed schedule): the profilers run
  // over the sampled stream and are judged against the sampled-trace
  // oracle; the sampled oracle itself must first satisfy the subset
  // contract against the full-trace oracle.
  const bool sampled = cfg.sampling_skip > 0 && !cfg.mt_targets;
  Trace sampled_trace;
  const Trace* effective = &trace;
  DepMap oracle;
  if (sampled) {
    DepMap full = oracle_dependences(trace, cfg.mt_targets);
    sampled_trace =
        sample_stream(trace, cfg.sampling_burst, cfg.sampling_skip);
    oracle = oracle_dependences(sampled_trace, cfg.mt_targets);
    const SubsetReport sub = check_sampled_subset(full, oracle);
    if (!sub.ok)
      fail("sampled map violates the subset contract:\n" + sub.detail);
    effective = &sampled_trace;
  } else {
    oracle = oracle_dependences(trace, cfg.mt_targets);
  }
  out.expectation = classify_expectation(cfg, *effective);

  // The dedup front end is checked (and applied) once for both profilers.
  RleStream rle;
  if (cfg.dedup) {
    // Map-preservation contract of the front-end dedup (instrument/dedup.hpp):
    // expanding the RLE stream must reproduce the oracle's map exactly, for
    // every configuration — this is stronger than the exact/bounded split
    // below and is checked against the oracle itself, so a dedup defect is
    // attributed to dedup rather than to whichever store runs under it.
    rle = dedup_stream(effective->events.data(), effective->events.size());
    Trace expanded;
    expanded.events = expand_rle(rle);
    const DepMap oracle_rle = oracle_dependences(expanded, cfg.mt_targets);
    const DepDiff dedup_diff = diff_deps(oracle, oracle_rle);
    if (!dedup_diff.identical())
      fail("dedup is not map-preserving:\n" +
           format_diff(dedup_diff, "oracle(raw)", "oracle(dedup-expanded)"));
  }

  auto serial = make_serial_profiler(cfg);
  if (cfg.dedup)
    replay_rle(rle, *serial);
  else
    replay(*effective, *serial);

  // Parallel run, optionally under the deterministic schedule controller.
  // The session spans construction through finish(): workers attach as they
  // spawn.  The hand-off invariant counter is diffed across the run either
  // way — a violation is a pipeline bug regardless of schedule mode.
  const std::uint64_t violations_before = sched::violation_count();
  if (sched_spec != nullptr) {
    sched::Options opts;
    opts.seed = sched_spec->seed;
    opts.algo = sched_spec->algo;
    opts.replay = sched_spec->replay;
    sched::begin(opts);
  }
  {
    auto parallel = make_parallel_profiler(cfg);
    if (cfg.dedup)
      replay_rle(rle, *parallel);
    else
      replay(*effective, *parallel);
    if (sched_spec != nullptr) {
      sched::Result r = sched::end();
      out.schedule = std::move(r.recorded);
      out.sched_divergences = r.divergences;
      out.sched_steps = r.steps;
      out.sched_free_ran = r.free_ran;
    }
    out.violations = sched::violation_count() - violations_before;
    if (out.violations > 0) {
      char head[96];
      std::snprintf(head, sizeof(head),
                    "%llu chunk hand-off invariant violation(s)",
                    static_cast<unsigned long long>(out.violations));
      fail(head);
    }

    const DepDiff serial_diff = diff_deps(oracle, serial->dependences());
    const DepDiff parallel_diff = diff_deps(oracle, parallel->dependences());

    if (out.expectation == Expectation::kExact) {
      if (!serial_diff.identical())
        fail(format_diff(serial_diff, "oracle", "serial"));
      if (!parallel_diff.identical())
        fail(format_diff(parallel_diff, "oracle", "parallel"));
    } else {
      const DivergenceBudget budget =
          divergence_budget(cfg, *effective, oracle.size());
      auto check_bounded = [&](const DepDiff& d, const char* name) {
        if (d.divergent_keys() <= budget.max_divergent_keys) return;
        char head[160];
        std::snprintf(head, sizeof(head),
                      "%s exceeds the formula-2 divergence budget: %zu "
                      "divergent keys > %zu allowed (P_fp=%.4f)\n",
                      name, d.divergent_keys(), budget.max_divergent_keys,
                      budget.fpr);
        fail(head + format_diff(d, "oracle", name));
      };
      check_bounded(serial_diff, "serial");
      check_bounded(parallel_diff, "parallel");
    }
  }
  return out;
}

}  // namespace depprof
