#pragma once
// Differential-oracle harness: one trace, one profiler configuration, three
// executions, one verdict.
//
// For every case the harness runs the exact oracle, the serial profiler,
// and the parallel profiler over the same trace and checks the paper's
// correctness contract:
//
//   * exact stores (PackedShadowStore, HashTableRecorder) and
//     signatures operating in the collision-free regime must produce maps
//     byte-identical to the oracle — keys, instance counts, qualifier
//     flags, carried loops and distances;
//   * finite signatures may diverge, but only within a budget derived from
//     the formula-2 false-positive model (see divergence_budget);
//   * serial and parallel must agree with each other under the same rules
//     (identical for exact stores; each within budget of the oracle for
//     finite signatures — their collision sets legitimately differ because
//     the per-worker signatures partition the address space);
//   * front-end redundancy elision (ProfilerConfig::dedup) is
//     map-preserving, not merely bounded: the exact oracle over the
//     expanded RLE stream must be byte-identical to the oracle over the
//     raw trace for *every* configuration, and the profilers are then fed
//     the deduplicated stream under the same exact/bounded rules as above.
//
// The harness is the one definition of "the pipeline is correct" shared by
// tools/depfuzz, the corpus regression tests, and the CI smoke job.

#include <cstdint>
#include <string>

#include "core/profiler.hpp"
#include "sched/sched.hpp"
#include "trace/trace.hpp"

namespace depprof {

/// What the configuration promises relative to the oracle.
enum class Expectation {
  kExact,    ///< byte-identical dependence maps
  kBounded,  ///< divergence within the formula-2 budget
};

const char* expectation_name(Expectation e);

/// Divergence budget for a finite-signature configuration: divergent keys
/// (missing + extra + mismatched) per comparison must not exceed
/// max_divergent_keys, which is kSlack + kMargin * P_fp * (oracle keys +
/// events).  P_fp is formula 2 evaluated at the trace's distinct address
/// count; for saturated signatures (P_fp -> 1) the bound is honest but
/// weak — the paper itself only claims accuracy while the signature is
/// sized for the working set.
struct DivergenceBudget {
  double fpr = 0.0;
  std::size_t max_divergent_keys = 0;
};

/// Classifies what `cfg` promises on `trace`.  Exact stores are always
/// kExact.  A signature is kExact when collisions are structurally
/// impossible: modulo indexing with the trace's word-unit span no larger
/// than the slot count (any two in-span units then map to distinct slots).
Expectation classify_expectation(const ProfilerConfig& cfg, const Trace& trace);

DivergenceBudget divergence_budget(const ProfilerConfig& cfg,
                                   const Trace& trace,
                                   std::size_t oracle_keys);

/// Deterministic-schedule directive for a case (ISSUE 7): run the parallel
/// profiler under the schedule controller, either exploring from `seed`
/// with `algo` or replaying a recorded schedule.
struct SchedSpec {
  std::uint64_t seed = 1;
  sched::Algo algo = sched::Algo::kRandomWalk;
  /// Non-empty: replay this schedule instead of exploring.
  sched::ScheduleTrace replay;
};

/// Verdict for one (trace, config) case.
struct CaseOutcome {
  bool ok = true;
  Expectation expectation = Expectation::kExact;
  std::string detail;  ///< failure report ("" when ok)
  /// Hand-off invariant violations observed during the case (always
  /// checked; any violation fails the case).
  std::uint64_t violations = 0;
  /// Schedule the parallel run took (recorded under a SchedSpec session;
  /// empty otherwise) — what a failing case commits as its repro.
  sched::ScheduleTrace schedule;
  std::uint64_t sched_divergences = 0;
  std::uint64_t sched_steps = 0;  ///< grants the controller made
  /// The schedule hit its step budget and the rest of the run was not
  /// scheduled at all.
  bool sched_free_ran = false;
};

/// Trace-replay twin of the runtime's overhead-budget sampling gate
/// (instrument/runtime.cpp): applies the deterministic B-on / K-off burst
/// schedule at outermost-loop-iteration granularity and returns the stream
/// a sampled run would have delivered.  A sampling unit is identified by
/// (root-ancestor nest node, outermost iteration counter); events outside
/// any loop are always kept; after any dropped event a kBurstMark precedes
/// the next kept event, whatever it is — the gap-close rule that makes the
/// sampled map a subset of the unsampled one.  With skip == 0 the output is
/// the input, marker-free.
Trace sample_stream(const Trace& trace, unsigned burst, unsigned skip);

/// Verdict of the sampled-vs-unsampled subset contract.
struct SubsetReport {
  bool ok = true;
  std::string detail;  ///< first few violations ("" when ok)
  /// Non-INIT dependence edges in each map.  INIT keys are excluded from
  /// the contract: INIT marks the burst-local first observed write, so a
  /// post-gap write legitimately re-INITs an address the unsampled run saw
  /// written earlier — a sampling artifact, not a dependence edge.
  std::size_t full_edges = 0;
  std::size_t sampled_edges = 0;
  /// Edge recall: sampled_edges / full_edges (1.0 for an empty full map).
  double recall = 1.0;
};

/// Checks that `sampled` is a subset of `full` per non-INIT dependence
/// edge: every sampled key exists in the full map with no larger instance
/// count, a subset of its qualifier flags, and component-wise no larger
/// per-level distance buckets.  This is the correctness claim of sampling —
/// gaps may only *lose* evidence, never invent or misattribute it.
SubsetReport check_sampled_subset(const DepMap& full, const DepMap& sampled);

/// Runs oracle + serial + parallel over `trace` under `cfg` and checks the
/// contract above.  The parallel run uses cfg as-is (workers, queue, wait,
/// chunking, load balancer); the serial run shares the storage half of cfg.
/// With a SchedSpec the parallel run executes under the deterministic
/// schedule controller; the ownership/epoch invariant is checked either
/// way.
///
/// With cfg.sampling_skip > 0 (and sequential targets) the case runs in
/// sampled mode: the full-trace oracle is computed first, the trace is
/// passed through sample_stream, the sampled-trace oracle must satisfy the
/// subset contract against the full one, and both profilers then run over
/// the sampled stream under the usual exact/bounded rules relative to the
/// sampled oracle.
CaseOutcome run_case(const Trace& trace, const ProfilerConfig& cfg,
                     const SchedSpec* sched = nullptr);

}  // namespace depprof
