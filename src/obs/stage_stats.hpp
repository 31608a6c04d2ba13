#pragma once
// Per-stage observability counters for the profiler pipeline.
//
// The Fig. 2 pipeline is a chain of stages — produce (chunk batching on the
// target threads), route (address ownership + load balancing), detect (one
// Algorithm 1 instance per worker), merge (folding the worker-local maps
// into the global one).  Each stage instance owns one cache-line-padded
// block of monotonic counters so that the hot path never shares a line with
// another stage and a concurrent snapshot never tears a stage in half.
//
// All mutation is relaxed-atomic: the counters are statistics, not
// synchronization.  Counters only ever increase (high-water marks included),
// so any two snapshots of a live pipeline are ordered component-wise — the
// monotonicity property obs_test asserts.
//
// Clock domains (see common/timer.hpp): busy_ns, idle_ns, parked_ns, and
// block_ns are wall-clock on the owning thread, so busy/idle/parked ratios
// are internally consistent; cpu_ns and idle_cpu_ns are CLOCK_THREAD_CPUTIME
// on the same intervals — cpu_ns feeds the simulated parallel time (it
// excludes preemption and parked sleep), idle_cpu_ns is the CPU a wait
// strategy burned while the stage had no input (the oversubscription metric
// of bench/ablation_waitstrategy).  One exception: the serial profiler's
// detect stage times each delivered batch with one wall-clock span and
// charges it to both busy_ns and cpu_ns.  Its kernel never waits, so the
// span is its CPU time up to preemption, and a CLOCK_THREAD_CPUTIME_ID read
// costs about eight CLOCK_MONOTONIC reads (340-360 ns against 40-48 ns on a
// 4-vCPU Xeon VM), which per batch would sit on the profiled path.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace depprof::obs {

/// How a counter is updated and rendered.
enum class CounterKind {
  kCount,      ///< summed by its add_*() method
  kHighWater,  ///< raised by its raise_*() method, never lowered
  kNanos,      ///< summed nanoseconds, rendered as seconds
};

// The counter table: one row per counter, and the only place the counter set
// is written down.  StageStats, StageSnapshot and kCounters are generated
// from it; PipelineObs::read(), the obs/report.hpp renderers and obs_test
// walk it.  Adding a counter is one row here, plus its column in obs_test's
// golden rendering.
//
//   X(member, update, key, label, width, kind)
//     member  StageStats atomic and StageSnapshot field
//     update  StageStats method that updates it
//     key     CSV column and JSON key
//     label   --stats text column header, right-aligned in `width` columns
//     kind    CounterKind
#define DEPPROF_OBS_COUNTERS(X)                                                                                \
  /* Flow and queueing (every stage). */                                                                       \
  X(events,                add_events,                 "events",                "events",      12, kCount)     \
  X(chunks,                add_chunks,                 "chunks",                "chunks",      10, kCount)     \
  X(stalls,                add_stalls,                 "stalls",                "stalls",       8, kCount)     \
  X(queue_depth_hwm,       raise_queue_depth,          "queue_depth_hwm",       "depth_hwm",   10, kHighWater) \
  /* Time and waiting (every stage; clock domains above); parks: OS blocking episodes; wakes: peers woken. */  \
  X(busy_ns,               add_busy_ns,                "busy_sec",              "busy_s",      10, kNanos)     \
  X(cpu_ns,                add_cpu_ns,                 "cpu_sec",               "cpu_s",       10, kNanos)     \
  X(idle_ns,               add_idle_ns,                "idle_sec",              "idle_s",      10, kNanos)     \
  X(idle_cpu_ns,           add_idle_cpu_ns,            "idle_cpu_sec",          "idlecpu_s",   10, kNanos)     \
  X(parked_ns,             add_parked_ns,              "parked_sec",            "parked_s",     9, kNanos)     \
  X(parks,                 add_parks,                  "parks",                 "parks",        7, kCount)     \
  X(block_ns,              add_block_ns,               "block_sec",             "block_s",      9, kNanos)     \
  X(wakes,                 add_wakes,                  "wakes",                 "wakes",        6, kCount)     \
  /* Load balancing (route): addresses rerouted, redistribution rounds. */                                     \
  X(migrations,            add_migrations,             "migrations",            "moved",        6, kCount)     \
  X(rounds,                add_rounds,                 "rounds",                "rounds",       6, kCount)     \
  /* Detect kernel (detect): slot prefetches issued K records ahead (a dedup run is one record). */            \
  X(prefetches,            add_prefetches,             "prefetches",            "prefetch",    10, kCount)     \
  /* Dedup and wire (produce): repeats elided, chunk payload bytes queued (40 B per event, + owner/run). */    \
  X(events_deduped,        add_events_deduped,         "events_deduped",        "deduped",     10, kCount)     \
  X(bytes_on_wire,         add_bytes_on_wire,          "bytes_on_wire",         "wire_bytes",  12, kCount)     \
  /* Always 0: chunks carry raw events.  Kept because perfbench/ reads StageSnapshot::pack_escapes. */         \
  X(pack_escapes,          add_pack_escapes,           "pack_escapes",          "escapes",      8, kCount)     \
  /* Sampling (produce): accesses dropped by the gate, gaps closed by a burst marker, overhead in ppm. */      \
  X(events_sampled_out,    add_events_sampled_out,     "events_sampled_out",    "sampled",     10, kCount)     \
  X(bursts,                add_bursts,                 "bursts",                "bursts",       7, kCount)     \
  X(sampled_overhead_ppm,  raise_sampled_overhead_ppm, "sampled_overhead_ppm",  "ovh_ppm",      8, kHighWater) \
  /* Race triage (produce, at finish): keys with a timestamp reversal, without one, wholly under locks. */     \
  X(races_confirmed,       add_races_confirmed,        "races_confirmed",       "races",        7, kCount)     \
  X(races_unconfirmed,     add_races_unconfirmed,      "races_unconfirmed",     "unconf",       7, kCount)     \
  X(races_lock_suppressed, add_races_lock_suppressed,  "races_lock_suppressed", "locksup",      7, kCount)     \
  /* Residency (at finish): paged-store leaf pages resident (detect), huge allocs degraded (produce). */       \
  X(resident_pages,        add_resident_pages,         "resident_pages",        "res_pages",    9, kCount)     \
  X(hugepage_fallbacks,    add_hugepage_fallbacks,     "hugepage_fallbacks",    "hp_fallbk",    9, kCount)

namespace detail {

/// Applies one update of `kind` to `counter`.  Adding zero is skipped: it
/// changes nothing but would still take the cache line exclusive.
template <CounterKind kind>
inline void bump(std::atomic<std::uint64_t>& counter, std::uint64_t n) {
  if constexpr (kind == CounterKind::kHighWater) {
    std::uint64_t cur = counter.load(std::memory_order_relaxed);
    while (n > cur && !counter.compare_exchange_weak(
                          cur, n, std::memory_order_relaxed)) {
    }
  } else if (n != 0) {
    counter.fetch_add(n, std::memory_order_relaxed);
  }
}

}  // namespace detail

/// One cache-line-padded block of monotonic counters for a stage instance.
struct alignas(64) StageStats {
#define DEPPROF_OBS_STAGE_STATS(member, update, key, label, width, kind) \
  std::atomic<std::uint64_t> member{0};                                  \
  void update(std::uint64_t n) { detail::bump<CounterKind::kind>(member, n); }
  DEPPROF_OBS_COUNTERS(DEPPROF_OBS_STAGE_STATS)
#undef DEPPROF_OBS_STAGE_STATS
};

static_assert(sizeof(StageStats) == 256,
              "whole cache lines only: no stage shares a line with another");

/// Plain-data copy of one stage's counters at a point in time.
struct StageSnapshot {
  std::string stage;  ///< "produce", "route", "detect[i]", "merge"
#define DEPPROF_OBS_SNAPSHOT(member, update, key, label, width, kind) \
  std::uint64_t member = 0;
  DEPPROF_OBS_COUNTERS(DEPPROF_OBS_SNAPSHOT)
#undef DEPPROF_OBS_SNAPSHOT

  double busy_sec() const { return static_cast<double>(busy_ns) * 1e-9; }
  double cpu_sec() const { return static_cast<double>(cpu_ns) * 1e-9; }
  double idle_sec() const { return static_cast<double>(idle_ns) * 1e-9; }
  double idle_cpu_sec() const { return static_cast<double>(idle_cpu_ns) * 1e-9; }
  double parked_sec() const { return static_cast<double>(parked_ns) * 1e-9; }
  double block_sec() const { return static_cast<double>(block_ns) * 1e-9; }
};

/// One row of the counter table, for code that walks every counter.
struct CounterSpec {
  std::atomic<std::uint64_t> StageStats::*live;
  std::uint64_t StageSnapshot::*value;
  const char* key;
  const char* label;
  int width;
  CounterKind kind;
};

/// Every counter, in table order (the CSV column order).
inline constexpr CounterSpec kCounters[] = {
#define DEPPROF_OBS_SPEC(member, update, key, label, width, kind)  \
  {&StageStats::member, &StageSnapshot::member, key, label, width, \
   CounterKind::kind},
    DEPPROF_OBS_COUNTERS(DEPPROF_OBS_SPEC)
#undef DEPPROF_OBS_SPEC
};

/// Point-in-time copy of every stage of one pipeline.
struct PipelineSnapshot {
  std::vector<StageSnapshot> stages;

  bool empty() const { return stages.empty(); }

  const StageSnapshot* find(const std::string& name) const {
    for (const auto& s : stages)
      if (s.stage == name) return &s;
    return nullptr;
  }

  /// Sum of a counter over the detect stages (per-worker Algorithm 1 runs).
  std::uint64_t detect_events() const {
    std::uint64_t sum = 0;
    for (const auto& s : stages)
      if (s.stage.rfind("detect", 0) == 0) sum += s.events;
    return sum;
  }
};

/// Counter blocks for one pipeline instance: produce, route, one detect
/// block per worker, merge.  The serial profiler is the one-worker special
/// case of the same layout, which is what gives ProfilerStats a single
/// well-defined shape for both profilers.
class PipelineObs {
 public:
  explicit PipelineObs(unsigned workers)
      : workers_(workers ? workers : 1),
        detect_(std::make_unique<StageStats[]>(workers_)) {}

  unsigned workers() const { return workers_; }

  StageStats& produce() { return produce_; }
  StageStats& route() { return route_; }
  StageStats& detect(unsigned worker) { return detect_[worker]; }
  StageStats& merge() { return merge_; }

  /// Sum of cpu_ns across all stages — the profiler's own cost, cheap
  /// enough to probe from the sampling controller between bursts
  /// (AccessSink::profiling_cost_ns).  The serial detect stage's share is
  /// wall time (see the clock domains above).
  std::uint64_t total_cpu_ns() const {
    std::uint64_t ns = produce_.cpu_ns.load(std::memory_order_relaxed) +
                       route_.cpu_ns.load(std::memory_order_relaxed) +
                       merge_.cpu_ns.load(std::memory_order_relaxed);
    for (unsigned w = 0; w < workers_; ++w)
      ns += detect_[w].cpu_ns.load(std::memory_order_relaxed);
    return ns;
  }

  PipelineSnapshot snapshot() const {
    PipelineSnapshot snap;
    snap.stages.reserve(workers_ + 3);
    snap.stages.push_back(read("produce", produce_));
    snap.stages.push_back(read("route", route_));
    for (unsigned w = 0; w < workers_; ++w)
      snap.stages.push_back(read("detect[" + std::to_string(w) + "]", detect_[w]));
    snap.stages.push_back(read("merge", merge_));
    return snap;
  }

 private:
  static StageSnapshot read(std::string name, const StageStats& s) {
    StageSnapshot out;
    out.stage = std::move(name);
    for (const CounterSpec& c : kCounters)
      out.*c.value = (s.*c.live).load(std::memory_order_relaxed);
    return out;
  }

  unsigned workers_;
  StageStats produce_;
  StageStats route_;
  std::unique_ptr<StageStats[]> detect_;
  StageStats merge_;
};

}  // namespace depprof::obs
