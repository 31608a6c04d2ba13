#pragma once
// Deterministic schedule exploration for the parallel pipeline (ISSUE 7).
//
// Every cross-thread hand-off in the pipeline — chunk acquire/publish/
// recycle, queue push/pop, the migration mailbox, the blocking-wait poll
// loops — calls sched::point(site).  With no controller installed the call
// is one relaxed atomic load; under an active session (begin()/end(), or
// DEPPROF_SCHED=1 in the environment) the attached threads are serialized:
// exactly one attached thread runs between consecutive points, and a seeded
// controller chooses which one proceeds at each step.  The sequence of
// choices — the schedule — is recorded as a compact trace and can be
// replayed, which turns any failing interleaving into a committed,
// byte-stable repro instead of a wall-clock lottery ticket.
//
// Two exploration algorithms:
//   kRandomWalk — uniform choice over the runnable threads at each step;
//   kPct        — PCT-style: fixed random priorities, highest-priority
//                 runnable thread wins, with a few seeded priority-change
//                 points per run (plus a starvation rotation so a thread
//                 polling an empty queue cannot monopolize the schedule).
//
// The controller is cooperative and self-protecting: threads that never
// attach are unaffected, a thread that detaches (or exits) leaves the
// schedule, and a stall (replay divergence, a granted thread blocked
// outside any point) degrades to free running after a timeout instead of
// deadlocking — divergences are counted and reported, never hung on.
//
// The same header carries the pipeline's ownership/epoch invariant
// counters: chunk hand-off violations (wrong owner, double pop, stale
// recycle) call note_violation(), and the oracle harness fails any case
// whose run bumped the counter — the state-swap class of bug fires as an
// immediate, attributed assertion instead of a silently wrong map.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace depprof::sched {

/// Schedule-exploration algorithm.
enum class Algo {
  kRandomWalk,  ///< uniform choice among runnable threads
  kPct,         ///< priority-based with seeded change points
};

const char* algo_name(Algo a);
bool parse_algo(const char* name, Algo& out);

/// PCT starvation rotation: most grants one thread receives in a row, at
/// any sites, while another thread is attached.  A thread retrying an
/// empty or full queue makes no progress, so after this many it drops to
/// the lowest priority.
inline constexpr std::uint64_t kPctStarvationRuns = 8;

/// One scheduling decision: which thread was granted, at which site.
/// Replay follows the thread names; the sites double as divergence checks.
struct ScheduleStep {
  std::string thread;
  std::string site;
};

/// A recorded schedule — the compact repro format for interleavings.
struct ScheduleTrace {
  std::vector<ScheduleStep> steps;
  bool empty() const { return steps.empty(); }

  /// Line-oriented text round-trip ("<thread> <site>" per line).
  std::string format() const;
  static bool parse(ScheduleTrace& out, const std::string& text,
                    std::string* error = nullptr);
};

struct Options {
  std::uint64_t seed = 1;
  Algo algo = Algo::kRandomWalk;
  /// Grants before the controller falls back to free running (runaway cap).
  std::uint64_t max_steps = 1u << 20;
  /// Non-empty: follow this schedule instead of exploring; after the last
  /// recorded step (or on divergence) the run continues unscheduled.
  ScheduleTrace replay;
};

/// What a session did.
struct Result {
  ScheduleTrace recorded;
  std::uint64_t steps = 0;
  /// Replay mismatches (missing thread, site drift) + stall fallbacks.
  std::uint64_t divergences = 0;
  bool free_ran = false;  ///< hit max_steps or a stall fallback
};

/// Installs a controller.  Only one session at a time; begin() from the
/// thread that will end() it.  The calling thread is NOT auto-attached.
void begin(const Options& opts);

/// Uninstalls the controller and returns what it recorded.  Any still-
/// attached threads fall back to free running.
Result end();

bool active();

/// Attaches the calling thread under `name` ("main", "w0".."wN" — stable
/// names are what make recorded schedules byte-stable).  No-op when no
/// session is active.  Threads attach once; re-attaching under a new name
/// re-registers.
void attach(const char* name);

/// Detaches the calling thread (thread exit, or leaving the scheduled
/// region).  Safe when not attached.
void detach();

/// RAII attach/detach for worker threads.
struct ThreadGuard {
  explicit ThreadGuard(const char* name) { attach(name); }
  ~ThreadGuard() { detach(); }
  ThreadGuard(const ThreadGuard&) = delete;
  ThreadGuard& operator=(const ThreadGuard&) = delete;
};

/// Temporarily leaves the schedule across a genuinely-blocking region the
/// controller cannot see through (e.g. pthread_join of the workers).
struct DetachScope {
  DetachScope();
  ~DetachScope();
  DetachScope(const DetachScope&) = delete;
  DetachScope& operator=(const DetachScope&) = delete;

 private:
  bool was_attached_ = false;
  std::string name_;
};

/// The controller refuses to schedule until this many threads have
/// attached, so the first grants do not depend on thread-spawn timing.
/// Latched: once met, threads may leave without stalling the schedule.
void expect_threads(std::size_t n);

namespace detail {
extern std::atomic<int> g_active;
void point_slow(const char* site);
}  // namespace detail

/// A schedule point: under an active session the calling thread (if
/// attached) yields here until the controller grants it the next step.
/// One relaxed load when no session is installed.
inline void point(const char* site) {
  if (detail::g_active.load(std::memory_order_relaxed) != 0)
    detail::point_slow(site);
}

// --- ownership/epoch invariant counters ---------------------------------

/// Records one hand-off invariant violation (always-on, session or not).
/// Prints the first few to stderr and bumps the global counter the oracle
/// harness checks after every case.
void note_violation(const char* site, const char* detail);

std::uint64_t violation_count();
void reset_violations();

}  // namespace depprof::sched
