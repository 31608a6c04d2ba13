#include "sched/sched.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string_view>
#include <thread>

#include "common/rng.hpp"

namespace depprof::sched {
namespace {

using Clock = std::chrono::steady_clock;

/// How long a thread waits at a point before re-checking for a grant.
constexpr std::chrono::milliseconds kPollSlice{2};
/// All runnable threads parked with no grant for this long => stall
/// fallback (counts as a divergence, never a deadlock).
constexpr std::chrono::seconds kStallTimeout{5};

struct ThreadState {
  std::string name;
  bool at_point = false;
  bool granted = false;
  const char* site = "";
  std::uint64_t priority = 0;  // PCT: higher wins
};

/// The per-session controller.  One mutex guards everything: schedule
/// points are chunk-granular (not per event), so this is nowhere near the
/// hot path, and a single lock keeps grant decisions linearizable.
class Controller {
 public:
  explicit Controller(const Options& opts) : opts_(opts), rng_(opts.seed) {
    // Reserve the whole recording up front: the controller lives in the
    // target's process, so a vector that doubles mid-run would perturb the
    // very heap layouts the harness exists to explore (the same bug class
    // as a chunk pool that grows on demand).  Site/thread names fit SSO, so
    // after this reserve a recorded step never touches the allocator.
    result_.recorded.steps.reserve(opts_.max_steps);
    if (opts_.algo == Algo::kPct) {
      // Seeded change points: a few steps at which a random thread's
      // priority drops to the bottom (the "d-1 change points" of PCT).
      const std::uint64_t horizon = std::max<std::uint64_t>(
          64, opts_.replay.empty() ? 4096 : opts_.replay.steps.size());
      for (int i = 0; i < 3; ++i)
        change_points_.push_back(rng_.below(horizon));
      std::sort(change_points_.begin(), change_points_.end());
    }
  }

  void attach(const std::string& name) {
    std::lock_guard lock(mu_);
    ThreadState& st = threads_[std::this_thread::get_id()];
    st.name = name;
    st.at_point = false;
    st.granted = false;
    st.priority = next_priority_++;
    cv_.notify_all();
  }

  /// Returns the detached thread's name ("" when it was not attached).
  std::string detach() {
    std::unique_lock lock(mu_);
    const auto it = threads_.find(std::this_thread::get_id());
    if (it == threads_.end()) return "";
    std::string name = it->second.name;
    threads_.erase(it);
    // The departed thread may have been the granted one, or the last
    // straggler the barrier was waiting on.
    maybe_grant();
    cv_.notify_all();
    return name;
  }

  void point(const char* site) {
    std::unique_lock lock(mu_);
    if (free_run_) return;
    const auto it = threads_.find(std::this_thread::get_id());
    if (it == threads_.end()) return;  // unattached threads run free
    ThreadState& me = it->second;
    me.at_point = true;
    me.site = site;
    maybe_grant();
    cv_.notify_all();
    auto parked_since = Clock::now();
    while (!me.granted && !free_run_) {
      if (cv_.wait_for(lock, kPollSlice) == std::cv_status::timeout) {
        maybe_grant();
        // Stall fallback: every attached thread is parked at a point, the
        // barrier is met, and still nobody holds the grant — a replay that
        // diverged past repair or a controller bug.  Degrade to free
        // running rather than hang the run.
        if (!me.granted && !free_run_ && barrier_met_ && all_at_point() &&
            Clock::now() - parked_since > kStallTimeout) {
          ++result_.divergences;
          enter_free_run();
        }
      }
    }
    if (me.granted) {
      me.granted = false;
      me.at_point = false;
    }
  }

  void expect_threads(std::size_t n) {
    std::lock_guard lock(mu_);
    expected_ = n;
    barrier_met_ = threads_.size() >= expected_;
  }

  Result finish() {
    std::lock_guard lock(mu_);
    enter_free_run();
    result_.free_ran = free_ran_note_;
    return std::move(result_);
  }

 private:
  bool all_at_point() const {
    for (const auto& [id, st] : threads_)
      if (!st.at_point) return false;
    return !threads_.empty();
  }

  bool anyone_granted() const {
    for (const auto& [id, st] : threads_)
      if (st.granted) return true;
    return false;
  }

  void enter_free_run() {
    if (free_run_) return;
    free_run_ = true;
    cv_.notify_all();
  }

  /// Grants the next step when the system is quiescent: every attached
  /// thread is parked at a point (so the previous grantee has re-arrived)
  /// and the registration barrier is met.  Caller holds mu_.
  void maybe_grant() {
    if (free_run_ || anyone_granted()) return;
    if (!barrier_met_) {
      barrier_met_ = expected_ == 0 || threads_.size() >= expected_;
      if (!barrier_met_) return;
      // The census is complete: replace the attach-order priorities (attach
      // order is a race between spawning threads) with a seeded shuffle over
      // the name-sorted census, so PCT's initial priority band is a pure
      // function of (names, seed) and identical seeds explore identical
      // schedules.
      std::vector<ThreadState*> census;
      census.reserve(threads_.size());
      for (auto& [id, st] : threads_) census.push_back(&st);
      std::sort(census.begin(), census.end(),
                [](const ThreadState* a, const ThreadState* b) {
                  return a->name < b->name;
                });
      for (std::size_t i = census.size(); i > 1; --i)
        std::swap(census[i - 1], census[rng_.below(i)]);
      for (std::size_t i = 0; i < census.size(); ++i)
        census[i]->priority = i;
    }
    if (!all_at_point()) return;
    if (result_.steps >= opts_.max_steps) {
      free_ran_note_ = true;
      enter_free_run();
      return;
    }

    // Runnable set in name order: grant decisions must depend only on the
    // schedule so far, never on attach timing or map iteration order.
    std::vector<ThreadState*> ready;
    ready.reserve(threads_.size());
    for (auto& [id, st] : threads_) ready.push_back(&st);
    std::sort(ready.begin(), ready.end(),
              [](const ThreadState* a, const ThreadState* b) {
                return a->name < b->name;
              });

    // Poll demotion: a thread spinning at the idle-wait site only becomes
    // grantable when every ready thread is idle-waiting.  An idle worker
    // re-arrives at wait.poll forever without making progress, so granting
    // it while productive work is pending burns the schedule budget on
    // no-op poll iterations — without this, one empty-queue worker fills
    // the entire recording with wait.poll steps and the controller hits
    // max_steps and silently degrades to free-run.
    std::vector<ThreadState*> active;
    active.reserve(ready.size());
    for (ThreadState* st : ready)
      if (std::string_view(st->site) != "wait.poll") active.push_back(st);
    if (active.empty()) active = ready;

    ThreadState* pick = nullptr;
    if (replay_pos_ < opts_.replay.steps.size()) {
      const ScheduleStep& step = opts_.replay.steps[replay_pos_++];
      for (ThreadState* st : ready)
        if (st->name == step.thread) pick = st;
      if (pick == nullptr) {
        ++result_.divergences;
        pick = algo_pick(active, ready);
      } else if (step.site != pick->site) {
        ++result_.divergences;  // granted anyway: names drive replay
      }
    } else if (!opts_.replay.empty()) {
      // Recorded schedule exhausted: the interesting prefix has been
      // replayed; let the rest of the run drain at full speed.
      enter_free_run();
      return;
    } else {
      pick = algo_pick(active, ready);
    }

    pick->granted = true;
    result_.recorded.steps.push_back({pick->name, pick->site});
    ++result_.steps;
    cv_.notify_all();
  }

  /// Picks among `active` (the poll-demoted runnable set); `ready` is every
  /// runnable thread.
  ThreadState* algo_pick(const std::vector<ThreadState*>& active,
                         const std::vector<ThreadState*>& ready) {
    if (opts_.algo == Algo::kRandomWalk)
      return active[rng_.below(active.size())];

    // PCT: priority change points first, then highest priority wins.
    while (!change_points_.empty() && result_.steps >= change_points_.front()) {
      change_points_.erase(change_points_.begin());
      demote(*active[rng_.below(active.size())]);
    }
    ThreadState* pick = highest(active);
    // Starvation rotation: PCT assumes a scheduled thread makes progress,
    // but a pipeline thread retrying a full or empty queue just re-arrives,
    // at one site or alternating between its retry and wait.poll.  So runs
    // count grants to one thread at any site, and after kPctStarvationRuns
    // in a row the thread drops below every other one and the grant goes
    // to the best other thread: an active one, else a polling one.
    if (pick->name == last_grant_name_ &&
        same_grant_run_ >= kPctStarvationRuns) {
      demote(*pick);
      pick = highest(active.size() > 1 ? active : ready);
    }
    if (pick->name == last_grant_name_) {
      ++same_grant_run_;
    } else {
      last_grant_name_ = pick->name;
      same_grant_run_ = 1;
    }
    return pick;
  }

  /// Highest priority in `set`; ties go to name order.
  static ThreadState* highest(const std::vector<ThreadState*>& set) {
    ThreadState* best = set.front();
    for (ThreadState* st : set)
      if (st->priority > best->priority) best = st;
    return best;
  }

  /// Moves `st` strictly below every other thread by lifting the whole band
  /// one step (order kept) and putting `st` at 0.  Demoted threads must
  /// never tie at the bottom: ties go to name order, which could hand the
  /// grant straight back to the thread just demoted.
  void demote(ThreadState& st) {
    for (auto& [id, other] : threads_) ++other.priority;
    st.priority = 0;
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::thread::id, ThreadState> threads_;
  Options opts_;
  Rng rng_;
  Result result_;
  bool free_run_ = false;
  bool free_ran_note_ = false;
  bool barrier_met_ = true;
  std::size_t expected_ = 0;
  std::size_t replay_pos_ = 0;
  std::uint64_t next_priority_ = 1;
  std::vector<std::uint64_t> change_points_;
  std::string last_grant_name_;  ///< PCT: thread of the current grant run
  std::uint64_t same_grant_run_ = 0;  ///< grants in that run
};

/// Session slot.  g_active gates the fast path; the pointer itself is only
/// touched under g_session_mu (begin/end are not hot).  Shared ownership:
/// a straggler inside point_slow pins the controller alive across end().
std::mutex g_session_mu;
std::shared_ptr<Controller> g_session;

std::shared_ptr<Controller> session() {
  std::lock_guard lock(g_session_mu);
  return g_session;
}

// First-violations print cap so a systematically broken run does not drown
// the log; the counter keeps the full tally.
std::atomic<std::uint64_t> g_violations{0};
constexpr std::uint64_t kPrintCap = 16;

}  // namespace

namespace detail {
std::atomic<int> g_active{0};

void point_slow(const char* site) {
  if (auto c = session()) c->point(site);
}
}  // namespace detail

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::kRandomWalk: return "random";
    case Algo::kPct: return "pct";
  }
  return "?";
}

bool parse_algo(const char* name, Algo& out) {
  const std::string_view v = name;
  if (v == "random") out = Algo::kRandomWalk;
  else if (v == "pct") out = Algo::kPct;
  else return false;
  return true;
}

std::string ScheduleTrace::format() const {
  std::ostringstream os;
  for (const ScheduleStep& s : steps) os << s.thread << ' ' << s.site << '\n';
  return os.str();
}

bool ScheduleTrace::parse(ScheduleTrace& out, const std::string& text,
                          std::string* error) {
  ScheduleTrace trace;
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos || sp == 0 || sp + 1 >= line.size()) {
      if (error != nullptr)
        *error = "schedule line " + std::to_string(line_no) +
                 ": expected '<thread> <site>'";
      return false;
    }
    trace.steps.push_back({line.substr(0, sp), line.substr(sp + 1)});
  }
  out = std::move(trace);
  return true;
}

void begin(const Options& opts) {
  std::lock_guard lock(g_session_mu);
  if (g_session != nullptr) {
    std::fprintf(stderr, "sched: begin() with a session already active\n");
    return;
  }
  g_session = std::make_shared<Controller>(opts);
  detail::g_active.store(1, std::memory_order_release);
}

Result end() {
  std::shared_ptr<Controller> c;
  {
    std::lock_guard lock(g_session_mu);
    c.swap(g_session);
    detail::g_active.store(0, std::memory_order_release);
  }
  if (c == nullptr) return {};
  // finish() releases any thread still parked at a point (free run); the
  // shared_ptr keeps the controller alive until the last straggler leaves.
  return c->finish();
}

bool active() {
  return detail::g_active.load(std::memory_order_acquire) != 0;
}

void attach(const char* name) {
  if (auto c = session()) c->attach(name);
}

void detach() {
  if (auto c = session()) (void)c->detach();
}

DetachScope::DetachScope() {
  if (auto c = session()) {
    name_ = c->detach();
    was_attached_ = !name_.empty();
  }
}

DetachScope::~DetachScope() {
  if (!was_attached_) return;
  if (auto c = session()) c->attach(name_);
}

void expect_threads(std::size_t n) {
  if (auto c = session()) c->expect_threads(n);
}

void note_violation(const char* site, const char* detail) {
  const std::uint64_t n =
      g_violations.fetch_add(1, std::memory_order_relaxed);
  if (n < kPrintCap)
    std::fprintf(stderr, "sched: invariant violation at %s: %s\n", site,
                 detail);
}

std::uint64_t violation_count() {
  return g_violations.load(std::memory_order_relaxed);
}

void reset_violations() {
  g_violations.store(0, std::memory_order_relaxed);
}

}  // namespace depprof::sched
