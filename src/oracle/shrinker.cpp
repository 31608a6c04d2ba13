#include "oracle/shrinker.hpp"

#include <algorithm>
#include <unordered_map>

#include "trace/nest.hpp"

namespace depprof {
namespace {

/// `events` minus the half-open index range [begin, end).
std::vector<AccessEvent> without_range(const std::vector<AccessEvent>& events,
                                       std::size_t begin, std::size_t end) {
  std::vector<AccessEvent> kept;
  kept.reserve(events.size() - (end - begin));
  kept.insert(kept.end(), events.begin(),
              events.begin() + static_cast<std::ptrdiff_t>(begin));
  kept.insert(kept.end(), events.begin() + static_cast<std::ptrdiff_t>(end),
              events.end());
  return kept;
}

/// Rewrites every event onto a depth-1 nest: each dynamic context is
/// replaced by a fresh entry of its innermost loop directly under the root,
/// keeping the event's own iteration.  Distinct dynamic
/// entries stay distinct, so same-entry/different-entry relationships (and
/// hence carried-vs-independent classification at the innermost level)
/// survive; only the enclosing levels are discarded.
Trace flatten_nest(const Trace& t) {
  NestForest& forest = nest_forest();
  std::unordered_map<std::uint32_t, std::uint32_t> flat;  // ctx -> flat ctx
  Trace out;
  out.events.reserve(t.events.size());
  for (AccessEvent ev : t.events) {
    if (ev.ctx != NestForest::kRoot) {
      auto [it, fresh] = flat.try_emplace(ev.ctx, NestForest::kRoot);
      if (fresh)
        it->second = forest.enter(NestForest::kRoot, forest.loop(ev.ctx), 0);
      ev.ctx = it->second;
    }
    out.events.push_back(ev);
  }
  return out;
}

/// True when any event sits deeper than one loop level.
bool has_deep_nest(const Trace& t) {
  const NestForest& forest = nest_forest();
  for (const AccessEvent& ev : t.events)
    if (ev.ctx != NestForest::kRoot && forest.depth(ev.ctx) > 1) return true;
  return false;
}

}  // namespace

Trace shrink_trace(Trace failing, const ProfilerConfig& cfg,
                   const FailurePredicate& still_fails, std::size_t max_evals,
                   ShrinkStats* stats) {
  ShrinkStats local;
  ShrinkStats& st = stats != nullptr ? *stats : local;
  st.initial_events = failing.events.size();

  std::size_t granularity = 2;
  while (failing.events.size() >= 2 && st.evaluations < max_evals) {
    const std::size_t chunk =
        std::max<std::size_t>(1, (failing.events.size() + granularity - 1) /
                                     granularity);
    bool reduced = false;
    for (std::size_t begin = 0;
         begin < failing.events.size() && st.evaluations < max_evals;) {
      const std::size_t end =
          std::min(begin + chunk, failing.events.size());
      Trace candidate;
      candidate.events = without_range(failing.events, begin, end);
      ++st.evaluations;
      if (!candidate.events.empty() && still_fails(candidate, cfg)) {
        failing.events = std::move(candidate.events);
        // Keep the granularity relative to the smaller trace and retry from
        // the front: earlier chunks may have become removable.
        granularity = std::max<std::size_t>(2, granularity - 1);
        reduced = true;
        begin = 0;
      } else {
        begin = end;
      }
    }
    if (!reduced) {
      if (chunk <= 1) break;  // single-event granularity exhausted
      granularity = std::min(granularity * 2, failing.events.size());
    }
  }
  // Final rung: flatten the loop nest.  A repro that still fails with every
  // event rewritten onto a depth-1 entry of its innermost loop did not need
  // the enclosing levels, and the flat form is far easier to read.
  if (st.evaluations < max_evals && has_deep_nest(failing)) {
    Trace candidate = flatten_nest(failing);
    ++st.evaluations;
    if (still_fails(candidate, cfg)) failing = std::move(candidate);
  }
  st.final_events = failing.events.size();
  return failing;
}

ProfilerConfig shrink_config(const Trace& trace, ProfilerConfig cfg,
                             const FailurePredicate& still_fails,
                             ShrinkStats* stats) {
  ShrinkStats local;
  ShrinkStats& st = stats != nullptr ? *stats : local;

  auto try_apply = [&](auto mutate) {
    ProfilerConfig candidate = cfg;
    mutate(candidate);
    ++st.evaluations;
    if (still_fails(trace, candidate)) cfg = candidate;
  };

  // Most-simplifying first: each step is kept only if the failure survives.
  if (cfg.load_balance.enabled)
    try_apply([](ProfilerConfig& c) { c.load_balance.enabled = false; });
  if (cfg.workers > 1) {
    try_apply([](ProfilerConfig& c) { c.workers = 1; });
    if (cfg.workers > 2) try_apply([](ProfilerConfig& c) { c.workers = 2; });
  }
  if (cfg.chunk_size != 1)
    try_apply([](ProfilerConfig& c) { c.chunk_size = 1; });
  if (cfg.queue != QueueKind::kMutex)
    try_apply([](ProfilerConfig& c) { c.queue = QueueKind::kMutex; });
  if (cfg.wait != WaitKind::kSpin)
    try_apply([](ProfilerConfig& c) { c.wait = WaitKind::kSpin; });
  if (cfg.modulo_routing)
    try_apply([](ProfilerConfig& c) { c.modulo_routing = false; });
  // Strip the front-end reduction layer: a failure that survives with
  // dedup off did not need it, and the repro should say so.
  if (cfg.dedup) try_apply([](ProfilerConfig& c) { c.dedup = false; });
  // Sampling-off rung: a failure that survives with the burst gate removed
  // did not need sampling, and the repro then judges the profilers against
  // the plain full-trace oracle — the simpler diagnosis target.
  if (cfg.sampled())
    try_apply([](ProfilerConfig& c) {
      c.sampling_skip = 0;
      c.budget = 1.0;
    });
  return cfg;
}

sched::ScheduleTrace shrink_schedule(const Trace& trace,
                                     const ProfilerConfig& cfg,
                                     sched::ScheduleTrace schedule,
                                     const SchedFailurePredicate& still_fails,
                                     ShrinkStats* stats, bool* dropped) {
  ShrinkStats local;
  ShrinkStats& st = stats != nullptr ? *stats : local;
  st.initial_events = schedule.steps.size();
  if (dropped != nullptr) *dropped = false;

  // Rung 1: no controller at all.  A failure that reproduces free-running
  // is not schedule-dependent; the repro then needs no sched section.
  ++st.evaluations;
  if (still_fails(trace, cfg, nullptr)) {
    if (dropped != nullptr) *dropped = true;
    st.final_events = 0;
    return sched::ScheduleTrace{};
  }

  // Rung 2: truncate from the back with geometric back-off.  Replay runs
  // free after the last recorded step, so every prefix is a valid schedule
  // — the shortest failing prefix localizes the decisive hand-off.
  std::size_t cut = schedule.steps.size() / 2;
  while (cut >= 1) {
    sched::ScheduleTrace candidate;
    candidate.steps.assign(schedule.steps.begin(),
                           schedule.steps.end() -
                               static_cast<std::ptrdiff_t>(cut));
    ++st.evaluations;
    if (still_fails(trace, cfg, &candidate)) {
      schedule.steps = std::move(candidate.steps);
      cut = std::min(cut, schedule.steps.size() / 2);
    } else {
      cut /= 2;
    }
  }
  st.final_events = schedule.steps.size();
  return schedule;
}

}  // namespace depprof
