// Ground-truth tests for the task-graph race family (Sec. V-B, first-class
// --races mode): every injected race must be confirmed by name, race-free
// variants must confirm nothing, the per-site injection matrix must not
// cross-contaminate, the obs snapshot counters must agree with the report,
// and the race report must be identical across the serial profiler and the
// parallel pipeline for every store backend x queue kind combination.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/location.hpp"
#include "core/profiler.hpp"
#include "harness/runner.hpp"
#include "instrument/runtime.hpp"
#include "mt/race_report.hpp"
#include "queue/queues.hpp"
#include "trace/trace.hpp"
#include "workloads/taskgraph/task_graph.hpp"
#include "workloads/workload.hpp"

namespace depprof {
namespace {

ProfilerConfig races_cfg(StorageKind storage) {
  ProfilerConfig cfg;
  cfg.storage = storage;
  cfg.slots = 1u << 18;
  cfg.workers = 4;
  cfg.mt_targets = true;
  cfg.races = true;
  return cfg;
}

RunOptions mt_opts(unsigned threads) {
  RunOptions opts;
  opts.target_threads = threads;
  opts.parallel_pipeline = true;
  opts.native_reps = 1;
  return opts;
}

std::set<std::string> confirmed_vars(const RaceReport& report) {
  std::set<std::string> vars;
  for (const auto& f : report.findings)
    if (f.confirmed) vars.insert(std::string(var_registry().name(f.dep.var)));
  return vars;
}

/// Renames the trace's distinct word units onto 0..n-1 in address order,
/// keeping each access's byte offset within its word; returns n.  A
/// recorded MT trace carries raw heap and stack addresses, which alias
/// modulo the slot count differently in one serial signature than in the
/// per-worker ones.  Below `slots` units the modulo signature is
/// collision-free, the regime in which serial == parallel is a contract;
/// the exact backends see the same dependences either way.
std::size_t densify_units(Trace& trace) {
  std::vector<std::uint64_t> units;
  units.reserve(trace.size());
  for (const AccessEvent& ev : trace.events)
    units.push_back(word_addr(ev.addr));
  std::sort(units.begin(), units.end());
  units.erase(std::unique(units.begin(), units.end()), units.end());
  for (AccessEvent& ev : trace.events) {
    const auto dense = static_cast<std::uint64_t>(
        std::lower_bound(units.begin(), units.end(), word_addr(ev.addr)) -
        units.begin());
    ev.addr = (dense << 2) | (ev.addr & 3);
  }
  return units.size();
}

std::uint64_t stage_sum(const ProfilerStats& st,
                        std::uint64_t obs::StageSnapshot::*counter) {
  std::uint64_t sum = 0;
  for (const auto& s : st.stages.stages) sum += s.*counter;
  return sum;
}

TEST(TaskGraphRaces, InjectedRacesAllConfirmedByName) {
  const Workload* w = find_workload("taskgraph-racy");
  ASSERT_NE(w, nullptr);
  ASSERT_EQ(w->races.size(), workloads::taskgraph::kRaceSites);

  const RunMeasurement m = profile_workload(*w, races_cfg(StorageKind::kPerfect),
                                            mt_opts(2));
  const RaceReport report = find_races(m.deps);
  const auto vars = confirmed_vars(report);
  for (const char* name : w->races)
    EXPECT_EQ(vars.count(name), 1u) << "injected race not confirmed: " << name;
  // The lock-protected tally path must be triaged as suppressed, not as an
  // unconfirmed candidate and certainly not as a race.
  EXPECT_GT(report.suppressed_by_lock, 0u);
  EXPECT_EQ(vars.count("tally"), 0u);
  EXPECT_EQ(vars.count("sum"), 0u);
}

TEST(TaskGraphRaces, RaceFreeVariantConfirmsNothing) {
  const Workload* w = find_workload("taskgraph");
  ASSERT_NE(w, nullptr);
  EXPECT_TRUE(w->races.empty());

  const RunMeasurement m = profile_workload(*w, races_cfg(StorageKind::kPerfect),
                                            mt_opts(4));
  const RaceReport report = find_races(m.deps);
  EXPECT_EQ(report.confirmed_count(), 0u);
  // The DAG still has ordered cross-thread communication and the lock-
  // protected tally, so triage has work to do — it just confirms none of it.
  EXPECT_GT(report.suppressed_by_lock, 0u);
}

TEST(TaskGraphRaces, PerSiteInjectionMatrixDoesNotCrossContaminate) {
  using namespace workloads::taskgraph;
  for (unsigned site = 0; site < kRaceSites; ++site) {
    Workload single;
    single.name = "taskgraph-single";
    const unsigned mask = 1u << site;
    single.run = [mask](int scale) {
      return WorkloadResult{run_task_graph(scale, 0, mask)};
    };
    single.run_parallel = [mask](int scale, unsigned threads) {
      return WorkloadResult{run_task_graph(scale, threads, mask)};
    };

    const RunMeasurement m =
        profile_workload(single, races_cfg(StorageKind::kPerfect), mt_opts(2));
    const auto vars = confirmed_vars(find_races(m.deps));
    for (unsigned other = 0; other < kRaceSites; ++other) {
      EXPECT_EQ(vars.count(race_var_name(other)), other == site ? 1u : 0u)
          << "site " << site << " vs " << race_var_name(other);
    }
  }
}

TEST(TaskGraphRaces, SnapshotCountersAgreeWithReport) {
  const Workload* w = find_workload("taskgraph-racy");
  ASSERT_NE(w, nullptr);
  const RunMeasurement m = profile_workload(*w, races_cfg(StorageKind::kPerfect),
                                            mt_opts(2));
  const RaceReport report = find_races(m.deps);
  EXPECT_EQ(stage_sum(m.stats, &obs::StageSnapshot::races_confirmed),
            report.confirmed_count());
  EXPECT_EQ(stage_sum(m.stats, &obs::StageSnapshot::races_unconfirmed),
            report.unconfirmed);
  EXPECT_EQ(stage_sum(m.stats, &obs::StageSnapshot::races_lock_suppressed),
            report.suppressed_by_lock);
}

TEST(TaskGraphRaces, SerialAndParallelReportsIdenticalAcrossBackendsAndQueues) {
  const Workload* w = find_workload("taskgraph-racy");
  ASSERT_NE(w, nullptr);

  // One MT-recorded trace feeds every profiler, so the 15-case matrix
  // compares identical inputs: 5 store backends x 3 queue kinds, each
  // parallel report against the same-backend serial reference.
  RunOptions ropts;
  ropts.target_threads = 2;
  Trace trace = record_workload(*w, ropts);
  ASSERT_GT(trace.size(), 0u);
  ASSERT_LE(densify_units(trace), races_cfg(StorageKind::kSignature).slots);

  const StorageKind backends[] = {StorageKind::kSignature, StorageKind::kPerfect,
                                  StorageKind::kShadow, StorageKind::kHashTable,
                                  StorageKind::kPacked};
  const QueueKind queues[] = {QueueKind::kLockFreeSpsc, QueueKind::kLockFreeMpmc,
                              QueueKind::kMutex};
  for (StorageKind backend : backends) {
    ProfilerConfig cfg = races_cfg(backend);
    auto serial = make_serial_profiler(cfg);
    ASSERT_NE(serial, nullptr);
    replay(trace, *serial);
    const std::string ref =
        format_race_report(find_races(serial->dependences(), true));
    if (backend == StorageKind::kPerfect) {
      const auto vars = confirmed_vars(find_races(serial->dependences()));
      for (const char* name : w->races) EXPECT_EQ(vars.count(name), 1u) << name;
    }
    for (QueueKind queue : queues) {
      ProfilerConfig pcfg = cfg;
      pcfg.queue = queue;
      auto parallel = make_parallel_profiler(pcfg);
      ASSERT_NE(parallel, nullptr);
      replay(trace, *parallel);
      EXPECT_EQ(format_race_report(find_races(parallel->dependences(), true)),
                ref)
          << storage_kind_name(backend) << " x " << queue_kind_name(queue);
    }
  }
}

TEST(TaskGraphRaces, FactoriesRejectRacesWithSampling) {
  ProfilerConfig cfg = races_cfg(StorageKind::kPerfect);
  cfg.budget = 0.5;
  EXPECT_EQ(make_serial_profiler(cfg), nullptr);
  EXPECT_EQ(make_parallel_profiler(cfg), nullptr);
  cfg.budget = 1.0;
  cfg.sampling_skip = 4;
  EXPECT_EQ(make_serial_profiler(cfg), nullptr);
  EXPECT_EQ(make_parallel_profiler(cfg), nullptr);
  cfg.sampling_skip = 0;
  cfg.mt_targets = false;
  EXPECT_EQ(make_serial_profiler(cfg), nullptr);
  cfg.mt_targets = true;
  EXPECT_NE(make_serial_profiler(cfg), nullptr);
}

}  // namespace
}  // namespace depprof
