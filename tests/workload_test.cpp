// Tests for the workload suites: registry consistency, determinism,
// native/profiled checksum equality (the profiler must not perturb the
// computation), loop ground-truth wiring, parallel-variant agreement,
// exact maps that do not depend on the profiler's own heap, and recorded
// iteration windows that agree with the nest forest.

#include <gtest/gtest.h>

#include "core/formatter.hpp"
#include "harness/runner.hpp"
#include "instrument/runtime.hpp"
#include "trace/nest.hpp"
#include "workloads/workload.hpp"

namespace depprof {
namespace {

TEST(Registry, AllSuitesPresent) {
  EXPECT_EQ(workloads_in_suite("nas").size(), 8u);
  EXPECT_EQ(workloads_in_suite("starbench").size(), 11u);
  EXPECT_EQ(workloads_in_suite("splash").size(), 1u);
  EXPECT_EQ(workloads_in_suite("taskgraph").size(), 2u);
  EXPECT_EQ(all_workloads().size(), 22u);
}

TEST(Registry, LookupByName) {
  ASSERT_NE(find_workload("cg"), nullptr);
  EXPECT_EQ(find_workload("cg")->suite, "nas");
  EXPECT_EQ(find_workload("no-such-workload"), nullptr);
}

TEST(Registry, AllStarbenchHaveParallelVariants) {
  for (const Workload* w : workloads_in_suite("starbench"))
    EXPECT_TRUE(static_cast<bool>(w->run_parallel)) << w->name;
  EXPECT_GE(parallel_workloads().size(), 12u);  // 11 starbench + water
}

TEST(Registry, NasWorkloadsCarryLoopGroundTruth) {
  for (const Workload* w : workloads_in_suite("nas")) {
    EXPECT_FALSE(w->loops.empty()) << w->name;
    bool any_parallel = false;
    for (const auto& t : w->loops) any_parallel |= t.parallelizable;
    EXPECT_TRUE(any_parallel) << w->name;
  }
}

class WorkloadParam : public ::testing::TestWithParam<const Workload*> {};

TEST_P(WorkloadParam, DeterministicAcrossRuns) {
  const Workload* w = GetParam();
  Runtime::instance().reset();
  const auto a = w->run(1);
  const auto b = w->run(1);
  EXPECT_EQ(a.checksum, b.checksum) << w->name;
  EXPECT_NE(a.checksum, 0u) << w->name << ": checksum must not be trivial";
}

TEST_P(WorkloadParam, ProfilingDoesNotPerturbResult) {
  const Workload* w = GetParam();
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kSignature;
  cfg.slots = 1u << 18;
  RunOptions opts;
  opts.native_reps = 1;
  const RunMeasurement m = profile_workload(*w, cfg, opts);
  EXPECT_EQ(m.native_checksum, m.profiled_checksum) << w->name;
  EXPECT_GT(m.stats.events, 100u) << w->name << ": workload must emit accesses";
}

TEST_P(WorkloadParam, InstrumentedLoopCountMatchesGroundTruth) {
  const Workload* w = GetParam();
  RunOptions opts;
  opts.native_reps = 1;
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPacked;
  const RunMeasurement m = profile_workload(*w, cfg, opts);
  EXPECT_EQ(m.control_flow.loops.size(), w->loops.size())
      << w->name << ": LoopTruth entries must match instrumented loops";
}

TEST_P(WorkloadParam, ExactMapDoesNotDependOnTheProfilersHeap) {
  // The serial profiler and the pipeline allocate differently (worker
  // stores, chunk pools, per-worker maps), so they shift where the target's
  // allocations land.  A workload that frees a profiled buffer without
  // DP_FREE leaves stale last-access state at whatever address is recycled,
  // and its exact map then depends on the profiler configuration.
  const Workload* w = GetParam();
  struct Point {
    const char* name;
    StorageKind storage;
    unsigned workers;  ///< 0 = serial profiler
  };
  const Point points[] = {{"packed serial", StorageKind::kPacked, 0},
                          {"packed W=4", StorageKind::kPacked, 4},
                          {"hashtable W=2", StorageKind::kHashTable, 2}};
  std::string reference;
  for (const Point& p : points) {
    ProfilerConfig cfg;
    cfg.storage = p.storage;
    cfg.workers = p.workers;
    RunOptions opts;
    opts.parallel_pipeline = p.workers > 0;
    opts.native_reps = 1;
    const std::string csv = deps_csv(profile_workload(*w, cfg, opts).deps);
    if (reference.empty()) reference = csv;
    else EXPECT_EQ(csv, reference) << w->name << ": " << p.name;
  }
}

TEST_P(WorkloadParam, EveryEventKeepsTheWindowContract) {
  // The detector reads a source's enclosing iteration counters from the
  // nest forest (parent_iter), not from the event, so every recorded
  // window must agree with its context's chain.
  const Workload* w = GetParam();
  const Trace t = record_workload(*w);
  ASSERT_FALSE(t.events.empty()) << w->name;
  std::size_t bad = 0;
  std::size_t first = 0;
  for (std::size_t i = 0; i < t.events.size(); ++i)
    if (!window_matches_context(t.events[i]) && bad++ == 0) first = i;
  EXPECT_EQ(bad, 0u) << w->name << ": first at event " << first << " of "
                     << t.events.size();
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadParam,
    ::testing::ValuesIn([] {
      std::vector<const Workload*> v;
      for (const auto& w : all_workloads())
        if (w.run) v.push_back(&w);
      return v;
    }()),
    [](const auto& info) {
      std::string name = info.param->name;
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

class ParallelWorkloadParam : public ::testing::TestWithParam<const Workload*> {
};

TEST_P(ParallelWorkloadParam, ParallelVariantMatchesSequentialResult) {
  // For workloads whose parallel decomposition is value-preserving (disjoint
  // writes or order-independent combination), the pthread variant must
  // compute exactly the sequential result at any thread count.  Workloads
  // with floating-point reduction order dependence (kmeans, streamcluster,
  // bodytrack, water-spatial) are exempt by construction of the list below.
  const Workload* w = GetParam();
  Runtime::instance().reset();
  const auto seq = w->run(1);
  const auto two = w->run_parallel(1, 2);
  const auto four = w->run_parallel(1, 4);
  EXPECT_EQ(seq.checksum, two.checksum) << w->name;
  EXPECT_EQ(seq.checksum, four.checksum) << w->name;
}

INSTANTIATE_TEST_SUITE_P(
    Deterministic, ParallelWorkloadParam,
    ::testing::ValuesIn([] {
      std::vector<const Workload*> v;
      for (const char* name : {"c-ray", "md5", "ray-rot", "rgbyuv", "rotate",
                               "rot-cc", "tinyjpeg", "h264dec"})
        if (const Workload* w = find_workload(name); w && w->run_parallel)
          v.push_back(w);
      return v;
    }()),
    [](const auto& info) {
      std::string name = info.param->name;
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(ParallelWorkloads, ReductionWorkloadsProduceNonzeroChecksum) {
  for (const char* name :
       {"kmeans", "streamcluster", "bodytrack", "water-spatial"}) {
    const Workload* w = find_workload(name);
    ASSERT_NE(w, nullptr) << name;
    Runtime::instance().reset();
    EXPECT_NE(w->run_parallel(1, 4).checksum, 0u) << name;
  }
}

}  // namespace
}  // namespace depprof
