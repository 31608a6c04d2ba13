// Tests for the measurement harness: accuracy comparison, workload
// profiling runs, trace recording, and the Table II scorer.

#include <gtest/gtest.h>

#include "core/formatter.hpp"
#include "harness/accuracy.hpp"
#include "harness/runner.hpp"
#include "harness/table2.hpp"
#include "workloads/workload.hpp"

namespace depprof {
namespace {

DepKey key(DepType type, std::uint32_t sink, std::uint32_t src) {
  DepKey k;
  k.type = type;
  k.sink_loc = SourceLocation(1, sink).packed();
  k.src_loc = src ? SourceLocation(1, src).packed() : 0;
  return k;
}

TEST(Accuracy, IdenticalSetsAreClean) {
  DepMap a, b;
  a.add(key(DepType::kRaw, 20, 10), 0);
  b.add(key(DepType::kRaw, 20, 10), 0);
  const AccuracyResult r = compare_deps(a, b);
  EXPECT_EQ(r.false_positives, 0u);
  EXPECT_EQ(r.false_negatives, 0u);
  EXPECT_EQ(r.fpr_percent(), 0.0);
  EXPECT_EQ(r.fnr_percent(), 0.0);
}

TEST(Accuracy, ExtraDepIsFalsePositive) {
  DepMap baseline, tested;
  baseline.add(key(DepType::kRaw, 20, 10), 0);
  tested.add(key(DepType::kRaw, 20, 10), 0);
  tested.add(key(DepType::kRaw, 20, 11), 0);  // corrupted source line
  const AccuracyResult r = compare_deps(baseline, tested);
  EXPECT_EQ(r.false_positives, 1u);
  EXPECT_EQ(r.false_negatives, 0u);
  EXPECT_DOUBLE_EQ(r.fpr_percent(), 50.0);
}

TEST(Accuracy, MissingDepIsFalseNegative) {
  DepMap baseline, tested;
  baseline.add(key(DepType::kRaw, 20, 10), 0);
  baseline.add(key(DepType::kWar, 21, 11), 0);
  tested.add(key(DepType::kRaw, 20, 10), 0);
  const AccuracyResult r = compare_deps(baseline, tested);
  EXPECT_EQ(r.false_negatives, 1u);
  EXPECT_DOUBLE_EQ(r.fnr_percent(), 50.0);
}

TEST(Accuracy, EmptySetsAreZeroRates) {
  DepMap a, b;
  const AccuracyResult r = compare_deps(a, b);
  EXPECT_EQ(r.fpr_percent(), 0.0);
  EXPECT_EQ(r.fnr_percent(), 0.0);
}

TEST(Runner, ProfileWorkloadFillsMeasurement) {
  const Workload* w = find_workload("ep");
  ASSERT_NE(w, nullptr);
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPacked;
  RunOptions opts;
  opts.native_reps = 1;
  const RunMeasurement m = profile_workload(*w, cfg, opts);
  EXPECT_GT(m.native_sec, 0.0);
  EXPECT_GT(m.profiled_sec, 0.0);
  EXPECT_GE(m.slowdown(), 1.0);
  EXPECT_GT(m.deps.size(), 0u);
  EXPECT_FALSE(m.control_flow.loops.empty());
  EXPECT_EQ(m.native_checksum, m.profiled_checksum);
  EXPECT_GT(m.peak_component_bytes, 0);
}

TEST(Runner, ProfileWorkloadAttachesWithTheProfilersConfig) {
  // The runtime runs the profiler's own front end, as depprof's does:
  // dedup and the sampling schedule reach it instead of being dropped.
  const Workload* w = find_workload("rgbyuv");
  ASSERT_NE(w, nullptr);
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPacked;
  cfg.dedup = false;
  const RunMeasurement plain = profile_workload(*w, cfg);
  cfg.dedup = true;
  const RunMeasurement deduped = profile_workload(*w, cfg);
  cfg.sampling_skip = 8;
  const RunMeasurement sampled = profile_workload(*w, cfg);
  const auto produce = [](const RunMeasurement& m) {
    return *m.stats.stages.find("produce");
  };
  EXPECT_EQ(produce(plain).events_deduped, 0u);
  EXPECT_GT(produce(deduped).events_deduped, 0u);
  EXPECT_EQ(deps_csv(deduped.deps), deps_csv(plain.deps));
  EXPECT_EQ(produce(deduped).events_sampled_out, 0u);
  EXPECT_GT(produce(sampled).events_sampled_out, 0u);
}

TEST(Runner, SimulatedParallelTimeBounded) {
  const Workload* w = find_workload("is");
  ASSERT_NE(w, nullptr);
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kSignature;
  cfg.slots = 1u << 16;
  cfg.workers = 4;
  RunOptions opts;
  opts.parallel_pipeline = true;
  opts.native_reps = 1;
  const RunMeasurement m = profile_workload(*w, cfg, opts);
  // The simulated multi-core time can never exceed the single-core wall
  // time (which serializes producer and workers), and is at least the
  // producer's own CPU time.
  EXPECT_LE(m.simulated_parallel_sec(), m.profiled_sec * 1.5);
  EXPECT_GE(m.simulated_parallel_sec(), m.producer_cpu_sec);
}

TEST(Runner, RecordWorkloadCapturesTrace) {
  const Workload* w = find_workload("is");
  ASSERT_NE(w, nullptr);
  const Trace t = record_workload(*w);
  EXPECT_GT(t.size(), 1'000u);
  EXPECT_GT(t.distinct_addresses(), 100u);
  EXPECT_GT(t.write_ratio(), 0.0);
}

TEST(Runner, UnionOverInputsIsSuperset) {
  const Workload* w = find_workload("is");
  ASSERT_NE(w, nullptr);
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPacked;
  RunOptions opts;
  opts.native_reps = 1;
  const RunMeasurement single = profile_workload(*w, cfg, opts);
  const DepMap unioned = union_over_inputs(*w, cfg, {1, 2});
  // The union over inputs contains every dependence of the single run.
  for (const auto& [key, info] : single.deps) {
    (void)info;
    EXPECT_NE(unioned.find(key), nullptr);
  }
  EXPECT_GE(unioned.size(), single.deps.size());
}

TEST(Table2Harness, ExactAndLargeSignatureAgree) {
  const Workload* w = find_workload("ep");
  ASSERT_NE(w, nullptr);
  const Table2Row row = run_table2(*w, /*sig_slots=*/1u << 20);
  EXPECT_EQ(row.omp_loops, 1u);
  EXPECT_EQ(row.identified_dp, 1u);
  EXPECT_EQ(row.identified_sig, 1u);
  EXPECT_EQ(row.missed_sig, 0u);
  EXPECT_EQ(row.false_parallel_sig, 0u);
}

TEST(Table2Harness, AllNasRowsHealthyAtLargeSlots) {
  for (const Workload* w : workloads_in_suite("nas")) {
    const Table2Row row = run_table2(*w, 1u << 20);
    EXPECT_EQ(row.identified_dp, row.omp_loops) << w->name;
    EXPECT_EQ(row.missed_sig, 0u) << w->name;
    EXPECT_EQ(row.false_parallel_sig, 0u) << w->name;
  }
}

}  // namespace
}  // namespace depprof
