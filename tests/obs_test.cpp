// Tests for the src/obs observability layer: counter semantics, snapshot
// shape, monotonicity of live snapshots, stall accounting under a
// capacity-1 queue, merge-stage population, and the report renderers.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/profiler.hpp"
#include "obs/bench_report.hpp"
#include "obs/report.hpp"
#include "obs/stage_stats.hpp"
#include "trace/event.hpp"

namespace depprof {
namespace {

AccessEvent access(std::uint64_t addr, AccessKind kind, std::uint32_t line) {
  AccessEvent ev;
  ev.addr = addr;
  ev.kind = kind;
  ev.loc = SourceLocation(1, line).packed();
  return ev;
}

/// True when every counter of `later` is >= the matching counter of
/// `earlier` — the component-wise order monotonic counters guarantee.
bool stage_ge(const obs::StageSnapshot& later, const obs::StageSnapshot& earlier) {
  for (const obs::CounterSpec& c : obs::kCounters)
    if (later.*c.value < earlier.*c.value) return false;
  return true;
}

bool snapshot_ge(const obs::PipelineSnapshot& later,
                 const obs::PipelineSnapshot& earlier) {
  for (const auto& s : earlier.stages) {
    const obs::StageSnapshot* l = later.find(s.stage);
    if (l == nullptr || !stage_ge(*l, s)) return false;
  }
  return true;
}

// Every row's update method: sums add (adding zero leaves them alone, the
// no-waiter fast path of add_wakes), high-water marks never fall below
// their highest value and rise with a higher one.
TEST(StageStats, CountersAccumulate) {
  obs::StageStats s;
#define CHECK_UPDATE(member, update, key, label, width, kind)                  \
  {                                                                            \
    const bool hwm = obs::CounterKind::kind == obs::CounterKind::kHighWater;   \
    s.update(5);                                                               \
    s.update(3);                                                               \
    s.update(0);                                                               \
    EXPECT_EQ(s.member.load(), hwm ? 5u : 8u) << key;                          \
    s.update(9);                                                               \
    EXPECT_EQ(s.member.load(), hwm ? 9u : 17u) << key;                         \
  }
  DEPPROF_OBS_COUNTERS(CHECK_UPDATE)
#undef CHECK_UPDATE
}

TEST(PipelineObs, SnapshotHasOneBlockPerStage) {
  obs::PipelineObs obs(3);
  obs.produce().add_events(10);
  obs.detect(1).add_events(4);
  obs.merge().add_chunks(3);

  const obs::PipelineSnapshot snap = obs.snapshot();
  ASSERT_EQ(snap.stages.size(), 3u + 3u);  // produce, route, 3x detect, merge
  EXPECT_EQ(snap.stages.front().stage, "produce");
  EXPECT_EQ(snap.stages.back().stage, "merge");
  ASSERT_NE(snap.find("detect[1]"), nullptr);
  EXPECT_EQ(snap.find("detect[1]")->events, 4u);
  EXPECT_EQ(snap.find("produce")->events, 10u);
  EXPECT_EQ(snap.detect_events(), 4u);
  EXPECT_EQ(snap.find("bogus"), nullptr);
}

TEST(PipelineObs, ZeroWorkersClampsToOne) {
  obs::PipelineObs obs(0);
  EXPECT_EQ(obs.workers(), 1u);
  EXPECT_EQ(obs.snapshot().stages.size(), 4u);
}

// Mid-run snapshots of a live parallel pipeline are component-wise <= every
// later snapshot: counters only ever increase.
TEST(PipelineObs, LiveSnapshotsAreMonotonic) {
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kSignature;
  cfg.slots = 1u << 14;
  cfg.workers = 2;
  cfg.chunk_size = 16;
  auto prof = make_parallel_profiler(cfg);
  ASSERT_NE(prof, nullptr);

  std::vector<obs::PipelineSnapshot> snaps;
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t i = 0; i < 2'000; ++i)
      prof->on_access(access(0x1000 + (i % 256) * 8,
                             i % 3 == 0 ? AccessKind::kWrite : AccessKind::kRead,
                             10 + static_cast<std::uint32_t>(i % 7)));
    snaps.push_back(prof->stats().stages);
  }
  prof->finish();
  snaps.push_back(prof->stats().stages);

  for (std::size_t i = 1; i < snaps.size(); ++i)
    EXPECT_TRUE(snapshot_ge(snaps[i], snaps[i - 1])) << "snapshot " << i;

  // Everything produced was eventually detected: after finish() the detect
  // stages have consumed exactly the produced events.
  const obs::PipelineSnapshot& last = snaps.back();
  EXPECT_EQ(last.find("produce")->events, 8'000u);
  EXPECT_EQ(last.detect_events(), 8'000u);
}

// A capacity-1 queue with single-access chunks forces the producer to find
// the queue full, so the produce-stage stall counter must fire.
TEST(PipelineObs, StallCounterFiresUnderTinyQueue) {
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kSignature;
  cfg.slots = 1u << 14;
  cfg.workers = 1;
  cfg.chunk_size = 1;
  cfg.queue_capacity = 1;
  auto prof = make_parallel_profiler(cfg);
  ASSERT_NE(prof, nullptr);

  for (std::uint64_t i = 0; i < 50'000; ++i)
    prof->on_access(access(0x2000 + (i % 64) * 8, AccessKind::kWrite, 11));
  prof->finish();

  const obs::PipelineSnapshot snap = prof->stats().stages;
  const obs::StageSnapshot* produce = snap.find("produce");
  ASSERT_NE(produce, nullptr);
  EXPECT_GT(produce->stalls, 0u);
  EXPECT_GE(produce->queue_depth_hwm, 1u);
  // Every stall runs one bounded-backpressure wait episode, so the producer
  // block time must be visible too.
  EXPECT_GT(produce->block_ns, 0u);
}

// The merge stage is empty while the pipeline runs and is populated by
// finish(): one folded chunk per worker, and the counters survive into
// ProfilerStats for both profilers.
TEST(PipelineObs, MergeStagePopulatedByFinish) {
  for (bool parallel : {false, true}) {
    ProfilerConfig cfg;
    cfg.storage = StorageKind::kSignature;
    cfg.slots = 1u << 14;
    cfg.workers = parallel ? 3 : 0;
    auto prof = parallel ? make_parallel_profiler(cfg) : make_serial_profiler(cfg);
    ASSERT_NE(prof, nullptr);

    for (std::uint64_t i = 0; i < 1'000; ++i) {
      prof->on_access(access(0x3000 + i * 8, AccessKind::kWrite, 21));
      prof->on_access(access(0x3000 + i * 8, AccessKind::kRead, 22));
    }
    const obs::PipelineSnapshot before = prof->stats().stages;
    EXPECT_EQ(before.find("merge")->chunks, 0u);

    prof->finish();
    const ProfilerStats st = prof->stats();
    const obs::StageSnapshot* merge = st.stages.find("merge");
    ASSERT_NE(merge, nullptr);
    EXPECT_EQ(merge->chunks, parallel ? 3u : 1u);
    EXPECT_GT(merge->events, 0u);  // folded dependence records
    EXPECT_EQ(st.workers, parallel ? 3u : 1u);
    EXPECT_EQ(st.events, 2'000u);
  }
}

TEST(Report, RenderersCoverEveryStage) {
  obs::PipelineObs obs(2);
  obs.produce().add_events(12);
  obs.detect(0).add_busy_ns(1'500'000'000);  // 1.5 s
  const obs::PipelineSnapshot snap = obs.snapshot();

  const std::string csv = obs::snapshot_csv(snap);
  EXPECT_NE(csv.find("stage,events,chunks,stalls,queue_depth_hwm,busy_sec"),
            std::string::npos);
  EXPECT_NE(csv.find("produce,12"), std::string::npos);
  EXPECT_NE(csv.find("detect[1]"), std::string::npos);

  const std::string json = obs::snapshot_json(snap);
  EXPECT_NE(json.find("\"stage\":\"produce\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\":\"merge\""), std::string::npos);
  EXPECT_NE(json.find("1.500000"), std::string::npos);

  const std::string text = obs::snapshot_text(snap);
  EXPECT_NE(text.find("produce"), std::string::npos);
  EXPECT_NE(text.find("detect[0]"), std::string::npos);
}

/// One stage of the golden fixture: every counter gets its own value, and
/// the nanosecond counters are non-round so that both the %.6f (CSV/JSON)
/// and %.4f (text) second formats show their rounding.
obs::StageSnapshot golden_stage(const char* name, std::uint64_t k) {
  obs::StageSnapshot s;
  s.stage = name;
  s.events = 100'000 * k + 1;
  s.chunks = 1'000 * k + 2;
  s.stalls = 100 * k + 3;
  s.queue_depth_hwm = 100 * k + 4;
  s.busy_ns = 1'234'567'891 * k;
  s.cpu_ns = 987'654'321 * k;
  s.idle_ns = 2'718'281'828 * k;
  s.idle_cpu_ns = 314'159'265 * k;
  s.parked_ns = 1'414'213'562 * k;
  s.parks = 100 * k + 5;
  s.block_ns = 577'215'664 * k;
  s.wakes = 100 * k + 6;
  s.migrations = 100 * k + 7;
  s.rounds = 100 * k + 8;
  s.prefetches = 10'000 * k + 9;
  s.events_deduped = 10'000 * k + 10;
  s.bytes_on_wire = 1'000'000 * k + 11;
  s.pack_escapes = 100 * k + 12;
  s.events_sampled_out = 10'000 * k + 13;
  s.bursts = 100 * k + 14;
  s.sampled_overhead_ppm = 10'000 * k + 15;
  s.races_confirmed = 100 * k + 16;
  s.races_unconfirmed = 100 * k + 17;
  s.races_lock_suppressed = 100 * k + 18;
  s.resident_pages = 100 * k + 19;
  s.hugepage_fallbacks = 100 * k + 20;
  return s;
}

obs::PipelineSnapshot golden_snapshot() {
  obs::PipelineSnapshot snap;
  snap.stages = {golden_stage("produce", 1), golden_stage("detect[0]", 2),
                 golden_stage("merge", 3)};
  return snap;
}

// Pins every byte of all three renderings: a snapshot of three stages with
// every counter set renders exactly as committed here.  Adding a counter
// changes these expectations and nothing else in this file.
TEST(Report, GoldenRendering) {
  const obs::PipelineSnapshot snap = golden_snapshot();
  const std::string kCsv =
      "stage,events,chunks,stalls,queue_depth_hwm,busy_sec,cpu_sec,"
      "idle_sec,idle_cpu_sec,parked_sec,parks,block_sec,wakes,migrations,"
      "rounds,prefetches,events_deduped,bytes_on_wire,pack_escapes,"
      "events_sampled_out,bursts,sampled_overhead_ppm,races_confirmed,"
      "races_unconfirmed,races_lock_suppressed,resident_pages,"
      "hugepage_fallbacks\n"
      "produce,100001,1002,103,104,1.234568,0.987654,2.718282,0.314159,"
      "1.414214,105,0.577216,106,107,108,10009,10010,1000011,112,10013,"
      "114,10015,116,117,118,119,120\n"
      "detect[0],200001,2002,203,204,2.469136,1.975309,5.436564,0.628319,"
      "2.828427,205,1.154431,206,207,208,20009,20010,2000011,212,20013,"
      "214,20015,216,217,218,219,220\n"
      "merge,300001,3002,303,304,3.703704,2.962963,8.154845,0.942478,"
      "4.242641,305,1.731647,306,307,308,30009,30010,3000011,312,30013,"
      "314,30015,316,317,318,319,320\n";
  const std::string kJson =
      "[{\"stage\":\"produce\",\"events\":100001,\"chunks\":1002,\"stalls\":103,"
      "\"queue_depth_hwm\":104,\"busy_sec\":1.234568,\"cpu_sec\":0.987654,"
      "\"idle_sec\":2.718282,\"idle_cpu_sec\":0.314159,\"parked_sec\":1.414214,"
      "\"parks\":105,\"block_sec\":0.577216,\"wakes\":106,\"migrations\":107,"
      "\"rounds\":108,\"prefetches\":10009,\"events_deduped\":10010,"
      "\"bytes_on_wire\":1000011,\"pack_escapes\":112,"
      "\"events_sampled_out\":10013,\"bursts\":114,"
      "\"sampled_overhead_ppm\":10015,\"races_confirmed\":116,"
      "\"races_unconfirmed\":117,\"races_lock_suppressed\":118,"
      "\"resident_pages\":119,\"hugepage_fallbacks\":120},"
      "{\"stage\":\"detect[0]\",\"events\":200001,\"chunks\":2002,\"stalls\":203,"
      "\"queue_depth_hwm\":204,\"busy_sec\":2.469136,\"cpu_sec\":1.975309,"
      "\"idle_sec\":5.436564,\"idle_cpu_sec\":0.628319,\"parked_sec\":2.828427,"
      "\"parks\":205,\"block_sec\":1.154431,\"wakes\":206,\"migrations\":207,"
      "\"rounds\":208,\"prefetches\":20009,\"events_deduped\":20010,"
      "\"bytes_on_wire\":2000011,\"pack_escapes\":212,"
      "\"events_sampled_out\":20013,\"bursts\":214,"
      "\"sampled_overhead_ppm\":20015,\"races_confirmed\":216,"
      "\"races_unconfirmed\":217,\"races_lock_suppressed\":218,"
      "\"resident_pages\":219,\"hugepage_fallbacks\":220},{\"stage\":\"merge\","
      "\"events\":300001,\"chunks\":3002,\"stalls\":303,\"queue_depth_hwm\":304,"
      "\"busy_sec\":3.703704,\"cpu_sec\":2.962963,\"idle_sec\":8.154845,"
      "\"idle_cpu_sec\":0.942478,\"parked_sec\":4.242641,\"parks\":305,"
      "\"block_sec\":1.731647,\"wakes\":306,\"migrations\":307,\"rounds\":308,"
      "\"prefetches\":30009,\"events_deduped\":30010,\"bytes_on_wire\":3000011,"
      "\"pack_escapes\":312,\"events_sampled_out\":30013,\"bursts\":314,"
      "\"sampled_overhead_ppm\":30015,\"races_confirmed\":316,"
      "\"races_unconfirmed\":317,\"races_lock_suppressed\":318,"
      "\"resident_pages\":319,\"hugepage_fallbacks\":320}]";
  const std::string kText =
      "stage             events     chunks   stalls  depth_hwm     busy_s"
      "      cpu_s     idle_s  idlecpu_s  parked_s   parks   block_s"
      "  wakes  moved rounds   prefetch    deduped   wire_bytes  escapes"
      "    sampled  bursts  ovh_ppm   races  unconf locksup res_pages"
      " hp_fallbk\n"
      "produce           100001       1002      103        104     1.2346"
      "     0.9877     2.7183     0.3142    1.4142     105    0.5772"
      "    106    107    108      10009      10010      1000011      112"
      "      10013     114    10015     116     117     118       119"
      "       120\n"
      "detect[0]         200001       2002      203        204     2.4691"
      "     1.9753     5.4366     0.6283    2.8284     205    1.1544"
      "    206    207    208      20009      20010      2000011      212"
      "      20013     214    20015     216     217     218       219"
      "       220\n"
      "merge             300001       3002      303        304     3.7037"
      "     2.9630     8.1548     0.9425    4.2426     305    1.7316"
      "    306    307    308      30009      30010      3000011      312"
      "      30013     314    30015     316     317     318       319"
      "       320\n";
  EXPECT_EQ(obs::snapshot_csv(snap), kCsv);
  EXPECT_EQ(obs::snapshot_json(snap), kJson);
  EXPECT_EQ(obs::snapshot_text(snap), kText);
}

TEST(Report, BenchReportEmitsMetricsAndBreakdowns) {
  obs::PipelineObs obs(1);
  obs.produce().add_events(7);

  obs::BenchReport report("obs_selftest");
  report.metric("ratio", 1.75);
  report.stages("serial", obs.snapshot());

  EXPECT_EQ(report.path(), "BENCH_obs_selftest.json");
  const std::string json = report.json();
  EXPECT_NE(json.find("\"bench\":\"obs_selftest\""), std::string::npos);
  EXPECT_NE(json.find("\"ratio\":1.75"), std::string::npos);
  EXPECT_NE(json.find("\"stage_breakdowns\":{\"serial\":"), std::string::npos);
  EXPECT_NE(json.find("\"events\":7"), std::string::npos);
}

}  // namespace
}  // namespace depprof
