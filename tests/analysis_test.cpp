// Tests for the Sec. VII analyses: loop-parallelism discovery and the
// communication matrix, plus the race-report extraction of Sec. V-B.

#include <gtest/gtest.h>

#include "analysis/comm_matrix.hpp"
#include "analysis/loop_parallelism.hpp"
#include "analysis/report.hpp"
#include "harness/runner.hpp"
#include "instrument/runtime.hpp"
#include "mt/race_report.hpp"
#include "workloads/workload.hpp"

namespace depprof {
namespace {

DepKey key(DepType type, std::uint32_t sink_line, std::uint32_t src_line,
           std::uint16_t sink_tid = 0, std::uint16_t src_tid = 0) {
  DepKey k;
  k.type = type;
  k.sink_loc = SourceLocation(1, sink_line).packed();
  k.src_loc = src_line ? SourceLocation(1, src_line).packed() : 0;
  k.sink_tid = sink_tid;
  k.src_tid = src_tid;
  return k;
}

LoopRecord loop(std::uint32_t begin, std::uint32_t end) {
  LoopRecord l;
  l.loop_id = SourceLocation(1, begin).packed();
  l.begin_loc = SourceLocation(1, begin).packed();
  l.end_loc = SourceLocation(1, end).packed();
  l.iterations = 100;
  return l;
}

/// Nest attribution carried by loop `begin_line` at nest depth `level` with
/// the given carried distance.
DepAttribution at(std::uint32_t begin_line, std::uint32_t level,
                  std::uint32_t dist) {
  return {SourceLocation(1, begin_line).packed(), level, dist, true};
}

// ------------------------------------------------------- loop parallelism

TEST(LoopParallelism, NoDepsMeansParallelizable) {
  ControlFlowLog cf;
  cf.loops.push_back(loop(10, 20));
  DepMap deps;
  const auto verdicts = analyze_loops(deps, cf);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].kind, LoopVerdictKind::kDoallSafe);
  EXPECT_TRUE(verdicts[0].parallelizable());
}

TEST(LoopParallelism, CarriedRawBlocks) {
  ControlFlowLog cf;
  cf.loops.push_back(loop(10, 20));
  DepMap deps;
  deps.add(key(DepType::kRaw, 15, 16), kLoopCarried, at(10, 1, 1));
  const auto verdicts = analyze_loops(deps, cf);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].kind, LoopVerdictKind::kSerial);
  EXPECT_FALSE(verdicts[0].parallelizable());
  ASSERT_EQ(verdicts[0].blockers.size(), 1u);
}

TEST(LoopParallelism, CarriedByOtherLoopDoesNotBlock) {
  ControlFlowLog cf;
  cf.loops.push_back(loop(10, 30));
  cf.loops.push_back(loop(12, 18));  // inner loop
  DepMap deps;
  // Innermost common loop of the endpoints is the *inner* loop.
  deps.add(key(DepType::kRaw, 15, 16), kLoopCarried, at(12, 2, 1));
  const auto verdicts = analyze_loops(deps, cf);
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_TRUE(verdicts[0].parallelizable()) << "outer not blocked by inner-carried";
  EXPECT_FALSE(verdicts[1].parallelizable());
}

TEST(LoopParallelism, IterationLocalDepDoesNotBlock) {
  // A distance-0 attribution at the loop's level is not carried: the
  // endpoints execute in the same iteration.
  ControlFlowLog cf;
  cf.loops.push_back(loop(10, 20));
  DepMap deps;
  deps.add(key(DepType::kRaw, 15, 16), 0, at(10, 1, 0));
  const auto verdicts = analyze_loops(deps, cf);
  EXPECT_EQ(verdicts[0].kind, LoopVerdictKind::kDoallSafe);
}

TEST(LoopParallelism, CrossLoopWithoutCommonLoopDoesNotBlock) {
  // Endpoints in disjoint dynamic nests share no loop: nothing carries the
  // dependence, whatever the source order.  (The old source-order heuristic
  // for backward cross-loop dependences is gone — attribution decides.)
  ControlFlowLog cf;
  cf.loops.push_back(loop(10, 30));
  DepMap deps;
  deps.add(key(DepType::kRaw, 15, 25), kCrossLoop, {});  // src after sink
  EXPECT_EQ(analyze_loops(deps, cf)[0].kind, LoopVerdictKind::kDoallSafe);
}

TEST(LoopParallelism, CarriedWarAndWawArePrivatizable) {
  // WAR/WAW carried by the loop do not prevent parallelization; they are
  // reported as privatization work.
  ControlFlowLog cf;
  cf.loops.push_back(loop(10, 20));
  DepMap deps;
  deps.add(key(DepType::kWar, 15, 16), kLoopCarried, at(10, 1, 1));
  deps.add(key(DepType::kWaw, 15, 15), kLoopCarried, at(10, 1, 2));
  const auto verdicts = analyze_loops(deps, cf);
  EXPECT_EQ(verdicts[0].kind, LoopVerdictKind::kDoallSafe);
  EXPECT_TRUE(verdicts[0].parallelizable());
  EXPECT_EQ(verdicts[0].privatizable.size(), 2u);
}

TEST(LoopParallelism, WarWawPrivatizableAtEveryNestLevel) {
  // Three nested loops, each carrying a WAR/WAW at its own level: every
  // level stays parallelizable and lists its own privatization work.
  ControlFlowLog cf;
  cf.loops.push_back(loop(10, 40));
  cf.loops.push_back(loop(12, 30));
  cf.loops.push_back(loop(14, 20));
  DepMap deps;
  deps.add(key(DepType::kWar, 15, 16), kLoopCarried, at(10, 1, 1));
  deps.add(key(DepType::kWaw, 17, 17), kLoopCarried, at(12, 2, 1));
  deps.add(key(DepType::kWar, 18, 19), kLoopCarried, at(14, 3, 2));
  const auto verdicts = analyze_loops(deps, cf);
  ASSERT_EQ(verdicts.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(verdicts[i].kind, LoopVerdictKind::kDoallSafe) << "loop " << i;
    EXPECT_EQ(verdicts[i].privatizable.size(), 1u) << "loop " << i;
  }
}

TEST(LoopParallelism, ReductionSelfDepFiltered) {
  ControlFlowLog cf;
  cf.loops.push_back(loop(10, 20));
  DepMap deps;
  deps.add(key(DepType::kRaw, 15, 15), kLoopCarried, at(10, 1, 1));
  LoopAnalysisOptions opts;
  opts.reduction_lines = {SourceLocation(1, 15).packed()};
  const auto hinted = analyze_loops(deps, cf, opts);
  EXPECT_EQ(hinted[0].kind, LoopVerdictKind::kReductionSuspect);
  EXPECT_TRUE(hinted[0].parallelizable());
  ASSERT_EQ(hinted[0].reductions.size(), 1u);
  // Without the reduction hint the same dependence blocks.
  EXPECT_EQ(analyze_loops(deps, cf)[0].kind, LoopVerdictKind::kSerial);
}

TEST(LoopParallelism, ReductionFilteredAtEveryNestLevel) {
  // A reduction update carried by an inner loop must also be filtered when
  // the same line's dependence is attributed to an outer level (the sum
  // crosses outer iterations too).
  ControlFlowLog cf;
  cf.loops.push_back(loop(10, 40));
  cf.loops.push_back(loop(12, 30));
  cf.loops.push_back(loop(14, 20));
  DepMap deps;
  const DepKey k = key(DepType::kRaw, 15, 15);
  deps.add(k, kLoopCarried, at(14, 3, 1));  // carried by innermost
  deps.add(k, kLoopCarried, at(12, 2, 1));  // and across middle iterations
  deps.add(k, kLoopCarried, at(10, 1, 1));  // and across outer iterations
  LoopAnalysisOptions opts;
  opts.reduction_lines = {SourceLocation(1, 15).packed()};
  const auto verdicts = analyze_loops(deps, cf, opts);
  ASSERT_EQ(verdicts.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(verdicts[i].kind, LoopVerdictKind::kReductionSuspect)
        << "loop " << i;
    EXPECT_TRUE(verdicts[i].parallelizable()) << "loop " << i;
  }
  // Without the hint all three levels are serial.
  for (const auto& v : analyze_loops(deps, cf))
    EXPECT_EQ(v.kind, LoopVerdictKind::kSerial);
}

TEST(LoopParallelism, FormatListsVerdictsAndBlockers) {
  ControlFlowLog cf;
  cf.loops.push_back(loop(10, 20));
  DepMap deps;
  deps.add(key(DepType::kRaw, 15, 16), kLoopCarried, at(10, 1, 1));
  const auto verdicts = analyze_loops(deps, cf);
  const std::string out = format_loop_verdicts(verdicts);
  EXPECT_NE(out.find("serial"), std::string::npos);
  EXPECT_NE(out.find("blocked by carried RAW"), std::string::npos);
}

TEST(LoopParallelism, FormatNamesReductionsAndPrivatization) {
  ControlFlowLog cf;
  cf.loops.push_back(loop(10, 20));
  DepMap deps;
  deps.add(key(DepType::kRaw, 15, 15), kLoopCarried, at(10, 1, 1));
  deps.add(key(DepType::kWar, 16, 17), kLoopCarried, at(10, 1, 1));
  LoopAnalysisOptions opts;
  opts.reduction_lines = {SourceLocation(1, 15).packed()};
  const std::string out = format_loop_verdicts(analyze_loops(deps, cf, opts));
  EXPECT_NE(out.find("reduction-suspect"), std::string::npos);
  EXPECT_NE(out.find("reduction update at"), std::string::npos);
  EXPECT_NE(out.find("privatize"), std::string::npos);
}

// ------------------------------------------------------------- report

TEST(Report, TextTreeIndentsNestedLoops) {
  ControlFlowLog cf;
  cf.loops.push_back(loop(10, 30));
  cf.loops.push_back(loop(12, 20));
  const std::uint32_t outer = cf.loops[0].loop_id;
  const std::uint32_t inner = cf.loops[1].loop_id;
  cf.edges.push_back({0, outer, 1});
  cf.edges.push_back({outer, inner, 5});
  DepMap deps;
  deps.add(key(DepType::kRaw, 15, 16), kLoopCarried, at(12, 2, 1));
  const auto verdicts = analyze_loops(deps, cf);
  const std::string out = render_loop_report(verdicts, cf);
  // Outer at column 0, inner indented beneath it, each with its verdict.
  EXPECT_NE(out.find("loop 1:10-1:30"), std::string::npos) << out;
  EXPECT_NE(out.find("\n  loop 1:12-1:20"), std::string::npos) << out;
  EXPECT_LT(out.find("1:10"), out.find("1:12"));
  EXPECT_NE(out.find("verdict=DOALL-safe"), std::string::npos);
  EXPECT_NE(out.find("verdict=serial"), std::string::npos);
  EXPECT_NE(out.find("blocked by carried RAW"), std::string::npos);
}

TEST(Report, JsonNestsChildrenAndFlags) {
  ControlFlowLog cf;
  cf.loops.push_back(loop(10, 30));
  cf.loops.push_back(loop(12, 20));
  cf.edges.push_back({0, cf.loops[0].loop_id, 1});
  cf.edges.push_back({cf.loops[0].loop_id, cf.loops[1].loop_id, 5});
  DepMap deps;
  deps.add(key(DepType::kRaw, 15, 16), kLoopCarried, at(12, 2, 1));
  ReportOptions opts;
  opts.json = true;
  const std::string out =
      render_loop_report(analyze_loops(deps, cf), cf, opts);
  // The inner loop's object appears inside the outer loop's children array.
  const auto outer_pos = out.find("\"loop\":\"1:10\"");
  const auto children = out.find("\"children\":[", outer_pos);
  const auto inner_pos = out.find("\"loop\":\"1:12\"");
  ASSERT_NE(outer_pos, std::string::npos) << out;
  ASSERT_NE(inner_pos, std::string::npos);
  EXPECT_LT(children, inner_pos);
  EXPECT_NE(out.find("\"parallelizable\":false"), std::string::npos);
  EXPECT_NE(out.find("\"verdict\":\"serial\""), std::string::npos);
}

TEST(Report, LoopsUnreachableFromNestTreeStillRender) {
  // A replayed run has verdicts but no nest edges: every loop must still
  // appear (at top level) rather than being silently dropped.
  ControlFlowLog cf;
  cf.loops.push_back(loop(10, 20));
  cf.loops.push_back(loop(30, 40));
  DepMap deps;
  const std::string out = render_loop_report(analyze_loops(deps, cf), cf);
  EXPECT_NE(out.find("loop 1:10-1:20"), std::string::npos) << out;
  EXPECT_NE(out.find("loop 1:30-1:40"), std::string::npos);
}

TEST(Report, CheckScoresVerdictsAgainstTruth) {
  std::vector<LoopVerdict> verdicts(3);
  verdicts[0].loop = loop(10, 20);
  verdicts[0].kind = LoopVerdictKind::kDoallSafe;
  verdicts[1].loop = loop(30, 40);
  verdicts[1].kind = LoopVerdictKind::kSerial;
  verdicts[2].loop = loop(50, 60);
  verdicts[2].kind = LoopVerdictKind::kReductionSuspect;

  // Reduction-suspect counts as parallelizable (Table II semantics).
  const ReportCheck ok = check_verdicts(
      verdicts, {{"a", true}, {"b", false}, {"c", true}});
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.matched, 3u);
  EXPECT_EQ(ok.total, 3u);

  const ReportCheck bad = check_verdicts(
      verdicts, {{"a", true}, {"b", true}, {"c", true}});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.matched, 2u);
  ASSERT_EQ(bad.mismatches.size(), 1u);
  EXPECT_NE(bad.mismatches[0].find("b"), std::string::npos);
  EXPECT_NE(bad.mismatches[0].find("serial"), std::string::npos);

  // A loop-count mismatch is itself a failure, even if the prefix agrees.
  const ReportCheck counts =
      check_verdicts(verdicts, {{"a", true}, {"b", false}});
  EXPECT_FALSE(counts.ok());
  EXPECT_NE(counts.mismatches[0].find("count mismatch"), std::string::npos);
}

TEST(Report, GoldenIsWorkloadMatchesOmpTruth) {
  // End-to-end golden: profile the NAS IS analogue with exact storage and
  // pin each loop's verdict against the OpenMP annotation ground truth —
  // histogram parallel via reduction, prefix and permute serial (scan and
  // cursor recurrence), verify DOALL.
  const Workload* w = find_workload("is");
  ASSERT_NE(w, nullptr);
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPacked;
  RunOptions opts;
  opts.native_reps = 1;
  const RunMeasurement m = profile_workload(*w, cfg, opts);
  LoopAnalysisOptions ao;
  ao.reduction_lines = Runtime::instance().reduction_lines();
  const auto verdicts = analyze_loops(m.deps, m.control_flow, ao);
  ASSERT_EQ(verdicts.size(), 4u);
  EXPECT_EQ(verdicts[0].kind, LoopVerdictKind::kReductionSuspect);
  EXPECT_EQ(verdicts[1].kind, LoopVerdictKind::kSerial);
  EXPECT_EQ(verdicts[2].kind, LoopVerdictKind::kSerial);
  EXPECT_EQ(verdicts[3].kind, LoopVerdictKind::kDoallSafe);

  std::vector<LoopExpectation> truth;
  for (const LoopTruth& t : w->loops)
    truth.push_back({t.label, t.parallelizable});
  const ReportCheck chk = check_verdicts(verdicts, truth);
  EXPECT_TRUE(chk.ok()) << (chk.mismatches.empty() ? ""
                                                   : chk.mismatches[0]);
  EXPECT_EQ(chk.matched, 4u);

  const std::string text = render_loop_report(verdicts, m.control_flow);
  EXPECT_NE(text.find("verdict=reduction-suspect"), std::string::npos) << text;
  EXPECT_NE(text.find("reduction update at"), std::string::npos);
  EXPECT_NE(text.find("verdict=DOALL-safe"), std::string::npos);
}

// --------------------------------------------------------- comm matrix

TEST(CommMatrix, CrossThreadRawCounts) {
  DepMap deps;
  deps.add(key(DepType::kRaw, 20, 10, /*sink=*/2, /*src=*/1), kCrossThread);
  deps.add(key(DepType::kRaw, 20, 10, 2, 1), kCrossThread);
  deps.add(key(DepType::kRaw, 21, 11, 3, 2), kCrossThread);
  const CommMatrix m = build_comm_matrix(deps);
  ASSERT_EQ(m.threads(), 4u);
  EXPECT_EQ(m.counts[1][2], 2u);  // producer 1 -> consumer 2
  EXPECT_EQ(m.counts[2][3], 1u);
  EXPECT_EQ(m.total(), 3u);
}

TEST(CommMatrix, SameThreadAndNonRawExcluded) {
  DepMap deps;
  deps.add(key(DepType::kRaw, 20, 10, 1, 1), 0);             // same thread
  deps.add(key(DepType::kWar, 20, 10, 2, 1), kCrossThread);  // not RAW
  deps.add(key(DepType::kWaw, 20, 10, 2, 1), kCrossThread);
  const CommMatrix m = build_comm_matrix(deps, 4);
  EXPECT_EQ(m.total(), 0u);
}

TEST(CommMatrix, ExplicitSizeClampsIds) {
  DepMap deps;
  deps.add(key(DepType::kRaw, 20, 10, 9, 1), kCrossThread);
  const CommMatrix m = build_comm_matrix(deps, 4);  // tid 9 out of range
  EXPECT_EQ(m.threads(), 4u);
  EXPECT_EQ(m.total(), 0u);
}

TEST(CommMatrix, FormatRendersHeatmap) {
  DepMap deps;
  deps.add(key(DepType::kRaw, 20, 10, 1, 0), kCrossThread);
  const std::string art = format_comm_matrix(build_comm_matrix(deps, 2));
  EXPECT_NE(art.find("producer"), std::string::npos);
  EXPECT_NE(art.find("consumer"), std::string::npos);
}

// ---------------------------------------------------------- race report

TEST(RaceReport, ReversedDepsAreConfirmedRaces) {
  DepMap deps;
  deps.add(key(DepType::kRaw, 20, 10, 2, 1), kCrossThread | kReversed);
  deps.add(key(DepType::kWaw, 21, 11, 2, 1), kCrossThread);
  const RaceReport r = find_races(deps);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_TRUE(r.findings[0].confirmed);
  EXPECT_EQ(r.confirmed_count(), 1u);
}

TEST(RaceReport, UnconfirmedCrossThreadDepsOptional) {
  DepMap deps;
  deps.add(key(DepType::kRaw, 20, 10, 2, 1), kCrossThread);
  EXPECT_EQ(find_races(deps).findings.size(), 0u);
  const RaceReport r = find_races(deps, /*include_unconfirmed=*/true);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_FALSE(r.findings[0].confirmed);
}

TEST(RaceReport, InitNeverReported) {
  DepMap deps;
  deps.add(key(DepType::kInit, 20, 0), kReversed);
  EXPECT_TRUE(find_races(deps, true).findings.empty());
}

TEST(RaceReport, FormatMentionsConfirmation) {
  DepMap deps;
  deps.add(key(DepType::kRaw, 20, 10, 2, 1), kCrossThread | kReversed);
  const std::string out = format_race_report(find_races(deps));
  EXPECT_NE(out.find("[RACE]"), std::string::npos);
  EXPECT_NE(out.find("timestamp reversal"), std::string::npos);
}

}  // namespace
}  // namespace depprof
