// Tests for the Fig. 1 / Fig. 3 output format and the CSV exporter.

#include <gtest/gtest.h>

#include "core/formatter.hpp"

namespace depprof {
namespace {

DepKey key(DepType type, std::uint32_t sink_line, std::uint32_t src_line,
           std::uint32_t var = 0, std::uint16_t sink_tid = 0,
           std::uint16_t src_tid = 0) {
  DepKey k;
  k.type = type;
  k.sink_loc = SourceLocation(1, sink_line).packed();
  k.src_loc = src_line ? SourceLocation(1, src_line).packed() : 0;
  k.var = var;
  k.sink_tid = sink_tid;
  k.src_tid = src_tid;
  return k;
}

TEST(Formatter, SequentialFig1Format) {
  const std::uint32_t var_i = var_registry().intern("i");
  DepMap deps;
  deps.add(key(DepType::kRaw, 60, 60, var_i), 0);
  deps.add(key(DepType::kWar, 60, 60, var_i), 0);
  deps.add(key(DepType::kInit, 60, 0, var_i), 0);

  const std::string out = format_deps(deps);
  // Fig. 1 line 2: "1:60 NOM {RAW 1:60|i} {WAR 1:60|i} {INIT *}"
  EXPECT_NE(out.find("1:60 NOM {RAW 1:60|i} {WAR 1:60|i} {INIT *}"),
            std::string::npos)
      << out;
}

TEST(Formatter, TypeOrderRawWarWawInit) {
  DepMap deps;
  deps.add(key(DepType::kInit, 10, 0), 0);
  deps.add(key(DepType::kWaw, 10, 5), 0);
  deps.add(key(DepType::kRaw, 10, 5), 0);
  deps.add(key(DepType::kWar, 10, 5), 0);
  const std::string out = format_deps(deps);
  const auto raw = out.find("{RAW");
  const auto war = out.find("{WAR");
  const auto waw = out.find("{WAW");
  const auto init = out.find("{INIT");
  EXPECT_LT(raw, war);
  EXPECT_LT(war, waw);
  EXPECT_LT(waw, init);
}

TEST(Formatter, ControlRegionsBgnEndWithIterations) {
  DepMap deps;
  deps.add(key(DepType::kRaw, 63, 59), 0);

  ControlFlowLog cf;
  LoopRecord loop;
  loop.loop_id = SourceLocation(1, 60).packed();
  loop.begin_loc = SourceLocation(1, 60).packed();
  loop.end_loc = SourceLocation(1, 74).packed();
  loop.iterations = 1200;
  cf.loops.push_back(loop);

  const std::string out = format_deps(deps, &cf);
  const auto bgn = out.find("1:60 BGN loop");
  const auto nom = out.find("1:63 NOM");
  const auto end = out.find("1:74 END loop 1200");
  ASSERT_NE(bgn, std::string::npos) << out;
  ASSERT_NE(nom, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  EXPECT_LT(bgn, nom);
  EXPECT_LT(nom, end);
}

TEST(Formatter, BgnBeforeNomOnSameLine) {
  // Fig. 1: "1:60 BGN loop" precedes "1:60 NOM ..." on the same line number.
  DepMap deps;
  deps.add(key(DepType::kRaw, 60, 60), 0);
  ControlFlowLog cf;
  LoopRecord loop;
  loop.begin_loc = SourceLocation(1, 60).packed();
  loop.end_loc = SourceLocation(1, 74).packed();
  cf.loops.push_back(loop);
  const std::string out = format_deps(deps, &cf);
  EXPECT_LT(out.find("1:60 BGN loop"), out.find("1:60 NOM"));
}

TEST(Formatter, ParallelFig3FormatWithThreadIds) {
  const std::uint32_t var_iter = var_registry().intern("iter");
  DepMap deps;
  deps.add(key(DepType::kWar, 58, 77, var_iter, /*sink_tid=*/2, /*src_tid=*/2), 0);

  FormatOptions opts;
  opts.show_tids = true;
  const std::string out = format_deps(deps, nullptr, opts);
  // Fig. 3 line 1: "4:58|2 NOM {WAR 4:77|2|iter}" (our file id is 1).
  EXPECT_NE(out.find("1:58|2 NOM {WAR 1:77|2|iter}"), std::string::npos) << out;
}

TEST(Formatter, SeparateLinesPerSinkThread) {
  DepMap deps;
  deps.add(key(DepType::kRaw, 64, 75, 0, /*sink_tid=*/2), 0);
  deps.add(key(DepType::kRaw, 64, 75, 0, /*sink_tid=*/3), 0);
  FormatOptions opts;
  opts.show_tids = true;
  const std::string out = format_deps(deps, nullptr, opts);
  EXPECT_NE(out.find("1:64|2 NOM"), std::string::npos);
  EXPECT_NE(out.find("1:64|3 NOM"), std::string::npos);
}

TEST(Formatter, RaceMarkAndCounts) {
  DepMap deps;
  deps.add(key(DepType::kRaw, 20, 10), kReversed);
  deps.add(key(DepType::kRaw, 20, 10), 0);
  FormatOptions opts;
  opts.show_counts = true;
  opts.mark_races = true;
  const std::string out = format_deps(deps, nullptr, opts);
  EXPECT_NE(out.find("x2"), std::string::npos);
  EXPECT_NE(out.find("!}"), std::string::npos);
}

TEST(Formatter, CsvExportRoundTrip) {
  const std::uint32_t var_x = var_registry().intern("x");
  const std::uint32_t loop5 = SourceLocation(1, 5).packed();
  DepMap deps;
  deps.add(key(DepType::kRaw, 20, 10, var_x, 1, 2), kLoopCarried | kCrossThread,
           {loop5, 1, 1});
  deps.add(key(DepType::kInit, 20, 0, var_x), 0);
  const std::string csv = deps_csv(deps);
  EXPECT_NE(csv.find("type,sink,sink_tid,source,src_tid,var,count,carried,"
                     "cross_thread,reversed,locked,carried_level,carried_loop,"
                     "d0,d1,d2p"),
            std::string::npos);
  EXPECT_NE(csv.find("RAW,1:20,1,1:10,2,x,1,1,1,0,0,1,1:5,0,1,0"),
            std::string::npos)
      << csv;
  EXPECT_NE(csv.find("INIT,1:20,0,*,0,x,1,0,0,0,0,0,,0,0,0"),
            std::string::npos)
      << csv;
}

TEST(Formatter, DistanceAnnotation) {
  const std::uint32_t loop5 = SourceLocation(1, 5).packed();
  DepMap deps;
  deps.add(key(DepType::kRaw, 20, 10), kLoopCarried, {loop5, 1, 1});
  deps.add(key(DepType::kRaw, 20, 10), kLoopCarried, {loop5, 1, 9});
  deps.add(key(DepType::kRaw, 20, 10), 0, {loop5, 2, 0});
  FormatOptions opts;
  opts.show_distances = true;
  const std::string out = format_deps(deps, nullptr, opts);
  // Per-level carry buckets: level 1 has one d=1 and one d>=2 instance,
  // level 2 one iteration-local (d=0) instance.
  EXPECT_NE(out.find("L1=0|1|1"), std::string::npos) << out;
  EXPECT_NE(out.find("L2=1|0|0"), std::string::npos) << out;
  opts.show_distances = false;
  EXPECT_EQ(format_deps(deps, nullptr, opts).find("L1="), std::string::npos);
}

TEST(Formatter, EmptyMapYieldsEmptyOutput) {
  DepMap deps;
  EXPECT_TRUE(format_deps(deps).empty());
}

TEST(Formatter, InitOnlyMapFormatsEverySink) {
  // A map holding nothing but first-writes (src_loc == 0 throughout) must
  // render one NOM line per sink with the '*' source placeholder — the
  // formatter must never try to resolve the absent source location.
  DepMap deps;
  deps.add(key(DepType::kInit, 12, 0), 0);
  deps.add(key(DepType::kInit, 10, 0), 0);
  const std::string out = format_deps(deps);
  const auto first = out.find("1:10 NOM {INIT *}");
  const auto second = out.find("1:12 NOM {INIT *}");
  ASSERT_NE(first, std::string::npos) << out;
  ASSERT_NE(second, std::string::npos) << out;
  EXPECT_LT(first, second);

  const std::string csv = deps_csv(deps);
  EXPECT_NE(csv.find("INIT,1:10,0,*,"), std::string::npos) << csv;
  EXPECT_NE(csv.find("INIT,1:12,0,*,"), std::string::npos) << csv;
}

}  // namespace
}  // namespace depprof
