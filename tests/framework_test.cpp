// Tests for the Sec. VIII program-analysis framework: call tree, dependence
// graph, loop table, program model, and the plugin registry.

#include <gtest/gtest.h>

#include "core/profiler.hpp"
#include "framework/plugin.hpp"
#include "framework/program_model.hpp"
#include "instrument/macros.hpp"
#include "instrument/runtime.hpp"
#include "trace/trace.hpp"

DP_FILE("framework_test");

namespace depprof {
namespace {

DepKey key(DepType type, std::uint32_t sink, std::uint32_t src,
           std::uint32_t var = 0) {
  DepKey k;
  k.type = type;
  k.sink_loc = SourceLocation(1, sink).packed();
  k.src_loc = src ? SourceLocation(1, src).packed() : 0;
  k.var = var;
  return k;
}

// --------------------------------------------------------------- CallTree

TEST(CallTreeTest, RootOnlyByDefault) {
  CallTree tree;
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.depth(CallTree::kRoot), 0u);
}

TEST(CallTreeTest, ChildOfCreatesOncePerPath) {
  CallTree tree;
  const auto a = tree.child_of(CallTree::kRoot, 100, 1);
  const auto a2 = tree.child_of(CallTree::kRoot, 100, 1);
  EXPECT_EQ(a, a2);
  const auto b = tree.child_of(a, 100, 1);  // same function, deeper path
  EXPECT_NE(b, a);
  EXPECT_EQ(tree.depth(b), 2u);
  EXPECT_EQ(tree.node(b).parent, a);
}

TEST(CallTreeTest, RenderListsCalls) {
  const auto fn = var_registry().intern("compute");
  CallTree tree;
  const auto n = tree.child_of(CallTree::kRoot, SourceLocation(1, 5).packed(), fn);
  tree.node(n).calls = 3;
  const std::string out = tree.render();
  EXPECT_NE(out.find("compute"), std::string::npos);
  EXPECT_NE(out.find("x3"), std::string::npos);
}

TEST(CallTreeTest, RuntimeBuildsTreeFromGuards) {
  Runtime::instance().reset();
  TraceRecorder rec;
  Runtime::instance().attach(&rec);
  {
    DP_FUNCTION("outer");
    for (int i = 0; i < 2; ++i) {
      DP_FUNCTION("inner");
    }
  }
  Runtime::instance().detach();
  const CallTree tree = Runtime::instance().call_tree();
  ASSERT_EQ(tree.size(), 3u);  // root, outer, inner
  const CallNode& root = tree.node(CallTree::kRoot);
  ASSERT_EQ(root.children.size(), 1u);
  const CallNode& outer = tree.node(root.children[0]);
  EXPECT_EQ(outer.calls, 1u);
  ASSERT_EQ(outer.children.size(), 1u);
  EXPECT_EQ(tree.node(outer.children[0]).calls, 2u);
  Runtime::instance().reset();
}

// --------------------------------------------------------------- DepGraph

TEST(DepGraphTest, EdgesAndQueries) {
  DepMap deps;
  deps.add(key(DepType::kRaw, 20, 10, 1), 0);
  deps.add(key(DepType::kRaw, 30, 20, 1), 0);
  deps.add(key(DepType::kWar, 10, 20, 1), 0);
  const DepGraph g(deps);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.nodes().size(), 3u);

  const auto out10 = g.out_edges(SourceLocation(1, 10).packed());
  ASSERT_EQ(out10.size(), 1u);
  EXPECT_EQ(out10[0]->type, DepType::kRaw);

  const auto in20 = g.in_edges(SourceLocation(1, 20).packed());
  ASSERT_EQ(in20.size(), 1u);
}

TEST(DepGraphTest, RawReachability) {
  DepMap deps;
  deps.add(key(DepType::kRaw, 20, 10), 0);
  deps.add(key(DepType::kRaw, 30, 20), 0);
  deps.add(key(DepType::kWar, 40, 30), 0);  // WAR breaks the RAW chain
  const DepGraph g(deps);
  const auto reach = g.raw_reachable(SourceLocation(1, 10).packed());
  EXPECT_EQ(reach.size(), 2u);  // 20 and 30, not 40
  EXPECT_FALSE(g.has_raw_cycle());
}

TEST(DepGraphTest, DetectsRawCycle) {
  DepMap deps;
  deps.add(key(DepType::kRaw, 20, 10), 0);
  deps.add(key(DepType::kRaw, 10, 20), 0);  // recurrence
  EXPECT_TRUE(DepGraph(deps).has_raw_cycle());
}

TEST(DepGraphTest, DotExportMentionsEdgesAndStyles) {
  const auto var = var_registry().intern("acc");
  DepMap deps;
  deps.add(key(DepType::kRaw, 20, 10, var), kLoopCarried, {5, 1, 1, true});
  deps.add(key(DepType::kWaw, 20, 10, var), 0);
  deps.add(key(DepType::kInit, 10, 0, var), 0);
  const std::string dot = DepGraph(deps).to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("RAW acc"), std::string::npos);
  EXPECT_NE(dot.find("color=red"), std::string::npos);   // carried
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // WAW
  EXPECT_EQ(dot.find("INIT"), std::string::npos);  // INIT pseudo-edges skipped
}

// -------------------------------------------------------------- LoopTable

TEST(LoopTableTest, AggregatesPerLoop) {
  ControlFlowLog cf;
  LoopRecord loop;
  loop.loop_id = SourceLocation(1, 10).packed();
  loop.begin_loc = SourceLocation(1, 10).packed();
  loop.end_loc = SourceLocation(1, 30).packed();
  loop.iterations = 100;
  loop.entries = 2;
  cf.loops.push_back(loop);

  DepMap deps;
  DepKey inside = key(DepType::kRaw, 15, 12);
  deps.add(inside, kLoopCarried, {loop.loop_id, 1, 1, true});
  deps.add(inside, kLoopCarried, {loop.loop_id, 1, 1, true});
  deps.add(key(DepType::kRaw, 50, 40), 0);  // outside the loop body

  const LoopTable table(deps, cf, {});
  ASSERT_EQ(table.rows().size(), 1u);
  const LoopRow& row = table.rows()[0];
  EXPECT_EQ(row.dep_kinds, 1u);
  EXPECT_EQ(row.dep_instances, 2u);
  EXPECT_EQ(row.carried_raw, 1u);
  EXPECT_EQ(row.min_carried_bucket, 1u);
  EXPECT_EQ(row.verdict, LoopVerdictKind::kSerial);
  EXPECT_FALSE(row.parallelizable);
  EXPECT_NE(table.find(loop.loop_id), nullptr);
  EXPECT_EQ(table.find(12345), nullptr);
  EXPECT_NE(table.render().find("serial"), std::string::npos);
}

// ----------------------------------------------------------- ProgramModel

TEST(ProgramModelTest, FromRunBundlesEverything) {
  Runtime::instance().reset();
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPacked;
  auto profiler = make_serial_profiler(cfg);
  Runtime::instance().attach(profiler.get());
  {
    DP_FUNCTION("kernel");
    double acc = 0.0;
    DP_LOOP_BEGIN();
    for (int i = 0; i < 8; ++i) {
      DP_LOOP_ITER();
      DP_UPDATE(acc);
      acc += i;
    }
    DP_LOOP_END();
  }
  Runtime::instance().detach();

  const ProgramModel model = ProgramModel::from_run(*profiler);
  EXPECT_GT(model.deps().size(), 0u);
  EXPECT_EQ(model.control_flow().loops.size(), 1u);
  EXPECT_EQ(model.call_tree().size(), 2u);  // root + kernel
  EXPECT_GT(model.dep_graph().edge_count(), 0u);
  EXPECT_EQ(model.loop_table().rows().size(), 1u);
  // The carried self-RAW on acc blocks the loop (no reduction hint given).
  EXPECT_FALSE(model.loop_table().rows()[0].parallelizable);
  Runtime::instance().reset();
}

// ---------------------------------------------------------------- Plugins

TEST(PluginTest, RegistryHasBuiltins) {
  auto& reg = PluginRegistry::instance();
  EXPECT_GE(reg.all().size(), 5u);
  EXPECT_NE(reg.find("loop-parallelism"), nullptr);
  EXPECT_NE(reg.find("comm-matrix"), nullptr);
  EXPECT_NE(reg.find("race-report"), nullptr);
  EXPECT_NE(reg.find("hot-deps"), nullptr);
  EXPECT_NE(reg.find("self-parallelism"), nullptr);
  EXPECT_EQ(reg.find("no-such-plugin"), nullptr);
}

TEST(PluginTest, HotDepsRanksByCount) {
  DepMap deps;
  for (int i = 0; i < 5; ++i) deps.add(key(DepType::kRaw, 20, 10), 0);
  deps.add(key(DepType::kRaw, 30, 10), 0);
  ProgramModel model(std::move(deps), {}, {}, {});
  auto plugin = make_hot_deps_plugin(1);
  const std::string out = plugin->run(model);
  EXPECT_NE(out.find("x5"), std::string::npos);
  EXPECT_EQ(out.find("1:30"), std::string::npos);  // only the top entry
}

TEST(PluginTest, SelfParallelismPrefersParallelHotLoops) {
  ControlFlowLog cf;
  LoopRecord par;  // hot, parallel loop
  par.loop_id = SourceLocation(1, 10).packed();
  par.begin_loc = par.loop_id;
  par.end_loc = SourceLocation(1, 20).packed();
  par.iterations = 1000;
  par.entries = 1;
  LoopRecord seq = par;  // equally hot but carried
  seq.loop_id = SourceLocation(1, 40).packed();
  seq.begin_loc = seq.loop_id;
  seq.end_loc = SourceLocation(1, 50).packed();
  cf.loops = {par, seq};

  DepMap deps;
  for (int i = 0; i < 100; ++i) {
    deps.add(key(DepType::kRaw, 15, 12), 0);  // intra-iteration work
    deps.add(key(DepType::kRaw, 45, 42), kLoopCarried, {seq.loop_id, 1, 1, true});
  }
  ProgramModel model(std::move(deps), cf, {}, {});
  const std::string out = make_self_parallelism_plugin()->run(model);
  // The parallel loop (1:10) must rank above the serialized one (1:40).
  EXPECT_LT(out.find("1:10"), out.find("1:40")) << out;
}

TEST(PluginTest, DepDistanceReportsBlockingAdvice) {
  const std::uint32_t loop5 = SourceLocation(1, 5).packed();
  DepMap deps;
  DepKey k = key(DepType::kRaw, 20, 10, var_registry().intern("a"));
  deps.add(k, kLoopCarried, {loop5, 1, 4, true});
  deps.add(k, kLoopCarried, {loop5, 1, 4, true});
  ProgramModel model(std::move(deps), {}, {}, {});
  const std::string out = make_dep_distance_plugin()->run(model);
  // Both instances sit in the d>=2 bucket: a gap of independent iterations
  // remains, so blocking/unrolling advice applies.
  EXPECT_NE(out.find("gapped: blocking/unrolling may apply"),
            std::string::npos)
      << out;

  DepMap serial_deps;
  serial_deps.add(key(DepType::kRaw, 20, 10), kLoopCarried,
                  {loop5, 1, 1, true});
  ProgramModel serial_model(std::move(serial_deps), {}, {}, {});
  EXPECT_NE(make_dep_distance_plugin()->run(serial_model).find(
                "serializing recurrence"),
            std::string::npos);
}

TEST(PluginTest, SelfParallelismUsesBucketForCarriedLoops) {
  ControlFlowLog cf;
  LoopRecord loop;
  loop.loop_id = SourceLocation(1, 10).packed();
  loop.begin_loc = loop.loop_id;
  loop.end_loc = SourceLocation(1, 30).packed();
  loop.iterations = 1000;
  loop.entries = 1;
  cf.loops.push_back(loop);
  DepMap deps;
  deps.add(key(DepType::kRaw, 15, 12), kLoopCarried,
           {loop.loop_id, 1, 8, true});
  ProgramModel model(std::move(deps), cf, {}, {});
  const LoopRow& row = model.loop_table().rows()[0];
  EXPECT_FALSE(row.parallelizable);
  EXPECT_EQ(row.verdict, LoopVerdictKind::kSerial);
  // Only d>=2 instances: at least one independent iteration between
  // conflicting ones, so SP floors at 2 rather than serializing fully.
  EXPECT_EQ(row.min_carried_bucket, 2u);
  const std::string out = make_self_parallelism_plugin()->run(model);
  EXPECT_NE(out.find("self-parallelism"), std::string::npos);
}

TEST(PluginTest, CustomPluginCanBeRegistered) {
  class CountPlugin final : public AnalysisPlugin {
   public:
    std::string name() const override { return "dep-count"; }
    std::string description() const override { return "counts dependences"; }
    std::string run(const ProgramModel& model) override {
      return std::to_string(model.deps().size()) + " dependences\n";
    }
  };
  PluginRegistry reg;
  reg.add(std::make_unique<CountPlugin>());
  DepMap deps;
  deps.add(key(DepType::kRaw, 20, 10), 0);
  ProgramModel model(std::move(deps), {}, {}, {});
  EXPECT_EQ(reg.find("dep-count")->run(model), "1 dependences\n");
}

}  // namespace
}  // namespace depprof
