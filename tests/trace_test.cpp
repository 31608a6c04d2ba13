// Tests for the trace substrate: containers, statistics, synthetic
// generators, recorder/replay, and binary trace I/O.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <unordered_map>

#include "trace/generators.hpp"
#include "trace/nest.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace depprof {
namespace {

TEST(Trace, StatisticsMatchGeneratorParams) {
  GenParams p;
  p.accesses = 10'000;
  p.distinct = 500;
  p.write_ratio = 0.3;
  const Trace t = gen_uniform(p);
  EXPECT_EQ(t.size(), 10'000u);
  EXPECT_LE(t.distinct_addresses(), 500u);
  EXPECT_GE(t.distinct_addresses(), 450u);  // nearly all touched
  EXPECT_NEAR(t.write_ratio(), 0.3, 0.05);
}

TEST(Generators, Deterministic) {
  GenParams p;
  p.accesses = 1'000;
  const Trace a = gen_uniform(p);
  const Trace b = gen_uniform(p);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events[i].addr, b.events[i].addr);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
  }
}

TEST(Generators, SeedChangesStream) {
  GenParams p;
  p.accesses = 1'000;
  const Trace a = gen_uniform(p);
  p.seed = 99;
  const Trace b = gen_uniform(p);
  std::size_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    diff += a.events[i].addr != b.events[i].addr ? 1 : 0;
  EXPECT_GT(diff, 100u);
}

TEST(Generators, StridedSweepsLinearly) {
  GenParams p;
  p.accesses = 100;
  p.distinct = 50;
  p.stride = 16;
  const Trace t = gen_strided(p);
  for (std::size_t i = 1; i < 50; ++i)
    EXPECT_EQ(t.events[i].addr - t.events[i - 1].addr, 16u);
  EXPECT_EQ(t.events[50].addr, t.events[0].addr);  // second sweep restarts
}

TEST(Generators, ZipfIsHeavilySkewed) {
  GenParams p;
  p.accesses = 50'000;
  p.distinct = 1'000;
  const Trace t = gen_zipf(p, 1.2);
  std::unordered_map<std::uint64_t, std::uint64_t> counts;
  for (const auto& ev : t.events) ++counts[ev.addr];
  std::uint64_t max_count = 0;
  for (const auto& [addr, c] : counts) max_count = std::max(max_count, c);
  // The hottest address absorbs far more than a uniform share.
  EXPECT_GT(max_count, 50'000u / 1'000u * 10);
}

TEST(Generators, LoopTraceCarriesLoopContext) {
  GenParams p;
  p.distinct = 10;
  const Trace t = gen_loop(p, /*iters=*/3, /*carried=*/true, /*loop_id=*/7);
  ASSERT_EQ(t.size(), 3u * 10u * 2u);
  const NestForest& forest = nest_forest();
  for (const auto& ev : t.events) {
    ASSERT_NE(ev.ctx, NestForest::kRoot);
    EXPECT_EQ(forest.loop(ev.ctx), 7u);
    EXPECT_EQ(forest.depth(ev.ctx), 1u);
  }
  // All events share one dynamic loop entry; iter tracks the iteration.
  EXPECT_EQ(t.events.back().ctx, t.events[0].ctx);
  EXPECT_EQ(t.events[0].iter, 0u);
  EXPECT_EQ(t.events.back().iter, 2u);
}

TEST(Generators, NestTraceBuildsDeepImperfectNests) {
  GenParams p;
  p.seed = 11;
  const Trace t = gen_nest(p, /*depth=*/3, /*width=*/3);
  ASSERT_FALSE(t.events.empty());
  const NestForest& forest = nest_forest();
  std::size_t max_depth = 0;
  std::size_t shallow = 0;  // events stamped above the deepest level
  for (const auto& ev : t.events) {
    ASSERT_LT(ev.ctx, forest.size());
    const std::size_t d = forest.depth(ev.ctx);
    max_depth = std::max(max_depth, d);
    if (d > 0 && d < 3) ++shallow;
  }
  EXPECT_EQ(max_depth, 3u);
  // The nest is imperfect: outer levels issue accesses of their own.
  EXPECT_GT(shallow, 0u);
}

TEST(Generators, ChurnTraceNestStampsAreConsistent) {
  GenParams p;
  p.accesses = 2'000;
  p.seed = 5;
  const Trace t = gen_churn(p, 0.2, /*threads=*/0, /*nest_depth=*/3);
  const NestForest& forest = nest_forest();
  std::size_t distinct_ctx = 0;
  std::uint32_t last_ctx = NestForest::kRoot;
  for (const auto& ev : t.events) {
    if (ev.is_free()) continue;
    ASSERT_NE(ev.ctx, NestForest::kRoot);
    EXPECT_EQ(forest.depth(ev.ctx), 3u);
    if (ev.ctx != last_ctx) {
      ++distinct_ctx;
      last_ctx = ev.ctx;
    }
  }
  // Sibling re-entry of the innermost loop creates fresh contexts mid-trace.
  EXPECT_GT(distinct_ctx, 1u);
}

TEST(Generators, MtTraceHasTimestampsAndThreads) {
  GenParams p;
  p.accesses = 1'000;
  const Trace t = gen_mt_producer_consumer(p, /*threads=*/4, /*shared=*/16);
  std::uint64_t prev_ts = 0;
  bool all_threads[4] = {};
  for (const auto& ev : t.events) {
    EXPECT_GT(ev.ts, prev_ts);
    prev_ts = ev.ts;
    ASSERT_LT(ev.tid, 4u);
    all_threads[ev.tid] = true;
  }
  for (bool seen : all_threads) EXPECT_TRUE(seen);
}

TEST(TraceRecorder, CapturesAndReplays) {
  GenParams p;
  p.accesses = 500;
  const Trace t = gen_uniform(p);
  TraceRecorder rec;
  replay(t, rec);
  ASSERT_EQ(rec.trace().size(), t.size());
  EXPECT_EQ(rec.trace().events[0].addr, t.events[0].addr);
}

TEST(TraceIo, RoundTrip) {
  GenParams p;
  p.accesses = 777;
  const Trace t = gen_zipf(p);
  const std::string path = "/tmp/depprof_trace_test.bin";
  ASSERT_TRUE(write_trace(t, path));
  Trace back;
  ASSERT_TRUE(read_trace(back, path));
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back.events[i].addr, t.events[i].addr);
    EXPECT_EQ(back.events[i].loc, t.events[i].loc);
    EXPECT_EQ(back.events[i].kind, t.events[i].kind);
  }
  std::remove(path.c_str());
}

TEST(TraceIo, NestContextsSurviveRoundTrip) {
  // Events stamped with interned nest contexts must come back with the same
  // nest *shape* (loop ids, depths, parent linkage, iterations) even
  // though the reader re-interns fresh forest ids.
  NestForest& forest = nest_forest();
  const std::uint32_t outer = forest.enter(NestForest::kRoot, 40, 0);
  const std::uint32_t in1 = forest.enter(outer, 41, 2);
  const std::uint32_t in2 = forest.enter(outer, 41, 3);  // sibling re-entry
  Trace t;
  AccessEvent ev;
  ev.kind = AccessKind::kWrite;
  ev.addr = 100;
  ev.ctx = in1;
  ev.iter = 5;
  t.events.push_back(ev);
  ev.kind = AccessKind::kRead;
  ev.addr = 100;
  ev.ctx = in2;
  ev.iter = 0;
  t.events.push_back(ev);
  ev.ctx = NestForest::kRoot;  // an event outside any loop
  t.events.push_back(ev);

  const std::string path = "/tmp/depprof_nest_trace_test.bin";
  ASSERT_TRUE(write_trace(t, path));
  Trace back;
  ASSERT_TRUE(read_trace(back, path));
  std::remove(path.c_str());
  ASSERT_EQ(back.size(), 3u);

  const AccessEvent& a = back.events[0];
  const AccessEvent& b = back.events[1];
  EXPECT_EQ(forest.loop(a.ctx), 41u);
  EXPECT_EQ(forest.depth(a.ctx), 2u);
  EXPECT_EQ(forest.loop(forest.parent(a.ctx)), 40u);
  EXPECT_EQ(forest.parent_iter(a.ctx), 2u);
  EXPECT_EQ(a.iter, 5u);
  EXPECT_EQ(forest.loop(b.ctx), 41u);
  EXPECT_EQ(forest.parent_iter(b.ctx), 3u);
  // The two sibling entries stay distinct but share the same parent entry.
  EXPECT_NE(a.ctx, b.ctx);
  EXPECT_EQ(forest.parent(a.ctx), forest.parent(b.ctx));
  EXPECT_EQ(back.events[2].ctx, NestForest::kRoot);
}

TEST(TraceIo, GeneratedNestTraceRoundTripsAttribution) {
  GenParams p;
  p.seed = 3;
  const Trace t = gen_nest(p, /*depth=*/3, /*width=*/3);
  const std::string path = "/tmp/depprof_nest_gen_trace_test.bin";
  ASSERT_TRUE(write_trace(t, path));
  Trace back;
  ASSERT_TRUE(read_trace(back, path));
  std::remove(path.c_str());
  ASSERT_EQ(back.size(), t.size());
  const NestForest& forest = nest_forest();
  for (std::size_t i = 0; i < t.size(); ++i) {
    // Re-interned ids may differ; the per-event nest chain must not.
    std::uint32_t orig = t.events[i].ctx;
    std::uint32_t got = back.events[i].ctx;
    ASSERT_EQ(forest.depth(got), forest.depth(orig));
    while (orig != NestForest::kRoot) {
      EXPECT_EQ(forest.loop(got), forest.loop(orig));
      EXPECT_EQ(forest.parent_iter(got), forest.parent_iter(orig));
      orig = forest.parent(orig);
      got = forest.parent(got);
    }
    EXPECT_EQ(got, NestForest::kRoot);
    EXPECT_EQ(back.events[i].iter, t.events[i].iter);
  }
}

constexpr char kTraceMagic[8] = {'D', 'E', 'P', 'T', 'R', 'C', '0', '4'};

TEST(TraceIo, RejectsMalformedNestTables) {
  const std::string path = "/tmp/depprof_bad_nest_trace_test.bin";
  const char (&magic)[8] = kTraceMagic;
  Trace out;

  // Node table claims more nodes than the file holds.
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(magic, 1, sizeof(magic), f);
    const std::uint64_t node_count = 1'000'000;
    std::fwrite(&node_count, 1, sizeof(node_count), f);
    std::fclose(f);
    EXPECT_FALSE(read_trace(out, path));
  }

  // A node whose parent is itself / a later node (forward reference).
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(magic, 1, sizeof(magic), f);
    const std::uint64_t node_count = 1;
    std::fwrite(&node_count, 1, sizeof(node_count), f);
    const std::uint32_t node[3] = {1, 7, 0};  // parent == own id
    std::fwrite(node, 1, sizeof(node), f);
    const std::uint64_t var_count = 0;
    std::fwrite(&var_count, 1, sizeof(var_count), f);
    const std::uint64_t count = 0;
    std::fwrite(&count, 1, sizeof(count), f);
    std::fclose(f);
    std::string error;
    EXPECT_FALSE(read_trace(out, path, &error));
    EXPECT_NE(error.find("names a later parent"), std::string::npos) << error;
  }

  // An event referencing a context id beyond the declared node table.
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(magic, 1, sizeof(magic), f);
    const std::uint64_t node_count = 1;
    std::fwrite(&node_count, 1, sizeof(node_count), f);
    const std::uint32_t node[3] = {0, 7, 0};
    std::fwrite(node, 1, sizeof(node), f);
    const std::uint64_t var_count = 0;
    std::fwrite(&var_count, 1, sizeof(var_count), f);
    const std::uint64_t count = 1;
    std::fwrite(&count, 1, sizeof(count), f);
    AccessEvent ev;
    ev.ctx = 2;  // only node 1 was declared
    std::fwrite(&ev, 1, sizeof(ev), f);
    std::fclose(f);
    std::string error;
    EXPECT_FALSE(read_trace(out, path, &error));
    EXPECT_NE(error.find("undeclared nest 2"), std::string::npos) << error;
  }
  std::remove(path.c_str());
}

TEST(TraceIo, VariableNamesSurviveRoundTrip) {
  // Variable ids are process-local: the file carries the names of the ids
  // its events use, and the reader re-interns them.
  const std::uint32_t a = var_registry().intern("trace_test_alpha");
  const std::uint32_t b = var_registry().intern("trace_test_beta");
  Trace t;
  for (const std::uint32_t var : {b, 0u, a, b}) {
    AccessEvent ev;
    ev.addr = 0x100 + t.events.size() * 8;
    ev.var = var;
    t.events.push_back(ev);
  }
  const std::string path = "/tmp/depprof_var_trace_test.bin";
  ASSERT_TRUE(write_trace(t, path));
  Trace back;
  std::string error;
  ASSERT_TRUE(read_trace(back, path, &error)) << error;
  std::remove(path.c_str());
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i)
    EXPECT_EQ(var_registry().name(back.events[i].var),
              var_registry().name(t.events[i].var))
        << "event " << i;
  EXPECT_EQ(back.events[1].var, 0u);  // the unnamed variable stays 0
}

TEST(TraceIo, RejectsMalformedVarTablesAndEvents) {
  const std::string path = "/tmp/depprof_bad_var_trace_test.bin";
  // Magic and an empty nest table, then `body`.
  const auto write_file = [&](const std::string& body) {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(kTraceMagic, 1, sizeof(kTraceMagic), f);
    const std::uint64_t node_count = 0;
    std::fwrite(&node_count, 1, sizeof(node_count), f);
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
  };
  const auto bytes = [](const auto& v) {
    return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  const auto rejects = [&](const std::string& body, const char* why) {
    write_file(body);
    Trace out;
    std::string error;
    EXPECT_FALSE(read_trace(out, path, &error)) << why;
    EXPECT_NE(error.find(why), std::string::npos) << error;
    EXPECT_TRUE(out.events.empty());
  };
  const std::string one_var =
      bytes(std::uint64_t{1}) + bytes(std::uint32_t{1}) + "x";

  // The table claims more names than the file holds.
  rejects(bytes(std::uint64_t{1'000'000}), "truncated var table");
  // A name longer than the rest of the file.
  rejects(bytes(std::uint64_t{1}) + bytes(std::uint32_t{1'000}) + "x",
          "truncated var table");
  // An event naming a var id beyond the declared table.
  AccessEvent ev;
  ev.var = 2;  // only var 1 was declared
  rejects(one_var + bytes(std::uint64_t{1}) + bytes(ev),
          "event 0 names undeclared var 2");
  // An event whose kind byte is none of the four kinds.
  ev.var = 1;
  ev.kind = static_cast<AccessKind>(9);
  rejects(one_var + bytes(std::uint64_t{1}) + bytes(ev),
          "event 0 has unknown kind 9");

  // The same file with a valid event reads, its var re-interned.
  ev.kind = AccessKind::kWrite;
  write_file(one_var + bytes(std::uint64_t{1}) + bytes(ev));
  Trace out;
  std::string error;
  ASSERT_TRUE(read_trace(out, path, &error)) << error;
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(var_registry().name(out.events[0].var), "x");
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsTheOlderFormats) {
  // A DEPTRC03 file has 64-byte events and no variable names, a DEPTRC02
  // nest table no parent iterations, and a DEPTRC01 file no table at all:
  // all are refused, not replayed with guessed counters.
  GenParams p;
  p.accesses = 64;
  const std::string path = "/tmp/depprof_old_trace_test.bin";
  ASSERT_TRUE(write_trace(gen_zipf(p), path));
  for (const char version : {'1', '2', '3'}) {
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 7, SEEK_SET);
    std::fputc(version, f);
    std::fclose(f);
    Trace out;
    std::string error;
    EXPECT_FALSE(read_trace(out, path, &error)) << version;
    EXPECT_NE(error.find("DEPTRC04"), std::string::npos) << error;
  }
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsMissingAndMalformedFiles) {
  Trace out;
  EXPECT_FALSE(read_trace(out, "/tmp/depprof_does_not_exist.bin"));
  const std::string path = "/tmp/depprof_garbage.bin";
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a trace", f);
  std::fclose(f);
  EXPECT_FALSE(read_trace(out, path));
  EXPECT_TRUE(out.events.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace depprof
