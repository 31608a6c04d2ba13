// Oracle property test: an independent brute-force reference implementation
// of pair-wise dependence detection (plain per-address last-reader /
// last-writer maps, written without any shared code with the detector) is
// compared against the full profiler stack on randomized traces.  This
// catches regressions in Algorithm 1, the merge logic, and the pipeline
// that tests reusing DepDetector cannot.

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/profiler.hpp"
#include "trace/generators.hpp"
#include "trace/trace.hpp"

namespace depprof {
namespace {

struct OracleAccess {
  bool valid = false;
  std::uint32_t loc = 0;
  std::uint16_t tid = 0;
};

/// Brute-force reference: exact per-address last read / last write,
/// replicating the published algorithm's semantics directly from the paper
/// text (INIT on first write; WAW/WAR on writes; RAW on reads; RAR ignored;
/// lifetime events clear the address).
DepMap oracle(const Trace& trace) {
  std::unordered_map<std::uint64_t, OracleAccess> last_read, last_write;
  DepMap deps;
  for (const AccessEvent& ev : trace.events) {
    const std::uint64_t unit = word_addr(ev.addr);
    if (ev.is_free()) {
      last_read.erase(unit);
      last_write.erase(unit);
      continue;
    }
    DepKey k;
    k.sink_loc = ev.loc;
    k.var = ev.var;
    k.sink_tid = ev.tid;
    if (ev.is_write()) {
      auto w = last_write.find(unit);
      if (w != last_write.end()) {
        k.type = DepType::kWaw;
        k.src_loc = w->second.loc;
        k.src_tid = w->second.tid;
        deps.add(k, 0);
      } else {
        k.type = DepType::kInit;
        k.src_loc = 0;
        k.src_tid = 0;
        deps.add(k, 0);
      }
      auto r = last_read.find(unit);
      if (r != last_read.end()) {
        k.type = DepType::kWar;
        k.src_loc = r->second.loc;
        k.src_tid = r->second.tid;
        deps.add(k, 0);
      }
      last_write[unit] = {true, ev.loc, ev.tid};
    } else {
      auto w = last_write.find(unit);
      if (w != last_write.end()) {
        k.type = DepType::kRaw;
        k.src_loc = w->second.loc;
        k.src_tid = w->second.tid;
        deps.add(k, 0);
      }
      last_read[unit] = {true, ev.loc, ev.tid};
    }
  }
  return deps;
}

/// Random trace with reads, writes, and occasional lifetime events over a
/// small, heavily reused address pool — maximal dependence churn.
Trace random_trace(std::uint64_t seed, std::size_t events,
                   std::size_t addresses, bool mt) {
  Rng rng(seed);
  Trace t;
  t.events.reserve(events);
  std::uint64_t ts = 1;
  for (std::size_t i = 0; i < events; ++i) {
    AccessEvent ev;
    ev.addr = 0x2000 + rng.below(addresses) * 4;
    const double roll = rng.uniform();
    ev.kind = roll < 0.05   ? AccessKind::kFree
              : roll < 0.45 ? AccessKind::kWrite
                            : AccessKind::kRead;
    ev.loc = SourceLocation(1, 10 + static_cast<std::uint32_t>(rng.below(40)))
                 .packed();
    ev.var = static_cast<std::uint32_t>(rng.below(5));
    if (mt) {
      ev.tid = static_cast<std::uint16_t>(rng.below(4));
      ev.ts = ts++;
    }
    t.events.push_back(ev);
  }
  return t;
}

bool equal_sets(const DepMap& a, const DepMap& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [key, info] : a) {
    const DepInfo* other = b.find(key);
    if (other == nullptr || other->count != info.count) return false;
  }
  return true;
}

class OracleSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleSweep, SerialExactMatchesOracle) {
  const Trace t = random_trace(GetParam(), 20'000, 256, false);
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPacked;
  auto prof = make_serial_profiler(cfg);
  replay(t, *prof);
  EXPECT_TRUE(equal_sets(oracle(t), prof->dependences()));
}

TEST_P(OracleSweep, SerialLargeSignatureMatchesOracle) {
  // With more slots than addresses (and modulo indexing over a compact
  // range) there are no collisions: the signature must be exact.
  const Trace t = random_trace(GetParam() ^ 0xABCD, 20'000, 256, false);
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kSignature;
  cfg.slots = 1u << 16;
  auto prof = make_serial_profiler(cfg);
  replay(t, *prof);
  EXPECT_TRUE(equal_sets(oracle(t), prof->dependences()));
}

TEST_P(OracleSweep, ParallelPipelineMatchesOracle) {
  const Trace t = random_trace(GetParam() ^ 0x1234, 20'000, 256, false);
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPacked;
  cfg.workers = 4;
  cfg.chunk_size = 32;
  auto prof = make_parallel_profiler(cfg);
  replay(t, *prof);
  EXPECT_TRUE(equal_sets(oracle(t), prof->dependences()));
}

TEST_P(OracleSweep, MtEventsMatchOracleIncludingThreadIds) {
  // Single-producer replay of an MT-tagged trace: arrival order equals
  // program order, so thread-id-qualified dependences must match exactly.
  const Trace t = random_trace(GetParam() ^ 0x77, 20'000, 256, true);
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPacked;
  cfg.mt_targets = true;
  auto prof = make_serial_profiler(cfg);
  replay(t, *prof);
  EXPECT_TRUE(equal_sets(oracle(t), prof->dependences()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 42u));

}  // namespace
}  // namespace depprof
