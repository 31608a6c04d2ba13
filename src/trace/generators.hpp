#pragma once
// Synthetic access-trace generators.
//
// The evaluation quantities of the paper (FPR/FNR, queue throughput, worker
// imbalance) are functions of the address-stream statistics: number of
// distinct addresses, access count, read/write mix, stride, and skew.  These
// generators produce streams with controlled statistics for the formula-2
// validation, the storage and queue ablations, and property tests.

#include <cstdint>

#include "trace/trace.hpp"

namespace depprof {

/// Parameters shared by the generators.
struct GenParams {
  std::size_t accesses = 100'000;      ///< events to generate
  std::size_t distinct = 10'000;       ///< distinct addresses (n of formula 2)
  double write_ratio = 0.3;            ///< fraction of writes
  std::uint64_t base_addr = 0x10'0000; ///< first address
  std::uint64_t stride = 8;            ///< address spacing
  std::uint64_t seed = 42;             ///< PRNG seed
};

/// Uniform random accesses over `distinct` addresses.
Trace gen_uniform(const GenParams& p);

/// Strided sweep: repeated linear passes over the address range — the
/// stride-dominated pattern SD3 compresses; stresses the modulo distribution.
Trace gen_strided(const GenParams& p);

/// Zipf-skewed accesses: a few addresses absorb most of the traffic — the
/// "some addresses may be accessed millions of times" case motivating the
/// Sec. IV-A load balancer.  `s` is the Zipf exponent.
Trace gen_zipf(const GenParams& p, double s = 1.2);

/// Loop-structured trace: `iters` iterations over an array with an optional
/// loop-carried RAW (element i reads element i-1's value written in the
/// previous iteration).  Ground truth for loop-parallelism tests.  The loop
/// is one dynamic entry interned into the process nest forest.
Trace gen_loop(const GenParams& p, std::size_t iters, bool carried,
               std::uint32_t loop_id = 1);

/// Nested-loop trace: an imperfect nest `depth` levels deep (body accesses
/// surround the child loop at every level), `width` iterations per level.
/// Each level carries a distance-1 RAW on its accumulator, each iteration a
/// distance-0 pair plus a recurring distance >= 2 WAW; some inner entries
/// execute zero iterations, every child entry is a sibling re-entry, and
/// two top-level nests make cross-loop pairs.  `depth` beyond DepInfo's
/// kNestLevels rows exercises the fold of deep levels into the last row.
Trace gen_nest(const GenParams& p, std::uint32_t depth = 3,
               std::size_t width = 4);

/// Multi-threaded interleaving: `threads` round-robin producers each with a
/// private range plus a shared region with cross-thread RAW (producer ->
/// consumer) dependences.  Timestamps increase in interleaving order.
Trace gen_mt_producer_consumer(const GenParams& p, unsigned threads,
                               std::size_t shared_addrs);

/// Lifetime-churn trace: uniform reads/writes over a small, heavily reused
/// address pool with a `free_ratio` fraction of kFree events — the
/// allocate/free/reallocate pattern that exercises the variable-lifetime
/// removal path (Sec. III-B) and, with `threads` > 0, a round-robin MT
/// interleaving of it (lock-region flagged, increasing timestamps).  Freed
/// words re-enter circulation immediately, so a store that fails to clear
/// them fabricates dependences.  With `nest_depth` > 0 the whole stream
/// runs inside a loop nest that depth deep whose innermost loop iterates
/// and is re-entered periodically, mixing lifetime churn with nest-context
/// changes.
Trace gen_churn(const GenParams& p, double free_ratio, unsigned threads = 0,
                std::size_t nest_depth = 0);

}  // namespace depprof
