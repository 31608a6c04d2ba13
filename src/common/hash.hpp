#pragma once
// Address hash functions.
//
// The signature (Sec. III-B) uses a single hash function mapping memory
// addresses to slot indices — one function rather than the k functions of a
// Bloom filter, so that elements can be *removed* for variable-lifetime
// analysis.  These mixers are also used for worker assignment (Sec. IV-A).

#include <cstdint>

namespace depprof {

/// SplitMix64 finalizer: a strong 64-bit mixer (Stafford variant 13).
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58'476D'1CE4'E5B9ull;
  x ^= x >> 27;
  x *= 0x94D0'49BB'1331'11EBull;
  x ^= x >> 31;
  return x;
}

/// Canonical address unit: profiling is word-granular (4 bytes), matching
/// the paper's per-IR-load/store instrumentation.  Events carry byte
/// addresses end to end; the consumers canonicalize where they look an
/// address up — the router for ownership and load statistics, the detect
/// kernel once per record — and every store, mailbox and tag operates on
/// units.
constexpr std::uint64_t word_addr(std::uint64_t byte_addr) {
  return byte_addr >> 2;
}

/// Hash of a canonical address unit for signature indexing.
constexpr std::uint64_t hash_address(std::uint64_t unit) { return mix64(unit); }

/// The paper distributes addresses to workers with a plain modulo
/// (formula 1: worker = addr % W).  Exposed verbatim for the load-balance
/// ablation; the pipeline defaults to the mixed variant below.
constexpr std::uint32_t modulo_worker(std::uint64_t unit, std::uint32_t workers) {
  return static_cast<std::uint32_t>(unit % workers);
}

/// Mixed worker assignment: modulo after mixing, robust to strided layouts.
constexpr std::uint32_t hashed_worker(std::uint64_t unit, std::uint32_t workers) {
  return static_cast<std::uint32_t>(mix64(unit) % workers);
}

}  // namespace depprof
