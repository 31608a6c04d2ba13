// Storage ablation (Sec. III-B):
//   * time — "the hash table approach is about 1.5-3.7x slower than our
//     approach": identical access streams through Algorithm 1 backed by the
//     fixed-size signature, the chained hash table and the packed paged
//     shadow store; google-benchmark measures ns/access.
//   * space — shadow memory's blow-up on sparse, widely spread address sets
//     (one packed leaf page per address) vs the signature's fixed
//     footprint.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/timer.hpp"
#include "core/detector.hpp"
#include "core/profiler.hpp"
#include "obs/bench_report.hpp"
#include "sig/hash_table_recorder.hpp"
#include "sig/packed_shadow_store.hpp"
#include "sig/signature.hpp"
#include "trace/generators.hpp"
#include "trace/trace.hpp"

using namespace depprof;

namespace {

Trace shared_trace() {
  GenParams p;
  p.accesses = 200'000;
  p.distinct = 40'000;
  p.write_ratio = 0.35;
  return gen_uniform(p);
}

/// One pass of the trace through the detector in 1024-event slices, a full
/// pipeline chunk (the serial profiler hands its detect stage each
/// delivered buffer, 256 records under live instrumentation).  The trace
/// carries byte addresses and no runs, as a dedup-off front end delivers.
template <typename Store>
void detect_all(DetectorCore<Store>& det, const Trace& t, DepMap& deps) {
  constexpr std::size_t kSlice = 1024;
  for (std::size_t i = 0; i < t.events.size(); i += kSlice)
    det.process(t.events.data() + i, nullptr,
                std::min(kSlice, t.events.size() - i), deps);
}

/// Steady-state per-access cost: structures are built and warmed once (the
/// paper's comparison concerns the instrumentation fast path over billions
/// of accesses, not one-time construction).
template <typename Store>
void run_detector(benchmark::State& state, Store make_read(), Store make_write()) {
  const Trace t = shared_trace();
  DetectorCore<Store> det(make_read(), make_write());
  DepMap deps;
  detect_all(det, t, deps);  // warm-up pass
  for (auto _ : state) {
    detect_all(det, t, deps);
    benchmark::DoNotOptimize(deps.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.events.size()));
}

void BM_Signature(benchmark::State& state) {
  run_detector<Signature<SeqSlot>>(
      state, +[] { return Signature<SeqSlot>(1u << 18); },
      +[] { return Signature<SeqSlot>(1u << 18); });
}
BENCHMARK(BM_Signature);

void BM_HashTable(benchmark::State& state) {
  run_detector<HashTableRecorder<SeqSlot>>(
      state, +[] { return HashTableRecorder<SeqSlot>(1u << 14); },
      +[] { return HashTableRecorder<SeqSlot>(1u << 14); });
}
BENCHMARK(BM_HashTable);

void BM_PackedShadowStore(benchmark::State& state) {
  run_detector<PackedShadowStore<SeqSlot>>(
      state, +[] { return PackedShadowStore<SeqSlot>(); },
      +[] { return PackedShadowStore<SeqSlot>(); });
}
BENCHMARK(BM_PackedShadowStore);

/// Space comparison on a sparse, widely spread address set: the shadow
/// memory allocates a page per touched region while the signature stays
/// fixed.
void space_comparison() {
  // One packed leaf page covers 2^18 word units (1 MiB of target memory);
  // with addresses one leaf apart, every address costs a full 2 MiB leaf
  // (2^18 words for 1 resident) while the signature stays at its fixed
  // footprint.  256 addresses already cost the shadow memory 0.5 GiB — the
  // Sec. III-B ">16 GB on small programs" effect, scaled to stay
  // allocatable here.
  using Packed = PackedShadowStore<SeqSlot>;
  constexpr std::size_t kAddrs = 256;
  constexpr std::uint64_t kSpread = Packed::kPageWords;  // word units

  Signature<SeqSlot> sig(1u << 18);
  HashTableRecorder<SeqSlot> table(1u << 14);
  Packed packed;
  SeqSlot s;
  s.loc = SourceLocation(1, 1).packed();
  for (std::size_t i = 0; i < kAddrs; ++i) {
    const std::uint64_t addr = 0x10000 + i * kSpread;
    sig.insert(addr, s);
    table.insert(addr, s);
    packed.insert(addr, s);
  }
  std::printf("\nSpace on %zu sparse addresses (spread %llu words apart):\n",
              kAddrs, static_cast<unsigned long long>(kSpread));
  std::printf("  signature     : %10.2f MiB (fixed)\n",
              static_cast<double>(sig.bytes()) / 1048576.0);
  std::printf("  packed shadow : %10.2f MiB (%zu x 2 MiB leaf pages; 8 B/word "
              "amortizes only on dense sets), %.0fx the signature\n",
              static_cast<double>(packed.bytes()) / 1048576.0,
              packed.page_count(),
              static_cast<double>(packed.bytes()) /
                  static_cast<double>(sig.bytes()));
  std::printf("  hash table    : %10.2f MiB\n",
              static_cast<double>(table.bytes()) / 1048576.0);
  std::printf(
      "\nPaper reference: signatures bound memory where shadow memory can "
      "exceed 16 GB on small programs; hash tables are exact but 1.5-3.7x "
      "slower per access.\n");
}

/// Steady-state ns/access with the same warm-up discipline as run_detector,
/// measured directly so the ratio lands in the machine-readable report
/// (google-benchmark keeps its own output format).
template <typename Store>
double measured_ns_per_access(const Trace& t, Store read, Store write) {
  DetectorCore<Store> det(std::move(read), std::move(write));
  DepMap deps;
  detect_all(det, t, deps);  // warm-up pass
  constexpr int kReps = 3;
  const std::uint64_t t0 = WallTimer::now();
  for (int r = 0; r < kReps; ++r) detect_all(det, t, deps);
  const std::uint64_t t1 = WallTimer::now();
  benchmark::DoNotOptimize(deps.size());
  return static_cast<double>(t1 - t0) /
         (static_cast<double>(kReps) * static_cast<double>(t.events.size()));
}

obs::PipelineSnapshot replay_stages(const Trace& t, StorageKind storage) {
  ProfilerConfig cfg;
  cfg.storage = storage;
  cfg.slots = 1u << 18;
  auto prof = make_serial_profiler(cfg);
  replay(t, *prof);
  return prof->stats().stages;
}

void machine_report() {
  obs::BenchReport report("ablation_storage");
  const Trace t = shared_trace();

  const double sig_ns = measured_ns_per_access<Signature<SeqSlot>>(
      t, Signature<SeqSlot>(1u << 18), Signature<SeqSlot>(1u << 18));
  const double table_ns = measured_ns_per_access<HashTableRecorder<SeqSlot>>(
      t, HashTableRecorder<SeqSlot>(1u << 14), HashTableRecorder<SeqSlot>(1u << 14));
  const double packed_ns = measured_ns_per_access<PackedShadowStore<SeqSlot>>(
      t, PackedShadowStore<SeqSlot>(), PackedShadowStore<SeqSlot>());

  report.metric("signature_ns_per_access", sig_ns);
  report.metric("hashtable_ns_per_access", table_ns);
  report.metric("packed_ns_per_access", packed_ns);
  report.metric("hashtable_over_signature", sig_ns > 0 ? table_ns / sig_ns : 0);
  report.metric("hashtable_over_packed", packed_ns > 0 ? table_ns / packed_ns : 0);
  std::printf("\nSteady-state hash-table/signature per-access ratio: %.2fx "
              "(paper band 1.5-3.7x)\n",
              sig_ns > 0 ? table_ns / sig_ns : 0.0);

  report.stages("serial_signature", replay_stages(t, StorageKind::kSignature));
  report.stages("serial_hashtable", replay_stages(t, StorageKind::kHashTable));
  report.stages("serial_packed", replay_stages(t, StorageKind::kPacked));
  report.write();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  space_comparison();
  machine_report();
  return 0;
}
