// frontend — front-end event reduction A/B: the per-thread access-dedup
// cache (--dedup) against the raw front end (dedup off).
//
// The primary stream is the regime the reduction targets (Sec. VI's
// observation that dependence instances repeat ~1e5 times per static
// dependence): a loop-heavy byte-granularity kernel whose iterations carry
// exact intra-iteration repeats — byte scans over word-granular shadow
// state (4 identical word events per word) and re-reads of a loop-invariant
// scalar from one source line.  A uniform-random stream with per-event
// random locations and alternating kinds is the disclosed adversarial
// secondary: no access identity ever repeats inside an iteration, so the
// dedup cache can only miss.
//
// Every configuration runs the identical target program through the real
// instrumentation runtime (dedup lives in Runtime::record), and every
// resulting map is cross-checked byte-identical with oracle::diff_deps
// against the same profiler's raw (base) run before any number is
// reported — the reduction must be invisible in the output.
// The reference is per profiler because the signature backend's aliasing
// differs between one shared serial signature and per-worker signatures;
// that approximation gap predates this bench and is not what it measures.
//
// Metrics per (stream, profiler, config):
//   eps               end-to-end accesses/sec (attach..detach wall time)
//   bytes_per_access  produce-stage bytes_on_wire / logical accesses —
//                     the stage-boundary traffic: 64 on the pipeline, whose
//                     chunks carry every access as a raw event; the serial
//                     profiler counts one event per RLE record, so dedup
//                     lowers it there
//   dedup_ratio       logical accesses per surviving RLE record
//
// Usage: frontend [--iters N] [--uniform N] [--reps R] [--workers W]
//                 [--slots N] [--smoke]
//   --smoke   small stream + deterministic gates: maps identical across the
//             lattice, a >=2x dedup ratio on the loop stream, and a generous
//             catastrophic floor on the dedup/base timing ratio; used as a
//             tier-1 ctest.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/profiler.hpp"
#include "harness/runner.hpp"
#include "instrument/runtime.hpp"
#include "obs/bench_report.hpp"
#include "oracle/diff.hpp"

using namespace depprof;

namespace {

/// Carried-dependence ring in the loop kernel (write acc[i%R], read the
/// previous slot) — keeps the stream a real dependence workload, not just
/// cache filler.
constexpr std::size_t kRing = 64;
/// Bytes per scan per iteration.  16-byte scans start 16-aligned, so each
/// scan is exactly four word-granular runs of four identical events.
constexpr std::size_t kScanBytes = 16;
/// Logical accesses per loop-kernel iteration: two 16-byte scans, four
/// re-reads of the invariant scalar, and the ring read+write.
constexpr std::size_t kAccessesPerIter = 2 * kScanBytes + 4 + 2;

/// Loop-heavy kernel, driven through the live runtime.  Iteration i:
///   line 101: read  src[i*16 .. +16] byte-wise   (4 words x 4 repeats)
///   line 102: read  coef four times              (1 word  x 4 repeats)
///   line 103: write dst[i*16 .. +16] byte-wise   (4 words x 4 repeats)
///   line 104: read  acc[(i+R-1)%R]               (RAW, distance kRing)
///   line 105: write acc[i%R]                     (WAW, distance kRing)
/// 38 accesses, 11 surviving records per iteration (~3.45x dedup); the
/// loop_iter() boundary flushes the cache so no repeat crosses iterations.
std::uint64_t run_loop_kernel(Runtime& rt, std::size_t iters,
                              const unsigned char* src, unsigned char* dst,
                              std::size_t buf_bytes, const float* coef,
                              float* acc) {
  rt.loop_begin(1, 100);
  for (std::size_t i = 0; i < iters; ++i) {
    rt.loop_iter();
    const std::size_t base = (i * kScanBytes) % buf_bytes;
    for (std::size_t b = 0; b < kScanBytes; ++b)
      rt.record(src + base + b, 1, 1, 101, 1, /*is_write=*/false);
    for (int r = 0; r < 4; ++r)
      rt.record(coef, 4, 1, 102, 2, /*is_write=*/false);
    for (std::size_t b = 0; b < kScanBytes; ++b)
      rt.record(dst + base + b, 1, 1, 103, 3, /*is_write=*/true);
    rt.record(acc + (i + kRing - 1) % kRing, 4, 1, 104, 4, /*is_write=*/false);
    rt.record(acc + i % kRing, 4, 1, 105, 4, /*is_write=*/true);
  }
  rt.loop_end(1, 100);
  return static_cast<std::uint64_t>(iters) * kAccessesPerIter;
}

/// Adversarial kernel: every access hits a mixed-hash word of a large table
/// with a per-event pseudo-random location and alternating kind, 16 accesses
/// per loop iteration.  Identities never repeat within an iteration, so the
/// dedup cache is pure overhead here.
std::uint64_t run_uniform_kernel(Runtime& rt, std::size_t accesses,
                                 unsigned char* table,
                                 std::size_t table_words) {
  rt.loop_begin(1, 200);
  for (std::size_t i = 0; i < accesses; ++i) {
    if (i % 16 == 0) rt.loop_iter();
    const std::uint64_t r = mix64(0x9e3779b97f4a7c15ull + i);
    rt.record(table + (r % table_words) * 4, 4, 1,
              201 + static_cast<std::uint32_t>((r >> 40) % 61), 1,
              /*is_write=*/(r >> 32) % 2 == 0);
  }
  rt.loop_end(1, 200);
  return accesses;
}

using Kernel = std::function<std::uint64_t(Runtime&)>;

struct RunResult {
  double best_eps = 0;            ///< accesses/sec, attach..detach, best-of-reps
  double bytes_per_access = 64;   ///< produce bytes_on_wire / logical accesses
  double dedup_ratio = 1;         ///< logical accesses per surviving record
  DepMap deps;
  obs::PipelineSnapshot stages;
};

/// One timed run of `kernel` through the live runtime into a freshly built
/// profiler.  The timer covers attach..detach, so the parallel numbers
/// include the full pipeline drain, and the reduction's record-side savings
/// land on the producer's critical path exactly as they would in a target.
void one_rep(const ProfilerConfig& cfg, bool parallel, const Kernel& kernel,
             bool last, RunResult& result) {
  Runtime& rt = Runtime::instance();
  rt.reset();
  auto profiler =
      parallel ? make_parallel_profiler(cfg) : make_serial_profiler(cfg);
  WallTimer t;
  attach_runtime(*profiler, cfg);
  const std::uint64_t accesses = kernel(rt);
  rt.detach();
  const double eps = static_cast<double>(accesses) / t.elapsed();
  if (eps > result.best_eps) result.best_eps = eps;
  if (last) {
    obs::PipelineSnapshot snap = profiler->stats().stages;
    if (const obs::StageSnapshot* p = snap.find("produce")) {
      if (p->events > 0)
        result.bytes_per_access =
            static_cast<double>(p->bytes_on_wire) / static_cast<double>(p->events);
      const std::uint64_t records = p->events - p->events_deduped;
      if (records > 0)
        result.dedup_ratio =
            static_cast<double>(p->events) / static_cast<double>(records);
    }
    result.stages = std::move(snap);
    result.deps = profiler->take_dependences();
  }
}

struct FrontEnd {
  bool dedup;
  const char* name;
};

constexpr FrontEnd kLattice[] = {{false, "base"}, {true, "dedup"}};
constexpr std::size_t kConfigs = std::size(kLattice);

}  // namespace

int main(int argc, char** argv) {
  std::size_t iters = 200'000;       // x38 = 7.6M accesses on the loop stream
  std::size_t uniform = 2'000'000;
  std::size_t slots = std::size_t{1} << 18;
  unsigned workers = 4;
  int reps = 3;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--iters" && i + 1 < argc)
      iters = static_cast<std::size_t>(std::atoll(argv[++i]));
    else if (arg == "--uniform" && i + 1 < argc)
      uniform = static_cast<std::size_t>(std::atoll(argv[++i]));
    else if (arg == "--slots" && i + 1 < argc)
      slots = static_cast<std::size_t>(std::atoll(argv[++i]));
    else if (arg == "--workers" && i + 1 < argc)
      workers = static_cast<unsigned>(std::atoi(argv[++i]));
    else if (arg == "--reps" && i + 1 < argc)
      reps = std::atoi(argv[++i]);
    else if (arg == "--smoke")
      smoke = true;
  }
  if (smoke) {
    iters = 8'000;
    uniform = 100'000;
    slots = std::size_t{1} << 16;
    reps = 2;
  }

  // Target-program state.  The scan buffers wrap, so late iterations revisit
  // early words — extra carried dependences, identical in every config.  All
  // of it is carved from one arena, as a program's loop working set lives in
  // one allocation region.
  const std::size_t buf_bytes = std::min<std::size_t>(
      std::size_t{1} << 22, ((iters * kScanBytes + 15) / 16) * 16);
  std::vector<unsigned char> arena(2 * buf_bytes + (1 + kRing) * sizeof(float));
  unsigned char* const src = arena.data();
  unsigned char* const dst = arena.data() + buf_bytes;
  float* const coef = reinterpret_cast<float*>(arena.data() + 2 * buf_bytes);
  float* const acc = coef + 1;
  const std::size_t table_words = std::size_t{1} << 20;
  std::vector<unsigned char> table(table_words * 4);

  const Kernel loop_kernel = [&](Runtime& rt) {
    return run_loop_kernel(rt, iters, src, dst, buf_bytes, coef, acc);
  };
  const Kernel uniform_kernel = [&](Runtime& rt) {
    return run_uniform_kernel(rt, uniform, table.data(), table_words);
  };

  TextTable table_out(
      "Front-end event reduction — dedup A/B, end-to-end accesses/sec "
      "(" + std::to_string(iters * kAccessesPerIter) + " loop accesses, " +
      std::to_string(workers) + " workers)");
  table_out.set_header(
      {"stream/profiler", "config", "acc/s", "B/access", "dedup x"});
  obs::BenchReport report("frontend");
  report.metric("loop_accesses", static_cast<double>(iters * kAccessesPerIter));
  report.metric("uniform_accesses", static_cast<double>(uniform));
  report.metric("workers", static_cast<double>(workers));

  bool ok = true;
  struct StreamSpec {
    const char* name;
    const Kernel* kernel;
  };
  const StreamSpec streams[] = {{"loop", &loop_kernel},
                                {"uniform", &uniform_kernel}};

  for (const StreamSpec& stream : streams) {
    ProfilerConfig cfg;
    cfg.slots = slots;
    cfg.workers = workers;

    for (bool parallel : {false, true}) {
      RunResult results[kConfigs];
      // Interleave the lattice rep by rep so host drift hits every config.
      for (int rep = 0; rep < reps; ++rep) {
        for (std::size_t c = 0; c < kConfigs; ++c) {
          cfg.dedup = kLattice[c].dedup;
          one_rep(cfg, parallel, *stream.kernel, rep == reps - 1, results[c]);
        }
      }
      const char* mode = parallel ? "parallel" : "serial";
      // The raw run of the same profiler is the identity reference.
      const RunResult& reference = results[0];
      for (std::size_t c = 0; c < kConfigs; ++c) {
        const RunResult& r = results[c];
        const DepDiff diff = diff_deps(reference.deps, r.deps);
        if (!diff.identical()) {
          std::fprintf(stderr, "FAIL: %s/%s/%s: map diverges from the same "
                       "profiler's raw run:\n%s",
                       stream.name, mode, kLattice[c].name,
                       format_diff(diff, "reference", "reduced").c_str());
          ok = false;
          continue;
        }
        table_out.add_row({std::string(stream.name) + "/" + mode,
                           kLattice[c].name, TextTable::num(r.best_eps),
                           TextTable::num(r.bytes_per_access),
                           TextTable::num(r.dedup_ratio)});
        const std::string key =
            std::string(stream.name) + "_" + mode + "_" + kLattice[c].name;
        report.metric(key + "_eps", r.best_eps);
        report.metric(key + "_bytes_per_access", r.bytes_per_access);
        report.metric(key + "_dedup_ratio", r.dedup_ratio);
      }
      const double speedup = results[1].best_eps / results[0].best_eps;
      const std::string prefix = std::string(stream.name) + "_" + mode;
      report.metric(prefix + "_e2e_speedup", speedup);
      if (parallel) {
        report.stages(prefix + "/base", results[0].stages);
        report.stages(prefix + "/dedup", results[1].stages);
      }

      // Deterministic smoke gates — counter-based, immune to host noise.
      if (std::strcmp(stream.name, "loop") == 0 && parallel) {
        if (results[1].dedup_ratio < 2.0) {
          std::fprintf(stderr, "FAIL: loop/parallel/dedup: dedup ratio %.2f "
                       "(the stream repeats ~3.45x)\n",
                       results[1].dedup_ratio);
          ok = false;
        }
        // Catastrophic timing floor only: single-core CI is too noisy for a
        // speedup gate; the committed full-size run carries that claim.
        if (smoke && speedup < 0.5) {
          std::fprintf(stderr, "FAIL: loop/parallel: dedup %.2fx the raw "
                       "front end (below the 0.5 noise floor)\n", speedup);
          ok = false;
        }
      }
    }
  }

  std::ostringstream os;
  table_out.print(os);
  std::fputs(os.str().c_str(), stdout);
  std::printf("\nCSV:\n%s", table_out.csv().c_str());
  report.write();
  return ok ? 0 : 1;
}
