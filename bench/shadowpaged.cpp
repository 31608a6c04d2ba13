// shadowpaged — exact-store working-set sweep (SLAMP-style paged shadow
// memory vs the chained hash table).
//
// The packed store's claim is about *scale*: at small working sets both
// exact backends fit in cache and they tie, but past the LLC the hash
// table pays a bucket probe plus a chain-node miss per access and an
// allocation per cold address, while the packed page table pays one 8-byte
// word on a huge-page-backed leaf (TLB-resident, prefetchable).  This
// bench sweeps the touched-word working set from 1M to 256M words and
// reports detect-stage throughput per backend per point, plus the packed
// store's resident-page footprint (memory proportional to touched pages,
// not address range).
//
// The stream is one profiling pass: each word of the working set is
// written once and read once (a distance-1 RAW chain), generated on the
// fly in chunks so the 256M-word point does not materialize a half-billion
// event trace.  The pass runs inside one loop whose iteration advances
// every 8 words, so every store records a fresh nest snapshot per
// iteration, as on a real loop stream.  Cold-path costs (node allocation,
// page zeroing, snapshot minting) are part of the measurement on purpose —
// a profiler sees every access exactly once.
//
// Usage: shadowpaged [--reps R] [--max-words N] [--smoke]
//   --smoke   two small working-set points with byte-identity against the
//             hash-table reference and a deterministic
//             resident-page proportionality check (exit 1 on violation);
//             used as a tier-1 ctest.

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/mem_stats.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/profiler.hpp"
#include "obs/bench_report.hpp"
#include "oracle/diff.hpp"
#include "sig/packed_shadow_store.hpp"
#include "trace/event.hpp"
#include "trace/nest.hpp"

using namespace depprof;

namespace {

/// First touched word unit — off page-boundary so the sweep also exercises
/// pages entered mid-way.
constexpr std::uint64_t kBaseWord = (std::uint64_t{1} << 20) + 12345;

struct SweepRun {
  double best_eps = 0;          ///< detect-stage events/sec, best of reps
  std::uint64_t resident_pages = 0;  ///< paged backends: leaf pages at finish
  std::int64_t store_bytes = 0;      ///< MemStats kStore while profiler alive
  DepMap deps;
};

/// Words per loop iteration of the generated pass.
constexpr std::uint64_t kWordsPerIter = 8;

/// Feeds the 2W-event pass (write w[i]; read w[i-1]) in generated chunks,
/// inside one loop entry whose iteration is i / kWordsPerIter.
void feed(IProfiler& prof, std::uint64_t words) {
  constexpr std::size_t kChunk = 4096;
  std::vector<AccessEvent> buf(kChunk);
  std::size_t fill = 0;
  const std::uint32_t ctx = nest_forest().enter(NestForest::kRoot, 3, 0);
  for (std::uint64_t i = 0; i < words; ++i) {
    const auto iter = static_cast<std::uint32_t>(i / kWordsPerIter);
    AccessEvent& w = buf[fill++];
    w = AccessEvent{};
    w.addr = (kBaseWord + i) * 4;
    w.kind = AccessKind::kWrite;
    w.loc = 1;
    w.var = 1;
    w.ctx = ctx;
    w.iter = iter;
    AccessEvent& r = buf[fill++];
    r = AccessEvent{};
    r.addr = (kBaseWord + (i > 0 ? i - 1 : 0)) * 4;
    r.kind = AccessKind::kRead;
    r.loc = 2;
    r.var = 1;
    r.ctx = ctx;
    r.iter = iter;
    if (fill == kChunk) {
      prof.on_batch(buf.data(), fill);
      fill = 0;
    }
  }
  if (fill > 0) prof.on_batch(buf.data(), fill);
}

bool measure(StorageKind storage, std::uint64_t words, int reps,
             SweepRun& out) {
  for (int rep = 0; rep < reps; ++rep) {
    ProfilerConfig cfg;
    cfg.storage = storage;
    cfg.slots = std::size_t{1} << 18;  // signature-family sizing; exact
                                       // backends grow with content
    // For the chained hash table `slots` is the *bucket* count: size it to
    // the working set (load factor ~1, the stand-in for a growing map).  A
    // fixed 2^18-bucket table at 64M+ entries would measure O(chain) walks,
    // not the store — the packed claim is against a well-sized table.
    if (storage == StorageKind::kHashTable)
      cfg.slots = static_cast<std::size_t>(std::bit_ceil(words));
    auto prof = make_serial_profiler(cfg);
    if (prof == nullptr) return false;
    feed(*prof, words);
    prof->finish();
    out.store_bytes = MemStats::instance().bytes(MemComponent::kStore);
    const obs::PipelineSnapshot snap = prof->stats().stages;
    double detect_sec = 0;
    out.resident_pages = 0;
    for (const auto& s : snap.stages)
      if (s.stage.rfind("detect", 0) == 0) {
        detect_sec += s.busy_sec();
        out.resident_pages += s.resident_pages;
      }
    const double eps =
        detect_sec > 0 ? static_cast<double>(2 * words) / detect_sec : 0;
    if (eps > out.best_eps) out.best_eps = eps;
    if (rep == reps - 1) out.deps = prof->take_dependences();
  }
  return true;
}

std::string point_name(std::uint64_t words) {
  if (words % (std::uint64_t{1} << 20) == 0)
    return std::to_string(words >> 20) + "Mw";
  return std::to_string(words >> 10) + "Kw";
}

/// Leaf pages one PackedShadowStore touches covering [kBaseWord, +words).
std::uint64_t expected_pages(std::uint64_t words) {
  using Packed = PackedShadowStore<SeqSlot>;
  const std::uint64_t first = kBaseWord / Packed::kPageWords;
  const std::uint64_t last = (kBaseWord + words - 1) / Packed::kPageWords;
  return last - first + 1;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 1;
  std::uint64_t max_words = std::uint64_t{1} << 28;  // 256M words = 1 GiB target
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--reps" && i + 1 < argc)
      reps = std::atoi(argv[++i]);
    else if (arg == "--max-words" && i + 1 < argc)
      max_words = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    else if (arg == "--smoke")
      smoke = true;
  }

  std::vector<std::uint64_t> points;
  if (smoke) {
    points = {std::uint64_t{1} << 18, std::uint64_t{1} << 20};
  } else {
    for (std::uint64_t w = std::uint64_t{1} << 20; w <= max_words; w <<= 2)
      points.push_back(w);
  }

  const StorageKind backends[] = {StorageKind::kPacked,
                                  StorageKind::kHashTable};

  TextTable table("Exact-store working-set sweep — detect-stage events/sec "
                  "(one write + one read per word)");
  table.set_header({"words", "packed ev/s", "hashtable ev/s",
                    "packed/hashtable", "packed pages", "packed MiB"});
  obs::BenchReport report("shadowpaged");
  report.metric("reps", reps);
  report.metric("points", static_cast<double>(points.size()));

  bool ok = true;
  for (const std::uint64_t words : points) {
    const std::string pt = point_name(words);
    SweepRun runs[2];
    for (int b = 0; b < 2; ++b) {
      if (!measure(backends[b], words, reps, runs[b])) {
        std::fprintf(stderr, "FAIL: %s: profiler construction failed\n",
                     storage_kind_name(backends[b]));
        return 1;
      }
    }
    SweepRun& packed = runs[0];
    SweepRun& hashtable = runs[1];

    // Identity: packed must agree with the hash-table reference — a
    // throughput ratio between diverging maps compares different work.
    const DepDiff ph = diff_deps(packed.deps, hashtable.deps);
    if (!ph.identical()) {
      std::fprintf(stderr, "FAIL: %s: packed diverges from hashtable:\n%s",
                   pt.c_str(), format_diff(ph, "packed", "hashtable").c_str());
      ok = false;
    }

    // Footprint: resident pages must equal the pages the address range
    // covers, for both stores of the pair — memory proportional to touched
    // pages, deterministic and noise-immune.
    const std::uint64_t want_pages = 2 * expected_pages(words);
    if (packed.resident_pages != want_pages) {
      std::fprintf(stderr,
                   "FAIL: %s: packed resident_pages=%llu, expected %llu\n",
                   pt.c_str(),
                   static_cast<unsigned long long>(packed.resident_pages),
                   static_cast<unsigned long long>(want_pages));
      ok = false;
    }

    const double ratio =
        hashtable.best_eps > 0 ? packed.best_eps / hashtable.best_eps : 0;
    const double packed_mib =
        static_cast<double>(packed.store_bytes) / 1048576.0;
    table.add_row({pt, TextTable::num(packed.best_eps),
                   TextTable::num(hashtable.best_eps), TextTable::num(ratio),
                   std::to_string(packed.resident_pages),
                   TextTable::num(packed_mib)});
    report.metric("packed_eps_" + pt, packed.best_eps);
    report.metric("hashtable_eps_" + pt, hashtable.best_eps);
    report.metric("packed_over_hashtable_" + pt, ratio);
    report.metric("packed_resident_pages_" + pt,
                  static_cast<double>(packed.resident_pages));
    report.metric("packed_store_mib_" + pt, packed_mib);

    // The committed full-size run is where the >=1.3x win at 64M+ words is
    // asserted; smoke skips it (two cache-resident points on a noisy host).
    if (!smoke && words >= (std::uint64_t{1} << 26) && ratio < 1.3) {
      std::fprintf(stderr,
                   "FAIL: %s: packed only %.2fx hashtable (want >= 1.3x at "
                   "64M+ words)\n",
                   pt.c_str(), ratio);
      ok = false;
    }
  }

  std::ostringstream os;
  table.print(os);
  std::fputs(os.str().c_str(), stdout);
  std::printf("\nCSV:\n%s", table.csv().c_str());
  report.write();
  return ok ? 0 : 1;
}
