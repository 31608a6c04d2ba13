// Formula 2 validation (Sec. VI-A):
//
//     P_fp = 1 - (1 - 1/m)^n
//
// predicts the probability that a given slot is occupied after inserting n
// distinct addresses into m slots — the quantity driving false hits.  This
// bench inserts n distinct addresses and compares the measured final slot
// occupancy against the model, plus the average collision rate *during* the
// insertion stream (necessarily below the final value: the i-th insert sees
// only i-1 occupants).

#include <cstdio>
#include <sstream>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/detector.hpp"
#include "core/profiler.hpp"
#include "harness/accuracy.hpp"
#include "obs/bench_report.hpp"
#include "sig/fpr_model.hpp"
#include "sig/signature.hpp"
#include "trace/generators.hpp"
#include "trace/trace.hpp"

using namespace depprof;

namespace {

struct Measured {
  double occupancy = 0.0;        ///< occupied slots / m after all inserts
  double stream_collision = 0.0; ///< fraction of inserts landing on an occupied slot
};

Measured measure(std::size_t slots, std::size_t n) {
  // Formula 2 assumes each slot is selected with equal probability; random
  // addresses satisfy that under either slot-index function.
  Signature<SeqSlot> sig(slots);
  Rng rng(2025);
  std::size_t collisions = 0;
  SeqSlot s;
  s.loc = SourceLocation(1, 10).packed();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t addr = rng();
    if (sig.find(addr) != nullptr) ++collisions;
    sig.insert(addr, s);
  }
  Measured m;
  m.occupancy = sig.load_factor();
  m.stream_collision = static_cast<double>(collisions) / static_cast<double>(n);
  return m;
}

}  // namespace

int main() {
  TextTable table("Formula 2 — predicted vs measured slot occupancy");
  table.set_header({"m (slots)", "n (addresses)", "n/m", "predicted P_fp",
                    "measured occupancy", "stream collision rate"});

  const std::size_t ms[] = {1u << 14, 1u << 17, 1u << 20};
  const double ratios[] = {0.01, 0.1, 0.5, 1.0, 2.0};
  for (std::size_t m : ms) {
    for (double r : ratios) {
      const auto n = static_cast<std::size_t>(static_cast<double>(m) * r);
      if (n == 0) continue;
      const double predicted = predicted_fpr(m, n);
      const Measured meas = measure(m, n);
      table.add_row({std::to_string(m), std::to_string(n), TextTable::num(r),
                     TextTable::num(predicted, 4),
                     TextTable::num(meas.occupancy, 4),
                     TextTable::num(meas.stream_collision, 4)});
    }
  }

  std::ostringstream os;
  table.print(os);
  std::fputs(os.str().c_str(), stdout);
  std::printf("\nCSV:\n%s", table.csv().c_str());

  std::printf("\nSizing helper (slots_for_target_fpr): n=1e6 @ 1%% -> %zu slots\n",
              slots_for_target_fpr(1'000'000, 0.01));

  obs::BenchReport report("formula2_validation");
  {
    // Model error at the mid-load point for the machine-readable record.
    const std::size_t m = 1u << 17;
    const auto n = static_cast<std::size_t>(m * 0.5);
    const Measured meas = measure(m, n);
    report.metric("predicted_pfp_halfload", predicted_fpr(m, n));
    report.metric("measured_occupancy_halfload", meas.occupancy);

    // The formula's subject never touches the pipeline; replay a uniform
    // stream through the serial signature profiler for the breakdown.
    ProfilerConfig cfg;
    cfg.storage = StorageKind::kSignature;
    cfg.slots = m;
    auto prof = make_serial_profiler(cfg);
    GenParams p;
    p.accesses = 100'000;
    p.distinct = n;
    replay(gen_uniform(p), *prof);
    report.stages("serial_sig_replay", prof->stats().stages);
  }
  report.write();
  return 0;
}
