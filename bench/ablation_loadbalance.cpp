// Load-balance ablation (Sec. IV-A):
//   * routing — how evenly plain modulo (formula 1) and the mixed hash
//     spread uniform vs strided vs Zipf-skewed address streams over workers;
//   * redistribution — the parallel pipeline on a hot-skewed stream with the
//     access-statistics balancer off vs on: per-worker event imbalance (CV),
//     redistribution rounds (paper: at most 20 per benchmark, evaluated
//     every 50 000 chunks), and migrated addresses.

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/hash.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/profiler.hpp"
#include "obs/bench_report.hpp"
#include "trace/generators.hpp"
#include "trace/trace.hpp"

using namespace depprof;

namespace {

void routing_spread() {
  TextTable table("Routing spread over 8 workers (CV of per-worker address load)");
  table.set_header({"stream", "modulo (formula 1)", "mixed hash"});

  struct Case {
    const char* name;
    Trace trace;
  };
  GenParams p;
  p.accesses = 200'000;
  p.distinct = 20'000;
  Case cases[] = {{"uniform", gen_uniform(p)},
                  {"strided x8", [] {
                     GenParams q;
                     q.accesses = 200'000;
                     q.distinct = 20'000;
                     q.stride = 64;  // multiple of W*8: worst case for modulo
                     return gen_strided(q);
                   }()},
                  {"zipf s=1.2", gen_zipf(p, 1.2)}};

  for (auto& c : cases) {
    std::uint64_t mod_load[8] = {}, mix_load[8] = {};
    for (const auto& ev : c.trace.events) {
      ++mod_load[modulo_worker(word_addr(ev.addr), 8)];
      ++mix_load[hashed_worker(word_addr(ev.addr), 8)];
    }
    StatAccumulator mod_acc, mix_acc;
    for (int i = 0; i < 8; ++i) {
      mod_acc.add(static_cast<double>(mod_load[i]));
      mix_acc.add(static_cast<double>(mix_load[i]));
    }
    table.add_row({c.name, TextTable::num(mod_acc.cv(), 3),
                   TextTable::num(mix_acc.cv(), 3)});
  }

  std::ostringstream os;
  table.print(os);
  std::fputs(os.str().c_str(), stdout);
}

void redistribution(obs::BenchReport& report) {
  GenParams p;
  p.accesses = 3'000'000;
  p.distinct = 30'000;
  const Trace trace = gen_zipf(p, 1.4);  // heavy hot set

  TextTable table("\nHot-address redistribution on a Zipf stream (8 workers)");
  table.set_header({"balancer", "worker-event CV", "max/mean", "rounds",
                    "migrated", "sim busy max (ms)"});

  for (bool enabled : {false, true}) {
    ProfilerConfig cfg;
    cfg.storage = StorageKind::kSignature;
    cfg.slots = 1u << 17;
    cfg.workers = 8;
    cfg.chunk_size = 64;
    cfg.modulo_routing = false;
    cfg.load_balance.enabled = enabled;
    cfg.load_balance.eval_interval_chunks = 2'000;
    cfg.load_balance.top_k = 10;

    // Delivered in 256-event batches, as a live run flushes them: each
    // becomes four 64-record chunks.
    auto profiler = make_parallel_profiler(cfg);
    replay(trace, *profiler);
    const ProfilerStats st = profiler->stats();

    StatAccumulator events;
    double busy_max = 0.0;
    for (std::size_t i = 0; i < st.worker_events.size(); ++i) {
      events.add(static_cast<double>(st.worker_events[i]));
      busy_max = std::max(busy_max, st.worker_busy_sec[i]);
    }
    table.add_row({enabled ? "on" : "off", TextTable::num(events.cv(), 3),
                   TextTable::num(events.max() / std::max(1.0, events.mean()), 2),
                   std::to_string(st.redistribution_rounds),
                   std::to_string(st.migrated_addresses),
                   TextTable::num(busy_max * 1e3, 2)});

    const char* key = enabled ? "balancer_on" : "balancer_off";
    report.metric(std::string(key) + "_worker_event_cv", events.cv());
    report.metric(std::string(key) + "_rounds", st.redistribution_rounds);
    report.metric(std::string(key) + "_migrated", st.migrated_addresses);
    report.stages(key, st.stages);
  }

  std::ostringstream os;
  table.print(os);
  std::fputs(os.str().c_str(), stdout);
  std::printf(
      "\nPaper reference: modulo distributes addresses evenly but not "
      "accesses; monitoring access statistics and redistributing the top "
      "ten hottest addresses (at most ~20 rounds per run) bounds the "
      "imbalance.\n");
}

}  // namespace

int main() {
  obs::BenchReport report("ablation_loadbalance");
  routing_spread();
  redistribution(report);
  report.write();
  return 0;
}
