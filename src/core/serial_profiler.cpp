// Serial profiler (Sec. III): the one-worker degenerate case of the shared
// pipeline.  Batches go produce → detect with no queue in between and no
// copy: the detect kernel consumes each delivered buffer as it is (byte
// addresses, dedup runs folded); finish() folds the single local map
// through the merge stage.  The store backend is resolved once at
// construction (core/store_factory.hpp), so the detect loop is one
// monomorphized DetectorCore instantiation.

#include "common/huge_alloc.hpp"
#include "core/pipeline.hpp"
#include "core/profiler.hpp"
#include "core/store_factory.hpp"

namespace depprof {
namespace {

template <AccessStore Store>
class SerialProfiler final : public IProfiler {
 public:
  SerialProfiler(Store sig_read, Store sig_write, std::size_t signature_bytes,
                 std::uint64_t hugepage_baseline)
      : obs_(1),
        detect_(std::move(sig_read), std::move(sig_write), obs_.detect(0)),
        merge_(obs_.merge()),
        signature_bytes_(signature_bytes),
        hugepage_baseline_(hugepage_baseline) {}

  void on_access(const AccessEvent& ev) override { on_batch(&ev, 1); }

  void on_batch(const AccessEvent* events, std::size_t count) override {
    if (count == 0) return;
    obs_.produce().add_events(count);
    obs_.produce().add_chunks(1);
    // No queue between produce and detect here, so the "wire" cost is the
    // raw event bytes handed across the stage boundary.
    obs_.produce().add_bytes_on_wire(count * sizeof(AccessEvent));
    detect_.process(events, nullptr, count);
  }

  void on_batch_rle(const AccessEvent* events, const std::uint32_t* reps,
                    std::size_t count) override {
    if (count == 0) return;
    std::uint64_t logical = 0;
    for (std::size_t i = 0; i < count; ++i) logical += reps[i];
    obs_.produce().add_events(logical);
    obs_.produce().add_chunks(1);
    obs_.produce().add_events_deduped(logical - count);
    // One record per RLE run crosses the stage boundary; the detect kernel
    // folds each run without expanding it.
    obs_.produce().add_bytes_on_wire(count * sizeof(AccessEvent));
    detect_.process(events, reps, count);
  }

  void finish() override {
    if (finished_) return;
    finished_ = true;
    // Footprint counters, published once so snapshots stay monotone: the
    // paged stores' resident leaf pages, and any huge allocations this run
    // that degraded to operator new (delta against the construction-time
    // process total).
    detect_.publish_residency();
    obs_.produce().add_hugepage_fallbacks(huge::fallback_count() -
                                          hugepage_baseline_);
    merge_.fold(global_, detect_.deps());
    // MT targets only: the triage is meaningful only where the detector
    // stamps timestamps and thread ids into the slots.
    if constexpr (std::is_same_v<typename Store::slot_type, MtSlot>)
      publish_race_counters(global_, obs_.produce());
  }

  std::uint64_t profiling_cost_ns() const override {
    return obs_.total_cpu_ns();
  }

  void on_sampling_stats(std::uint64_t events_sampled_out,
                         std::uint64_t bursts,
                         std::uint64_t overhead_ppm) override {
    obs_.produce().add_events_sampled_out(events_sampled_out);
    obs_.produce().add_bursts(bursts);
    obs_.produce().raise_sampled_overhead_ppm(overhead_ppm);
  }

  const DepMap& dependences() const override { return global_; }

  DepMap take_dependences() override { return std::move(global_); }

  ProfilerStats stats() const override {
    ProfilerStats st;
    st.signature_bytes = signature_bytes_;
    fill_stats_from(obs_.snapshot(), st);
    return st;
  }

 private:
  obs::PipelineObs obs_;
  DetectStage<Store> detect_;
  MergeStage merge_;
  DepMap global_;
  std::size_t signature_bytes_;
  const std::uint64_t hugepage_baseline_;
  bool finished_ = false;
};

}  // namespace

const char* storage_kind_name(StorageKind kind) {
  switch (kind) {
    case StorageKind::kSignature: return "signature";
    case StorageKind::kPerfect: return "perfect";
    case StorageKind::kShadow: return "shadow";
    case StorageKind::kHashTable: return "hashtable";
    case StorageKind::kPacked: return "packed";
  }
  return "?";
}

std::unique_ptr<IProfiler> make_serial_profiler(const ProfilerConfig& config) {
  if (!races_config_ok(config)) return nullptr;
  // Baseline BEFORE the stores are built: a signature slot array that falls
  // back during construction belongs to this run's counter.
  const std::uint64_t hp0 = huge::fallback_count();
  return with_store(
      config,
      [&]<typename Store>(std::type_identity<Store>) -> std::unique_ptr<IProfiler> {
        Store r = make_store<Store>(config);
        Store w = make_store<Store>(config);
        const std::size_t bytes = r.bytes() + w.bytes();
        return std::make_unique<SerialProfiler<Store>>(
            std::move(r), std::move(w), bytes, hp0);
      });
}

}  // namespace depprof
