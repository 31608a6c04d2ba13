// Serial profiler (Sec. III): the one-worker degenerate case of the shared
// pipeline.  Batches go produce → detect with no queue in between and no
// copy: the detect kernel consumes each delivered buffer as it is (byte
// addresses, dedup runs folded); finish() folds the single local map
// through the merge stage.  The store backend is resolved once at
// construction (core/store_factory.hpp), so the detect loop is one
// monomorphized DetectorCore instantiation.

#include "core/pipeline.hpp"
#include "core/profiler.hpp"
#include "core/store_factory.hpp"

namespace depprof {
namespace {

template <AccessStore Store>
class SerialProfiler final : public ProfilerBase<Store> {
  using Base = ProfilerBase<Store>;

 public:
  SerialProfiler(const ProfilerConfig& cfg, std::vector<Store> reads,
                 std::vector<Store> writes, std::uint64_t hugepage_baseline)
      : Base(std::move(reads), std::move(writes), cfg.sampled(),
             hugepage_baseline),
        detect_(*this->detectors_[0]) {}

  void on_access(const AccessEvent& ev) override { deliver(&ev, nullptr, 1); }

  void on_batch(const AccessEvent* events, std::size_t count) override {
    deliver(events, nullptr, count);
  }

  void on_batch_rle(const AccessEvent* events, const std::uint32_t* reps,
                    std::size_t count) override {
    deliver(events, reps, count);
  }

  void finish() override {
    if (finished_) return;
    finished_ = true;
    this->conclude();
  }

 private:
  /// One delivered batch, `reps` (nullable) its dedup run lengths.  One
  /// record per run crosses the stage boundary, with no queue in between,
  /// so the "wire" cost is the records handed to the kernel, which folds
  /// each run without expanding it.
  void deliver(const AccessEvent* events, const std::uint32_t* reps,
               std::size_t count) {
    if (count == 0) return;
    obs::StageStats& prod = this->obs_.produce();
    std::uint64_t accesses = count;
    if (reps != nullptr) {
      accesses = 0;
      for (std::size_t i = 0; i < count; ++i) accesses += reps[i];
      prod.add_events_deduped(accesses - count);
    }
    prod.add_events(accesses);
    prod.add_chunks(1);
    prod.add_bytes_on_wire(count * sizeof(AccessEvent));
    detect_.process(events, reps, count);
  }

  DetectStage<Store>& detect_;
  bool finished_ = false;
};

}  // namespace

std::unique_ptr<IProfiler> make_serial_profiler(const ProfilerConfig& config) {
  return make_profiler<SerialProfiler>(config, 1);
}

}  // namespace depprof
