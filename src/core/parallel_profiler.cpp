// Parallel profiler — the Fig. 2 pipeline as a driver over the shared
// stage components (core/pipeline.hpp).
//
// The instrumented target thread(s) act as producers: accesses are staged
// into per-worker chunks (ProduceStage) and pushed to the queue of the
// worker that owns the address (RouteStage: formula 1, with the load
// balancer's redistribution map taking precedence).  Each worker runs one
// DetectStage — Algorithm 1 on its own pair of signatures with a
// thread-local dependence map; the merge stage folds the local maps into
// the global map at the end, which "incurs only minor overhead since the
// local maps are free of duplicates".
//
// Multi-threaded targets (Sec. V): every target thread is a producer with
// its own staged chunks, worker queues become MPMC, accesses carry global
// timestamps, and accesses inside explicit lock regions are flushed at
// unlock so that the access and its push stay atomic (Fig. 4).
//
// Every storage backend runs here: the factory resolves StorageKind to a
// concrete store once (core/store_factory.hpp), and the worker loop only
// switches on the chunk kind — never on the backend.
//
// Waiting is a policy (queue/wait_strategy.hpp): the three blocking sites —
// idle workers, producers facing a full queue, and the migration-mailbox
// handoff — run the configured spin/yield/park strategy instead of spinning
// unboundedly, with per-site backpressure accounting in the obs counters
// and wake hooks so that parked threads are woken by whoever unblocks them
// (including the stop sentinels at shutdown).

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "common/huge_alloc.hpp"
#include "common/timer.hpp"
#include "core/chunk.hpp"
#include "core/pipeline.hpp"
#include "core/profiler.hpp"
#include "core/store_factory.hpp"
#include "queue/wait_strategy.hpp"
#include "sched/sched.hpp"

namespace depprof {
namespace {

/// Process-unique profiler instance id, used to invalidate the thread-local
/// producer-stage caches of earlier (possibly freed) profiler instances.
std::uint64_t next_instance_id() {
  static std::atomic<std::uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Chunk-pool population plan.  Auto sizing covers the pipeline's maximum
/// in-flight census — per worker: a full queue (capacity rounds up to a
/// power of two) + one chunk being processed + one staged in the producer —
/// plus slack for the stop sentinels and a migration pair in flight.  With
/// that population a sealed acquire can always be satisfied by a future
/// release, so blocking instead of allocating cannot deadlock.
std::size_t planned_pool_chunks(const ProfilerConfig& cfg, unsigned workers) {
  if (cfg.pool_chunks != 0) {
    // Liveness floor for an explicit population.  The producer alone can
    // pin one pending (staged, part-full) chunk per worker plus the one it
    // is acquiring; every other chunk in flight (queued, being processed,
    // migration pair) is eventually released by a live worker.  Below
    // workers + 2 a sealed pool can deadlock: with pool_chunks = 1 and two
    // workers the producer stages its only chunk for worker 0, then blocks
    // forever acquiring one for worker 1 — the pending never flushes while
    // the producer is blocked, and the workers have nothing to recycle.
    // Sampling makes the quiescent-producer window routine (a skipped unit
    // produces nothing), so the floor is enforced rather than documented.
    const std::size_t floor = static_cast<std::size_t>(workers) + 2;
    return std::max(cfg.pool_chunks, floor);
  }
  const std::size_t qcap =
      SpscQueue<Chunk*>::round_up_pow2(cfg.queue_capacity);
  return workers * (qcap + 2) + 8;
}

/// One-shot handoff cell for migrating an address's signature state from its
/// old owner to its new owner (Sec. IV-A: "If an address is moved to another
/// thread, its signature state has to be moved as well").
template <typename Slot>
struct Mailbox {
  std::atomic<std::uint32_t> ready{0};
  bool has_read = false;
  bool has_write = false;
  Slot read_slot{};
  Slot write_slot{};
};

template <AccessStore Store>
class ParallelProfiler final : public IProfiler {
  using Slot = typename Store::slot_type;

 public:
  ParallelProfiler(const ProfilerConfig& cfg, std::vector<Store> read_sigs,
                   std::vector<Store> write_sigs, std::size_t signature_bytes,
                   std::uint64_t hugepage_baseline)
      : cfg_(cfg),
        hugepage_baseline_(hugepage_baseline),
        chunk_fill_(std::min<std::size_t>(cfg.chunk_size ? cfg.chunk_size : 1,
                                          Chunk::kCapacity)),
        signature_bytes_(signature_bytes),
        lb_enabled_(cfg.load_balance.enabled),
        wait_(cfg.wait),
        obs_(cfg.workers ? cfg.workers : 1),
        router_(cfg, obs_.workers(), obs_.route()),
        merge_(obs_.merge()),
        // The whole chunk population is allocated here, before the target
        // starts running; sequential targets seal the pool so the steady
        // state never allocates (see ChunkPool).  MT targets have an
        // unbounded producer count, so their pool may still grow.
        pool_(std::max<std::size_t>(
                  256, planned_pool_chunks(cfg, obs_.workers())),
              planned_pool_chunks(cfg, obs_.workers()),
              /*sealed=*/!cfg.mt_targets, cfg.wait),
        gates_(std::make_unique<QueueGates[]>(obs_.workers())),
        mailboxes_(kMailboxCount),
        mailbox_free_(kMailboxCount) {
    const unsigned w = obs_.workers();
    // Under a schedule-exploration session, publish the thread census first
    // so no grant is made before every pipeline thread has attached — the
    // first scheduling decisions must not depend on spawn timing.  The
    // constructing thread attaches LAST (below), after the workers are
    // spawned: an attached thread parks at its next schedule point until
    // the census is met, and this thread is the one doing the spawning.
    sched::expect_threads(static_cast<std::size_t>(w) + 1);
    // Multiple producers (MT targets) need multi-producer queues regardless
    // of the configured kind; the mutex queue supports both multiplicities.
    QueueKind qk = cfg_.queue;
    if (cfg_.mt_targets && qk == QueueKind::kLockFreeSpsc)
      qk = QueueKind::kLockFreeMpmc;
    detectors_.reserve(w);
    for (unsigned i = 0; i < w; ++i) {
      detectors_.push_back(std::make_unique<DetectStage<Store>>(
          std::move(read_sigs[i]), std::move(write_sigs[i]), obs_.detect(i)));
      queues_.push_back(make_queue<Chunk*>(qk, cfg_.queue_capacity));
    }
    for (std::uint32_t i = 0; i < kMailboxCount; ++i)
      (void)mailbox_free_.try_push(i);
    threads_.reserve(w);
    for (unsigned i = 0; i < w; ++i)
      threads_.emplace_back([this, i] { worker_main(i); });
    // The constructing thread is the pipeline's producer: it joins the
    // schedule as "main" and is serialized from its first hand-off on.
    sched::attach("main");
  }

  ~ParallelProfiler() override {
    // Dropping the profiler without finish() must still terminate the
    // workers: the stop sentinels wake any parked worker via the gates.
    if (!finished_) finish();
  }

  void on_access(const AccessEvent& ev) override { on_batch(&ev, 1); }

  void on_batch(const AccessEvent* events, std::size_t count) override {
    if (count == 0) return;
    obs_.produce().add_events(count);
    obs_.route().add_events(count);
    ProduceStage& prod = producer_for_caller();
    while (count > 0) {
      const std::size_t n = std::min(count, kScatterBatch);
      scatter(prod, events, nullptr, n);
      events += n;
      count -= n;
    }
  }

  void on_batch_rle(const AccessEvent* events, const std::uint32_t* reps,
                    std::size_t count) override {
    if (count == 0) return;
    std::uint64_t logical = 0;
    for (std::size_t i = 0; i < count; ++i) logical += reps[i];
    // Produce/route report the *logical* access count — the stream the
    // target executed — while events_deduped says how many of those rode an
    // existing record instead of their own.
    obs_.produce().add_events(logical);
    obs_.route().add_events(logical);
    obs_.produce().add_events_deduped(logical - count);
    ProduceStage& prod = producer_for_caller();
    while (count > 0) {
      const std::size_t n = std::min(count, kScatterBatch);
      scatter(prod, events, reps, n);
      events += n;
      reps += n;
      count -= n;
    }
  }

  void on_unlock(std::uint16_t) override {
    // The unlocking thread flushes its own staged chunks (Fig. 4).
    ProduceStage& prod = producer_for_caller();
    for (unsigned w = 0; w < obs_.workers(); ++w)
      if (Chunk* c = prod.take(w)) push_chunk(c, w);
  }

  void finish() override {
    if (finished_) return;
    // Flush every producer's partial chunks, then send stop sentinels.  By
    // contract all target threads have quiesced before finish(), so the
    // registry lock is uncontended and the pending chunks are visible.
    {
      std::lock_guard lock(producer_mu_);
      for (const auto& p : producer_owned_)
        for (unsigned w = 0; w < obs_.workers(); ++w)
          if (Chunk* c = p->take(w)) push_chunk(c, w);
    }
    for (unsigned w = 0; w < obs_.workers(); ++w) {
      Chunk* stop = pool_.acquire();
      stop->kind = Chunk::Kind::kStop;
      enqueue(w, stop);  // enqueue's wake hook rouses a parked worker
    }
    join_workers();
    // Footprint counters, published once the workers have quiesced: each
    // detect stage's resident leaf pages (paged backends), and the run's
    // huge-allocation fallbacks as a delta against the construction-time
    // process total.
    for (auto& d : detectors_) d->publish_residency();
    obs_.produce().add_hugepage_fallbacks(huge::fallback_count() -
                                          hugepage_baseline_);
    for (auto& d : detectors_) merge_.fold(global_, d->deps());
    // MT targets only: triage the merged map for Sec. V-B race counters
    // once the workers' maps are folded (slots carry timestamps then).
    if constexpr (std::is_same_v<typename Store::slot_type, MtSlot>)
      publish_race_counters(global_, obs_.produce());
    // A sealed pool that had to wait for recycled chunks was a producer
    // stall: fold it into the produce-stage backpressure counter.
    obs_.produce().add_stalls(pool_.acquire_stalls());
    finished_ = true;
  }

  const DepMap& dependences() const override { return global_; }

  DepMap take_dependences() override { return std::move(global_); }

  ProfilerStats stats() const override {
    ProfilerStats st;
    st.signature_bytes = signature_bytes_;
    fill_stats_from(obs_.snapshot(), st);
    return st;
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

 private:
  static constexpr std::uint32_t kMailboxCount = 64;
  /// Scatter granularity: one routing pass + one counting sort per this many
  /// events.  Matches the instrumentation flush batch; the scratch buffers
  /// (the sorted events, their run lengths and destinations) stay
  /// comfortably on the stack, which keeps the scatter path reentrant for
  /// concurrent MT producers.
  static constexpr std::size_t kScatterBatch = 256;
  /// Counting-sort scratch is stack-sized for this many workers; a (absurd)
  /// wider pipeline falls back to the per-event path.
  static constexpr unsigned kMaxScatterWorkers = 128;

  /// The batched produce/route half of the hot path: route the whole
  /// sub-batch once (route_batch hoists the override-table and hash-kind
  /// branches; ownership is by word unit), then counting-sort the events
  /// into contiguous per-worker runs appended chunk-wise.  Chunks carry the
  /// events as delivered — byte addresses, which the detect kernel
  /// canonicalizes — so nothing is copied before the sort.  `reps`
  /// (nullable) carries the front-end RLE run lengths: a run is routed once
  /// and expanded as it is staged.  Batches containing lock-region accesses
  /// keep the per-event path: those must push the moment they are staged so
  /// access + push stay atomic (Fig. 4).
  void scatter(ProduceStage& prod, const AccessEvent* events,
               const std::uint32_t* reps, std::size_t n) {
    std::array<unsigned, kScatterBatch> dest;
    bool lock_region = false;
    bool has_marker = false;
    for (std::size_t i = 0; i < n; ++i) {
      lock_region |= (events[i].flags & kInLockRegion) != 0;
      has_marker |= events[i].is_burst_mark();
    }
    const bool sample = lb_enabled_ && !cfg_.mt_targets;
    const unsigned W = obs_.workers();
    const auto push_and_rebalance = [this](Chunk* c, unsigned worker) {
      push_chunk(c, worker);
    };
    if (lock_region || has_marker || W > kMaxScatterWorkers) {
      // Per-event fallback.  Routing is re-consulted per event because a
      // push below can trigger a rebalance that changes it mid-batch.
      for (std::size_t i = 0; i < n; ++i) {
        if (events[i].is_burst_mark()) {
          // A sampling gap cuts the WHOLE stream, so the marker is
          // broadcast: every worker's signatures hold addresses whose
          // pre-gap accesses must not pair with post-gap ones.  Staged
          // in-order into each worker's pending chunk, the per-worker FIFO
          // delivers it after all pre-gap and before all post-gap events
          // of that worker — exactly the serial clearing point.  (The
          // bursts counter is fed by on_sampling_stats, not here: the gate
          // lives in the runtime, and counting markers again would double
          // the stat on live runs.)
          for (unsigned w = 0; w < W; ++w)
            prod.add_run(w, &events[i], nullptr, 1, chunk_fill_,
                         push_and_rebalance);
          continue;
        }
        const std::uint64_t unit = word_addr(events[i].addr);
        const unsigned w = router_.route(unit);
        prod.add_run(w, &events[i], reps != nullptr ? reps + i : nullptr, 1,
                     chunk_fill_, push_and_rebalance);
        // Lock-region accesses must be pushed the moment they are staged
        // (Fig. 4), even from a part-full chunk.
        if ((events[i].flags & kInLockRegion) != 0)
          if (Chunk* ready = prod.take(w)) push_chunk(ready, w);
        if (sample) router_.record_access(unit);
      }
      return;
    }
    router_.route_batch(events, n, dest.data());
    if (sample)
      for (std::size_t i = 0; i < n; ++i)
        router_.record_access(word_addr(events[i].addr));
    // Counting sort into contiguous per-worker runs (stable, so per-worker
    // program order is preserved — the soundness invariant of Fig. 2).
    std::array<std::uint32_t, kMaxScatterWorkers> offset{};
    for (std::size_t i = 0; i < n; ++i) ++offset[dest[i]];
    std::uint32_t sum = 0;
    for (unsigned w = 0; w < W; ++w) {
      const std::uint32_t c = offset[w];
      offset[w] = sum;
      sum += c;
    }
    std::array<AccessEvent, kScatterBatch> run;
    std::array<std::uint32_t, kScatterBatch> run_reps;
    std::array<std::uint32_t, kMaxScatterWorkers> start;
    for (unsigned w = 0; w < W; ++w) start[w] = offset[w];
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t slot = offset[dest[i]]++;
      run[slot] = events[i];
      run_reps[slot] = reps != nullptr ? reps[i] : 1;
    }
    // Rebalancing is deferred to the end of the sub-batch: the destinations
    // above were computed against the current routing, and a mid-batch
    // routing change would strand the tail of a run on the old owner.
    const auto push = [this](Chunk* c, unsigned worker) {
      push_counted(c, worker);
    };
    for (unsigned w = 0; w < W; ++w) {
      if (start[w] == offset[w]) continue;
      prod.add_run(w, run.data() + start[w],
                   reps != nullptr ? run_reps.data() + start[w] : nullptr,
                   offset[w] - start[w], chunk_fill_, push);
    }
    if (sample) {
      const std::uint64_t produced =
          obs_.produce().chunks.load(std::memory_order_relaxed);
      if (router_.due(produced)) rebalance(produced);
    }
  }

  /// Stage of the *calling* thread.  Keying on the caller (not on the
  /// event's recorded tid) partitions exactly like per-tid keying on live
  /// MT targets — every target thread produces from its own OS thread — but
  /// gives a single-threaded caller replaying an MT-recorded trace ONE
  /// stage, so delivery stays order-faithful to the stream.  Per-tid keying
  /// split such a replay across stagings and scrambled cross-thread order
  /// at chunk-fill granularity, which made serial and parallel replays of
  /// the same trace disagree (different slot-pairing order per address).
  ///
  /// The thread-local cache keeps the hot path lock-free; the instance id
  /// guards against a recycled profiler allocation reviving a stale entry.
  ProduceStage& producer_for_caller() {
    struct Cache {
      std::uint64_t owner = 0;
      ProduceStage* stage = nullptr;
    };
    static thread_local Cache cache;
    if (cache.owner == instance_id_) return *cache.stage;
    std::lock_guard lock(producer_mu_);
    ProduceStage*& slot = producer_registry_[std::this_thread::get_id()];
    if (slot == nullptr) slot = new_producer();
    cache = {instance_id_, slot};
    return *slot;
  }

  /// Creates and registers a stage; caller holds producer_mu_.
  ProduceStage* new_producer() {
    producer_owned_.push_back(
        std::make_unique<ProduceStage>(obs_.workers(), pool_));
    return producer_owned_.back().get();
  }

  /// Enqueues and counts `c`; returns the chunks produced so far.
  std::uint64_t push_counted(Chunk* c, unsigned w) {
    enqueue(w, c);
    return obs_.produce().chunks.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  void push_chunk(Chunk* c, unsigned w) {
    const std::uint64_t produced = push_counted(c, w);
    if (lb_enabled_ && !cfg_.mt_targets && router_.due(produced))
      rebalance(produced);
  }

  /// Pushes `c`, applying the wait strategy when worker w's queue is full
  /// (bounded backpressure: the block time is charged to the produce stage)
  /// and waking the worker if it parked on an empty queue.
  void enqueue(unsigned w, Chunk* c) {
    obs::StageStats& prod = obs_.produce();
    if (c->kind == Chunk::Kind::kData)
      prod.add_bytes_on_wire(std::size_t{c->count} * sizeof(AccessEvent));
    // Commit ownership to worker w's queue BEFORE the push publishes the
    // chunk — the worker may pop it the instant try_push succeeds.
    chunk_handoff(*c, Chunk::kOwnerProducer, Chunk::kOwnerQueued | w,
                  "queue.push");
    if (!queues_[w]->try_push(c)) {
      prod.add_stalls(1);
      const std::uint64_t t0 = WallTimer::now();
      const WaitCounters wc = wait_until(
          wait_, gates_[w].not_full, [&] { return queues_[w]->try_push(c); });
      prod.add_block_ns(WallTimer::now() - t0);
      prod.add_parked_ns(wc.parked_ns);
      prod.add_parks(wc.parks);
    }
    prod.add_wakes(gates_[w].not_empty.notify_all());
    prod.raise_queue_depth(queues_[w]->size_approx());
  }

  // --- load balancing (Sec. IV-A) ---------------------------------------

  void rebalance(std::uint64_t chunks_produced) {
    for (const Migration& m : router_.evaluate(chunks_produced)) {
      // Flush staged accesses of the old owner so they arrive before the
      // handoff chunk; FIFO order makes the migration sound (see
      // chunk.hpp).  Only reachable with sequential targets, whose single
      // producing thread is the caller.  The flush counts the chunk but
      // must not run the due() check: a nested round would extract an
      // address from an owner this round has not yet handed it to.
      ProduceStage& prod = producer_for_caller();
      if (Chunk* c = prod.take(m.from)) push_counted(c, m.from);
      hand_off(m);
    }
  }

  void hand_off(const Migration& m) {
    std::uint32_t mb = 0;
    if (!mailbox_free_.try_pop(mb)) {
      // All mailboxes in flight: wait for an adopting worker to return one
      // (it notifies mailbox_ec_).  Producer-side backpressure.
      const std::uint64_t t0 = WallTimer::now();
      const WaitCounters wc = wait_until(
          wait_, mailbox_ec_, [&] { return mailbox_free_.try_pop(mb); });
      obs_.produce().add_block_ns(WallTimer::now() - t0);
      obs_.produce().add_parked_ns(wc.parked_ns);
      obs_.produce().add_parks(wc.parks);
    }
    mailboxes_[mb].ready.store(0, std::memory_order_relaxed);

    Chunk* out = pool_.acquire();
    out->kind = Chunk::Kind::kMigrateOut;
    out->addr = m.addr;
    out->payload = mb;
    enqueue(m.from, out);

    Chunk* in = pool_.acquire();
    in->kind = Chunk::Kind::kAdopt;
    in->addr = m.addr;
    in->payload = mb;
    enqueue(m.to, in);
  }

  // --- worker side ------------------------------------------------------

  void worker_main(unsigned w) {
    char sched_name[16];
    std::snprintf(sched_name, sizeof(sched_name), "w%u", w);
    sched::ThreadGuard sched_guard(sched_name);
    DetectStage<Store>& me = *detectors_[w];
    obs::StageStats& stats = obs_.detect(w);
    ConcurrentQueue<Chunk*>& queue = *queues_[w];
    QueueGates& gate = gates_[w];
    for (;;) {
      Chunk* c = nullptr;
      if (!queue.try_pop(c)) {
        // Idle: wait for the producer side with the configured strategy.
        // Wall idle vs CPU-while-idle are tracked separately — the latter is
        // what pure spinning burns on an oversubscribed host.
        const std::uint64_t w0 = WallTimer::now();
        const std::uint64_t c0 = ThreadCpuTimer::now();
        const WaitCounters wc =
            wait_until(wait_, gate.not_empty, [&] { return queue.try_pop(c); });
        stats.add_idle_cpu_ns(ThreadCpuTimer::now() - c0);
        stats.add_idle_ns(WallTimer::now() - w0);
        stats.add_parked_ns(wc.parked_ns);
        stats.add_parks(wc.parks);
      }
      // A producer blocked on this full queue can take the freed cell.
      stats.add_wakes(gate.not_full.notify_all());
      // A popped chunk must have been queued to *this* worker: a wrong-
      // worker delivery or double pop fires the invariant counter here,
      // before its contents can pollute the local signatures.
      chunk_handoff(*c, Chunk::kOwnerQueued | w, Chunk::kOwnerWorker | w,
                    "queue.pop");
      switch (c->kind) {
        case Chunk::Kind::kData:
          me.process(c->data(), nullptr, c->count);
          pool_.release(c);
          break;
        case Chunk::Kind::kStop:
          pool_.release(c);
          return;
        case Chunk::Kind::kMigrateOut: {
          const std::uint64_t w0 = WallTimer::now();
          const std::uint64_t c0 = ThreadCpuTimer::now();
          auto st = me.core().extract_state(c->addr);
          Mailbox<Slot>& box = mailboxes_[c->payload];
          box.has_read = st.has_read;
          box.has_write = st.has_write;
          box.read_slot = st.read_slot;
          box.write_slot = st.write_slot;
          sched::point("mailbox.publish");
          box.ready.store(1, std::memory_order_release);
          // Wake the adopting worker (and anyone waiting for a mailbox).
          stats.add_wakes(mailbox_ec_.notify_all());
          pool_.release(c);
          stats.add_cpu_ns(ThreadCpuTimer::now() - c0);
          stats.add_busy_ns(WallTimer::now() - w0);
          break;
        }
        case Chunk::Kind::kAdopt: {
          Mailbox<Slot>& box = mailboxes_[c->payload];
          sched::point("mailbox.adopt");
          if (box.ready.load(std::memory_order_acquire) == 0) {
            // Handoff not published yet: blocked on a peer stage, so the
            // time is backpressure (block_ns), not input starvation.
            const std::uint64_t t0 = WallTimer::now();
            const WaitCounters wc = wait_until(wait_, mailbox_ec_, [&] {
              return box.ready.load(std::memory_order_acquire) != 0;
            });
            stats.add_block_ns(WallTimer::now() - t0);
            stats.add_parked_ns(wc.parked_ns);
            stats.add_parks(wc.parks);
          }
          const std::uint64_t w0 = WallTimer::now();
          const std::uint64_t c0 = ThreadCpuTimer::now();
          typename DetectorCore<Store>::AddrState st;
          st.has_read = box.has_read;
          st.has_write = box.has_write;
          st.read_slot = box.read_slot;
          st.write_slot = box.write_slot;
          me.core().adopt_state(c->addr, st);
          (void)mailbox_free_.try_push(c->payload);
          // A producer may be waiting in hand_off for a free mailbox.
          stats.add_wakes(mailbox_ec_.notify_all());
          pool_.release(c);
          stats.add_cpu_ns(ThreadCpuTimer::now() - c0);
          stats.add_busy_ns(WallTimer::now() - w0);
          break;
        }
      }
    }
  }

  void join_workers() {
    // pthread_join is a blocking region the schedule controller cannot see
    // through: leave the schedule so the draining workers are not waiting
    // for a grant that depends on this (blocked) thread reaching a point.
    sched::DetachScope leave_schedule;
    for (auto& t : threads_)
      if (t.joinable()) t.join();
  }

  ProfilerConfig cfg_;
  const std::uint64_t hugepage_baseline_;
  const std::size_t chunk_fill_;
  const std::size_t signature_bytes_;
  const bool lb_enabled_;
  const WaitKind wait_;

  obs::PipelineObs obs_;
  RouteStage router_;
  MergeStage merge_;

  std::vector<std::unique_ptr<DetectStage<Store>>> detectors_;
  std::vector<std::unique_ptr<ConcurrentQueue<Chunk*>>> queues_;
  std::vector<std::thread> threads_;
  ChunkPool pool_;

  /// Per-worker wake hooks for the park strategy (one pair per queue).
  std::unique_ptr<QueueGates[]> gates_;

  /// Producer stages, one per producing OS thread (see producer_for_caller);
  /// producer_owned_ holds ownership, producer_mu_ guards the registry.
  std::unordered_map<std::thread::id, ProduceStage*> producer_registry_;
  std::vector<std::unique_ptr<ProduceStage>> producer_owned_;
  std::mutex producer_mu_;
  const std::uint64_t instance_id_ = next_instance_id();

  std::vector<Mailbox<Slot>> mailboxes_;
  MpmcQueue<std::uint32_t> mailbox_free_;
  EventCount mailbox_ec_;

  DepMap global_;
  bool finished_ = false;
};

}  // namespace

std::unique_ptr<IProfiler> make_parallel_profiler(const ProfilerConfig& config) {
  if (!races_config_ok(config)) return nullptr;
  const unsigned w = config.workers ? config.workers : 1;
  // Baseline BEFORE the stores are built: a signature slot array that falls
  // back during construction belongs to this run's counter.
  const std::uint64_t hp0 = huge::fallback_count();
  return with_store(
      config,
      [&]<typename Store>(std::type_identity<Store>) -> std::unique_ptr<IProfiler> {
        std::vector<Store> reads, writes;
        reads.reserve(w);
        writes.reserve(w);
        std::size_t bytes = 0;
        for (unsigned i = 0; i < w; ++i) {
          reads.push_back(make_store<Store>(config));
          writes.push_back(make_store<Store>(config));
          bytes += reads.back().bytes() + writes.back().bytes();
        }
        return std::make_unique<ParallelProfiler<Store>>(
            config, std::move(reads), std::move(writes), bytes, hp0);
      });
}

}  // namespace depprof
