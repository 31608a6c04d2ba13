// Parallel profiler — the Fig. 2 pipeline as a driver over the shared
// stage components (core/pipeline.hpp).
//
// The instrumented target thread(s) act as producers: each delivered batch
// is routed once (RouteStage: formula 1, with the load balancer's
// redistribution map taking precedence), copied into a chunk together with
// its dedup runs and each record's owner, and pushed to every worker that
// owns a record in it.  Each worker keeps the records it owns and runs one
// DetectStage — Algorithm 1 on its own pair of signatures with a
// thread-local dependence map; the merge stage folds the local maps into
// the global map at the end, which "incurs only minor overhead since the
// local maps are free of duplicates".
//
// Multi-threaded targets (Sec. V): every target thread publishes its own
// batches, worker queues become MPMC, and accesses carry global timestamps.
// Inside a lock region the runtime flushes after every access, and a batch
// is pushed before publish() returns, so the access and its push stay
// atomic (Fig. 4).
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
#include <atomic>
#include <bit>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

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

/// Chunk-pool population.  A chunk stays unreleased while it sits in some
/// target's queue or is being processed there, so at most workers x (a full
/// queue, whose capacity rounds up to a power of two, + the chunk being
/// processed) are in flight, plus the one chunk each producer is filling.
/// The plan covers that for one producer with a spare per worker and slack
/// for a migration pair.  More producer threads (MT targets) can hold more;
/// an acquire beyond the plan waits for a release (see ChunkPool), so
/// blocking instead of allocating cannot deadlock.
std::size_t planned_pool_size(const ProfilerConfig& cfg, unsigned workers) {
  const std::size_t qcap =
      SpscQueue<Chunk*>::round_up_pow2(cfg.queue_capacity);
  return workers * (qcap + 2) + 8;
}

/// One-shot handoff cell for migrating an address's signature state from its
/// old owner to its new owner (Sec. IV-A: "If an address is moved to another
/// thread, its signature state has to be moved as well").
template <typename State>
struct Mailbox {
  std::atomic<std::uint32_t> ready{0};
  State state{};
};

template <AccessStore Store>
class ParallelProfiler final : public IProfiler {
  using AddrState = typename DetectorCore<Store>::AddrState;

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
        all_workers_(~std::uint64_t{0} >> (64 - (cfg.workers ? cfg.workers : 1))),
        obs_(cfg.workers ? cfg.workers : 1),
        router_(cfg, obs_.workers(), obs_.route()),
        merge_(obs_.merge()),
        // The whole chunk population is allocated here, before the target
        // starts running, so the steady state never allocates (see
        // ChunkPool).
        pool_(planned_pool_size(cfg, obs_.workers()), cfg.wait),
        gates_(std::make_unique<QueueGates[]>(obs_.workers())),
        owned_(std::make_unique_for_overwrite<OwnedRecords[]>(obs_.workers())),
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
          std::move(read_sigs[i]), std::move(write_sigs[i]), cfg.sampled(),
          obs_.detect(i)));
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

  void on_access(const AccessEvent& ev) override { publish(&ev, nullptr, 1); }

  void on_batch(const AccessEvent* events, std::size_t count) override {
    publish(events, nullptr, count);
  }

  void on_batch_rle(const AccessEvent* events, const std::uint32_t* reps,
                    std::size_t count) override {
    publish(events, reps, count);
  }

  void finish() override {
    if (finished_) return;
    // Every batch was pushed when it was delivered, so only the stop
    // sentinels remain (enqueue's wake hook rouses a parked worker).
    for (unsigned w = 0; w < obs_.workers(); ++w) {
      Chunk* stop = pool_.acquire();
      stop->kind = Chunk::Kind::kStop;
      send(w, stop);
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
    // A pool that had to wait for recycled chunks was a producer
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

  /// The produce/route half of the hot path.  Each chunk-sized piece of the
  /// batch is routed once and copied, events as delivered plus their run
  /// lengths (`reps` nullable) and owners, into one chunk, which is pushed
  /// to every worker that owns a record in it before the next piece is
  /// routed: each worker's FIFO sees its records in program order, and a
  /// rebalance between pieces takes effect at a chunk boundary.
  void publish(const AccessEvent* events, const std::uint32_t* reps,
               std::size_t count) {
    if (count == 0) return;
    obs::StageStats& prod = obs_.produce();
    std::uint64_t accesses = count;
    if (reps != nullptr) {
      accesses = 0;
      for (std::size_t i = 0; i < count; ++i) accesses += reps[i];
      // events_deduped says how many accesses rode an existing record.
      prod.add_events_deduped(accesses - count);
    }
    // Produce/route report the *logical* access count — the stream the
    // target executed.
    prod.add_events(accesses);
    obs_.route().add_events(accesses);
    const bool sample = lb_enabled_ && !cfg_.mt_targets;
    while (count > 0) {
      const std::size_t n = std::min(count, chunk_fill_);
      Chunk* c = pool_.acquire();
      c->count = static_cast<std::uint32_t>(n);
      std::copy_n(events, n, c->data());
      c->runs = reps != nullptr;
      if (c->runs) std::copy_n(reps, n, c->reps);
      router_.route_batch(events, n, c->owners);
      std::uint64_t targets = 0;
      for (std::size_t i = 0; i < n; ++i) {
        targets |= std::uint64_t{1} << c->owners[i];
        if (events[i].is_burst_mark())
          c->marks = true;
        else if (sample)
          router_.record_access(word_addr(events[i].addr));
      }
      // A sampling gap cuts the WHOLE stream: every worker's stores hold
      // addresses whose pre-gap accesses must not pair with post-gap ones,
      // so a chunk holding a burst mark goes to every worker, whose FIFO
      // delivers the mark between its pre- and post-gap records.
      if (c->marks) targets = all_workers_;
      // Bytes copied into the chunk: events, run lengths, owners.
      prod.add_bytes_on_wire(n * (sizeof(AccessEvent) + sizeof c->owners[0] +
                                  (c->runs ? sizeof c->reps[0] : 0)));
      chunk_publish(*c, targets);
      for (; targets != 0; targets &= targets - 1)
        enqueue(static_cast<unsigned>(std::countr_zero(targets)), c);
      const std::uint64_t produced =
          prod.chunks.fetch_add(1, std::memory_order_relaxed) + 1;
      if (sample && router_.due(produced))
        for (const Migration& m : router_.evaluate(produced)) hand_off(m);
      events += n;
      if (reps != nullptr) reps += n;
      count -= n;
    }
  }

  /// Publishes a command chunk to worker `w` alone.
  void send(unsigned w, Chunk* c) {
    chunk_publish(*c, std::uint64_t{1} << w);
    enqueue(w, c);
  }

  /// Pushes `c`, applying the wait strategy when worker w's queue is full
  /// (bounded backpressure: the block time is charged to the produce stage)
  /// and waking the worker if it parked on an empty queue.
  void enqueue(unsigned w, Chunk* c) {
    obs::StageStats& prod = obs_.produce();
    // The chunk is published before the push: the worker may pop it, and
    // the last consumer release it, the instant try_push succeeds.
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

  /// Executes one balancer decision.  Every chunk holding the address's
  /// records so far was pushed to the old owner already, so FIFO order
  /// makes the migration sound (see chunk.hpp).  Only reachable with
  /// sequential targets, whose single producing thread is the caller.
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
    send(m.from, out);

    Chunk* in = pool_.acquire();
    in->kind = Chunk::Kind::kAdopt;
    in->addr = m.addr;
    in->payload = mb;
    send(m.to, in);
  }

  // --- worker side ------------------------------------------------------

  void worker_main(unsigned w) {
    char sched_name[16];
    std::snprintf(sched_name, sizeof(sched_name), "w%u", w);
    sched::ThreadGuard sched_guard(sched_name);
    DetectStage<Store>& me = *detectors_[w];
    OwnedRecords& mine = owned_[w];
    obs::StageStats& stats = obs_.detect(w);
    ConcurrentQueue<Chunk*>& queue = *queues_[w];
    QueueGates& gate = gates_[w];
    // The worker's time is one busy span after another, split by its two
    // waits; every lap of the clocks closes one (see OwnedRecords).
    mine.lap();
    for (;;) {
      Chunk* c = nullptr;
      if (!queue.try_pop(c)) {
        // Idle: detect what was gathered (which ends the busy span), then
        // wait for the producer side with the configured strategy.  Wall
        // idle vs CPU-while-idle are tracked separately — the latter is
        // what pure spinning burns on an oversubscribed host.
        me.flush(mine);
        const WaitCounters wc =
            wait_until(wait_, gate.not_empty, [&] { return queue.try_pop(c); });
        const OwnedRecords::Lap idle = mine.lap();
        stats.add_idle_cpu_ns(idle.cpu_ns);
        stats.add_idle_ns(idle.wall_ns);
        stats.add_parked_ns(wc.parked_ns);
        stats.add_parks(wc.parks);
      }
      // A producer blocked on this full queue can take the freed cell.
      stats.add_wakes(gate.not_full.notify_all());
      chunk_pop(*c, w);
      // A command acts after every record gathered before it.
      if (c->kind != Chunk::Kind::kData) me.flush(mine);
      switch (c->kind) {
        case Chunk::Kind::kData:
          me.gather(*c, w, mine);
          done(c);
          break;
        case Chunk::Kind::kStop:
          done(c);
          return;
        case Chunk::Kind::kMigrateOut: {
          Mailbox<AddrState>& box = mailboxes_[c->payload];
          box.state = me.core().extract_state(c->addr);
          sched::point("mailbox.publish");
          box.ready.store(1, std::memory_order_release);
          // Wake the adopting worker (and anyone waiting for a mailbox).
          stats.add_wakes(mailbox_ec_.notify_all());
          done(c);
          break;
        }
        case Chunk::Kind::kAdopt: {
          Mailbox<AddrState>& box = mailboxes_[c->payload];
          sched::point("mailbox.adopt");
          if (box.ready.load(std::memory_order_acquire) == 0) {
            // Handoff not published yet: blocked on a peer stage, so the
            // time is backpressure (block_ns), not input starvation.
            const WaitCounters wc = wait_until(wait_, mailbox_ec_, [&] {
              return box.ready.load(std::memory_order_acquire) != 0;
            });
            stats.add_block_ns(mine.lap().wall_ns);
            stats.add_parked_ns(wc.parked_ns);
            stats.add_parks(wc.parks);
          }
          me.core().adopt_state(c->addr, box.state);
          (void)mailbox_free_.try_push(c->payload);
          // A producer may be waiting in hand_off for a free mailbox.
          stats.add_wakes(mailbox_ec_.notify_all());
          done(c);
          break;
        }
      }
    }
  }

  /// The last consumer of `c` returns it to the pool.
  void done(Chunk* c) {
    if (chunk_done(*c)) pool_.release(c);
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
  const std::uint64_t all_workers_;  ///< a bit per worker

  obs::PipelineObs obs_;
  RouteStage router_;
  MergeStage merge_;

  std::vector<std::unique_ptr<DetectStage<Store>>> detectors_;
  std::vector<std::unique_ptr<ConcurrentQueue<Chunk*>>> queues_;
  std::vector<std::thread> threads_;
  ChunkPool pool_;

  /// Per-worker wake hooks for the park strategy (one pair per queue).
  std::unique_ptr<QueueGates[]> gates_;
  /// Per-worker detect input: the records gathered from popped chunks.
  std::unique_ptr<OwnedRecords[]> owned_;

  std::vector<Mailbox<AddrState>> mailboxes_;
  MpmcQueue<std::uint32_t> mailbox_free_;
  EventCount mailbox_ec_;

  DepMap global_;
  bool finished_ = false;
};

}  // namespace

std::unique_ptr<IProfiler> make_parallel_profiler(const ProfilerConfig& config) {
  if (!races_config_ok(config)) return nullptr;
  const unsigned w = config.workers ? config.workers : 1;
  // A chunk's target set is one 64-bit word.
  static_assert(kMaxWorkers <= 64);
  if (w > kMaxWorkers) return nullptr;
  // Baseline BEFORE the stores are built: a signature slot array that falls
  // back during construction belongs to this run's counter.
  const std::uint64_t hp0 = huge::fallback_count();
  return with_store(config, [&](auto make) -> std::unique_ptr<IProfiler> {
    using Store = decltype(make());
    std::vector<Store> reads, writes;
    reads.reserve(w);
    writes.reserve(w);
    std::size_t bytes = 0;
    for (unsigned i = 0; i < w; ++i) {
      reads.push_back(make());
      writes.push_back(make());
      bytes += reads.back().bytes() + writes.back().bytes();
    }
    return std::make_unique<ParallelProfiler<Store>>(
        config, std::move(reads), std::move(writes), bytes, hp0);
  });
}

}  // namespace depprof
