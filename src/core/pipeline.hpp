#pragma once
// Shared pipeline-stage components of the Fig. 2 profiler.
//
// Both profilers are thin drivers over the same four stages:
//
//   produce — copy each delivered batch into chunks, once
//   route   — address ownership (formula 1) plus the Sec. IV-A load balancer
//   detect  — Algorithm 1 per worker (DetectorCore over any AccessStore)
//   merge   — fold the worker-local dependence maps into the global map
//
// The serial profiler is the one-worker degenerate case: its events go
// produce → detect with no queue in between, and merge folds a single local
// map.  Every stage updates its obs::StageStats block, which is what gives
// ProfilerStats one well-defined shape for both profilers.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/huge_alloc.hpp"
#include "common/mem_stats.hpp"
#include "common/timer.hpp"
#include "core/chunk.hpp"
#include "core/detector.hpp"
#include "core/profiler.hpp"
#include "obs/stage_stats.hpp"
#include "sig/access_store.hpp"

namespace depprof {

/// A load-balancer decision: ownership of `addr` moves from worker `from`
/// to worker `to`.  The driver executes the signature-state handoff
/// (Sec. IV-A) — the routing change itself is already installed.
struct Migration {
  std::uint64_t addr = 0;
  unsigned from = 0;
  unsigned to = 0;
};

/// Flat open-addressing map from address unit to overriding worker — the
/// load balancer's redistribution table.  Replaces the per-event
/// `unordered_map` probe on the route hot path: the table is tiny (top-k
/// addresses per round), so a linear-probe lookup is one or two contiguous
/// cache lines instead of a node-based bucket walk, and the common
/// balancer-inactive case is a single size check.  Deletion is backward-
/// shift (no tombstones), so probe chains never grow stale.  Capacity bytes
/// are charged to MemComponent::kAccessStats — before this table the
/// override map was invisible to MemStats entirely.
class OverrideTable {
 public:
  OverrideTable() = default;
  ~OverrideTable() { release(); }
  OverrideTable(const OverrideTable&) = delete;
  OverrideTable& operator=(const OverrideTable&) = delete;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  const std::uint32_t* find(std::uint64_t addr) const {
    if (size_ == 0) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(addr, mask);; i = (i + 1) & mask) {
      if (slots_[i].key == kEmptyKey) return nullptr;
      if (slots_[i].key == addr) return &slots_[i].worker;
    }
  }

  void insert(std::uint64_t addr, std::uint32_t worker) {
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(addr, mask);; i = (i + 1) & mask) {
      if (slots_[i].key == addr) {
        slots_[i].worker = worker;
        return;
      }
      if (slots_[i].key == kEmptyKey) {
        slots_[i] = {addr, worker};
        ++size_;
        return;
      }
    }
  }

  bool erase(std::uint64_t addr) {
    if (size_ == 0) return false;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(addr, mask);
    for (;; i = (i + 1) & mask) {
      if (slots_[i].key == kEmptyKey) return false;
      if (slots_[i].key == addr) break;
    }
    // Backward-shift deletion: pull every displaced follower of the probe
    // chain one step back so lookups never need tombstones.
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask;
      if (slots_[j].key == kEmptyKey) break;
      const std::size_t h = home(slots_[j].key, mask);
      if (((j - h) & mask) >= ((j - i) & mask)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i].key = kEmptyKey;
    --size_;
    return true;
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : slots_)
      if (e.key != kEmptyKey) fn(e.key, e.worker);
  }

  /// Frees the backing storage (terminal release at max_rounds).
  void release() {
    if (slots_.empty()) return;
    MemStats::instance().add(
        MemComponent::kAccessStats,
        -static_cast<std::int64_t>(slots_.size() * sizeof(Entry)));
    slots_.clear();
    slots_.shrink_to_fit();
    size_ = 0;
  }

 private:
  // Addresses are canonical word units (byte >> 2), so the all-ones key is
  // unreachable and serves as the empty sentinel.
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
  struct Entry {
    std::uint64_t key = kEmptyKey;
    std::uint32_t worker = 0;
  };

  static std::size_t home(std::uint64_t addr, std::size_t mask) {
    return static_cast<std::size_t>(mix64(addr)) & mask;
  }

  void grow() {
    std::vector<Entry> old = std::move(slots_);
    const std::size_t cap = old.empty() ? 16 : old.size() * 2;
    slots_.assign(cap, Entry{});
    MemStats::instance().add(
        MemComponent::kAccessStats,
        static_cast<std::int64_t>((cap - old.size()) * sizeof(Entry)));
    size_ = 0;
    for (const Entry& e : old)
      if (e.key != kEmptyKey) insert(e.key, e.worker);
  }

  std::vector<Entry> slots_;
  std::size_t size_ = 0;
};

/// Route stage: formula-1 address ownership, with the redistribution map
/// installed by the load balancer taking precedence.  All members are
/// touched only by the producer side (the load balancer is disabled for
/// multi-producer MT targets), so no locking is needed; the obs counters it
/// bumps are atomics and safe to snapshot concurrently.
class RouteStage {
 public:
  RouteStage(const ProfilerConfig& cfg, unsigned workers,
             obs::StageStats& stats)
      : cfg_(cfg), workers_(workers ? workers : 1), stats_(&stats) {}

  /// Owner of word unit `addr`.  Ownership, statistics and migrations are
  /// all keyed on word units; chunks carry the events' byte addresses.
  unsigned route(std::uint64_t addr) const {
    if (!overrides_.empty()) {
      if (const std::uint32_t* w = overrides_.find(addr)) return *w;
    }
    return base_route(addr);
  }

  /// Formula-1 ownership before any load-balancer override.
  unsigned base_route(std::uint64_t addr) const {
    return cfg_.modulo_routing ? modulo_worker(addr, workers_)
                               : hashed_worker(addr, workers_);
  }

  /// Routes a whole batch of events (byte addresses, owned by their word
  /// unit) in one pass, writing each record's owner into its chunk.  The
  /// override-table check and the routing-function branch are hoisted out
  /// of the loop: while the balancer is inactive (the common case, and
  /// always once max_rounds is exhausted) each event costs exactly one
  /// modulo/mix, no table probe.
  void route_batch(const AccessEvent* events, std::size_t count,
                   std::uint8_t* dest) const {
    if (!overrides_.empty()) {
      for (std::size_t i = 0; i < count; ++i)
        dest[i] = route(word_addr(events[i].addr));
    } else if (cfg_.modulo_routing) {
      for (std::size_t i = 0; i < count; ++i)
        dest[i] = modulo_worker(word_addr(events[i].addr), workers_);
    } else {
      for (std::size_t i = 0; i < count; ++i)
        dest[i] = hashed_worker(word_addr(events[i].addr), workers_);
    }
  }

  /// Samples one access (its word unit) into the load-balancer statistics
  /// (every 2^sample_shift events, Sec. IV-A).  The 64-bit mask matches the
  /// 64-bit tick, and the shift is clamped: 1 << s is undefined for s >= the
  /// operand width, and a 32-bit mask would alias every 2^32 ticks.
  void record_access(std::uint64_t addr) {
    const unsigned shift = std::min(cfg_.load_balance.sample_shift, 63u);
    const std::uint64_t mask = (std::uint64_t{1} << shift) - 1;
    if ((stat_tick_++ & mask) != 0) return;
    auto [it, inserted] = access_counts_.try_emplace(addr, 0);
    if (inserted)
      MemStats::instance().add(MemComponent::kAccessStats, kStatEntryBytes);
    ++it->second;
  }

  /// True when enough chunks were produced since the last evaluation.
  bool due(std::uint64_t chunks_produced) const {
    return chunks_produced - last_eval_chunks_ >=
           cfg_.load_balance.eval_interval_chunks;
  }

  /// Re-evaluates the distribution (Sec. IV-A): when the maximum worker
  /// load exceeds the imbalance threshold, the top-k hottest addresses are
  /// spread over the workers in ascending-load order.  Installs the new
  /// routing and returns the decisions for the driver to execute.
  std::vector<Migration> evaluate(std::uint64_t chunks_produced) {
    last_eval_chunks_ = chunks_produced;
    if (rounds_ >= cfg_.load_balance.max_rounds) {
      // No further rounds will run: the statistics table is dead weight and
      // the overrides would pin hot addresses to stale decisions (and their
      // memory) forever — migrate everything home and free both tables.
      release_stats();
      return release_overrides();
    }
    if (access_counts_.empty()) return evict_stale_overrides();

    std::vector<double> load(workers_, 0.0);
    for (const auto& [addr, count] : access_counts_)
      load[route(addr)] += static_cast<double>(count);
    double total = 0.0, max_load = 0.0;
    for (double l : load) {
      total += l;
      max_load = std::max(max_load, l);
    }
    const double mean = total / static_cast<double>(load.size());
    if (mean <= 0.0 ||
        max_load <= cfg_.load_balance.imbalance_threshold * mean) {
      decay_stats();
      return evict_stale_overrides();
    }

    // Top-k hottest addresses.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> hot(
        access_counts_.begin(), access_counts_.end());
    const std::size_t k =
        std::min<std::size_t>(cfg_.load_balance.top_k, hot.size());
    std::partial_sort(
        hot.begin(), hot.begin() + static_cast<std::ptrdiff_t>(k), hot.end(),
        [](const auto& a, const auto& b) { return a.second > b.second; });

    // Spread them over workers in ascending-load order.  The target cursor
    // advances only on an actual move: a hot address already sitting on the
    // current target must not consume the slot, or the next hot address
    // skips the least-loaded worker and piles onto a busier one.
    std::vector<unsigned> order(workers_);
    for (unsigned i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](unsigned a, unsigned b) { return load[a] < load[b]; });

    std::vector<Migration> moves;
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const std::uint64_t addr = hot[i].first;
      const unsigned from = route(addr);
      const unsigned to = order[cursor % order.size()];
      if (from == to) continue;
      moves.push_back({addr, from, to});
      overrides_.insert(addr, to);
      ++cursor;
    }
    if (!moves.empty()) {
      ++rounds_;
      stats_->add_rounds(1);
      stats_->add_migrations(moves.size());
    }
    decay_stats();
    evict_stale_overrides(moves);
    return moves;
  }

  /// Live entries in the load-balancer statistics table (tests/observability).
  std::size_t stat_entries() const { return access_counts_.size(); }

  /// Live entries in the redistribution override table.
  std::size_t override_entries() const { return overrides_.size(); }

 private:
  static constexpr std::int64_t kStatEntryBytes = 32;

  /// Ages the access statistics after an evaluation round.  Without decay,
  /// phase-1 hot addresses dominate every later round and the table grows
  /// without bound over a long run; halving keeps recent traffic twice as
  /// influential as the previous round's and drops cold entries entirely.
  void decay_stats() {
    std::size_t erased = 0;
    for (auto it = access_counts_.begin(); it != access_counts_.end();) {
      it->second >>= 1;
      if (it->second == 0) {
        it = access_counts_.erase(it);
        ++erased;
      } else {
        ++it;
      }
    }
    if (erased != 0)
      MemStats::instance().add(
          MemComponent::kAccessStats,
          -static_cast<std::int64_t>(erased) * kStatEntryBytes);
  }

  /// Drops the whole statistics table (terminal: max_rounds reached).
  void release_stats() {
    if (access_counts_.empty()) return;
    MemStats::instance().add(
        MemComponent::kAccessStats,
        -static_cast<std::int64_t>(access_counts_.size()) * kStatEntryBytes);
    access_counts_.clear();
  }

  /// Evicts overrides whose statistics decayed away: the address is no
  /// longer hot, so keeping it pinned to a past decision only grows the
  /// table.  Eviction is itself a migration (back to the formula-1 route) —
  /// silently re-routing would strand the signature state at the override
  /// target and break serial==parallel equivalence.  `fresh` excludes the
  /// moves installed this very round, whose statistics were just halved.
  std::vector<Migration> evict_stale_overrides() {
    std::vector<Migration> none;
    evict_stale_overrides(none);
    return none;
  }

  void evict_stale_overrides(std::vector<Migration>& moves) {
    if (overrides_.empty()) return;
    const std::size_t fresh = moves.size();
    std::vector<std::uint64_t> stale;
    overrides_.for_each([&](std::uint64_t addr, std::uint32_t) {
      if (access_counts_.find(addr) != access_counts_.end()) return;
      for (std::size_t i = 0; i < fresh; ++i)
        if (moves[i].addr == addr) return;
      stale.push_back(addr);
    });
    for (const std::uint64_t addr : stale) {
      const std::uint32_t* cur = overrides_.find(addr);
      const unsigned from = *cur;
      const unsigned home = base_route(addr);
      overrides_.erase(addr);
      if (from != home) {
        moves.push_back({addr, from, home});
        stats_->add_migrations(1);
      }
    }
    if (overrides_.empty()) overrides_.release();
  }

  /// Terminal release (max_rounds reached): migrates every overridden
  /// address back to its formula-1 owner and frees the table — route() is a
  /// plain hash from here on and the capacity bytes return to MemStats.
  std::vector<Migration> release_overrides() {
    std::vector<Migration> moves;
    if (overrides_.empty()) return moves;
    overrides_.for_each([&](std::uint64_t addr, std::uint32_t from) {
      const unsigned home = base_route(addr);
      if (from != home) moves.push_back({addr, from, home});
    });
    // The moves carry the pre-release routing in `from`; installing the
    // release before the driver executes them is safe because hand-off
    // chunks ride the same FIFOs as the data routed afterwards.
    overrides_.release();
    stats_->add_migrations(moves.size());
    return moves;
  }

  const ProfilerConfig cfg_;
  const unsigned workers_;
  obs::StageStats* stats_;
  OverrideTable overrides_;
  std::unordered_map<std::uint64_t, std::uint64_t> access_counts_;
  std::uint64_t stat_tick_ = 0;
  std::uint64_t last_eval_chunks_ = 0;
  unsigned rounds_ = 0;
};

/// A pipeline worker's detect input: the records it keeps from the chunks
/// it pops, gathered in program order until the kernel runs on them, and
/// the worker's clocks.  Allocated once per worker, with the pipeline.
struct alignas(64) OwnedRecords {
  /// Room for the gathered records; the kernel runs once fewer than one
  /// chunk's worth is left.
  static constexpr std::size_t kCapacity = 3 * Chunk::kCapacity;

  /// Time between two readings of the worker's clocks.
  struct Lap {
    std::uint64_t wall_ns;
    std::uint64_t cpu_ns;
  };

  /// Reads the clocks: returns the time since the previous reading.  The
  /// worker reads them only when it detects and around its waits, so a
  /// busy span covers the gathering of every record its kernel run takes.
  Lap lap() {
    const std::uint64_t wall = WallTimer::now();
    const std::uint64_t cpu = ThreadCpuTimer::now();
    const Lap out{wall - wall0, cpu - cpu0};
    wall0 = wall;
    cpu0 = cpu;
    return out;
  }

  AccessEvent* events() {
    return std::launder(reinterpret_cast<AccessEvent*>(events_));
  }

  std::size_t count = 0;
  std::uint64_t wall0 = 0;  ///< clocks at the previous lap()
  std::uint64_t cpu0 = 0;
  std::uint32_t reps[kCapacity];

 private:
  // Raw storage, as in Chunk: building the pipeline writes no event, and a
  // worker's first gather touches its buffer's pages on its own thread.
  alignas(64) unsigned char events_[kCapacity * sizeof(AccessEvent)];
};

/// Detect stage: one Algorithm 1 instance (DetectorCore) plus the
/// worker-local dependence map.  Each call is one chunk/batch of owned
/// accesses in program order; the tight loop is fully monomorphized.
/// `sampled` arms the detector's burst-mark log from the start.
template <AccessStore Store>
class DetectStage {
 public:
  DetectStage(Store sig_read, Store sig_write, bool sampled,
              obs::StageStats& stats)
      : core_(std::move(sig_read), std::move(sig_write), sampled),
        stats_(&stats) {}

  /// One batch as delivered: byte addresses, and `reps` (nullable) the
  /// dedup run lengths.  `events` counts the accesses the batch stands
  /// for (the sum of the runs), so produce == sum of detect holds whether
  /// or not the runs were expanded upstream.
  void process(const AccessEvent* events, const std::uint32_t* reps,
               std::size_t count) {
    // One wall-clock span charged to both busy_ns and cpu_ns: the serial
    // kernel never waits, so its wall span is its CPU time up to
    // preemption, and a thread-CPU read costs about eight wall-clock reads
    // (obs/stage_stats.hpp).
    const std::uint64_t w0 = WallTimer::now();
    stats_->add_prefetches(core_.process(events, reps, count, deps_));
    const std::uint64_t span = WallTimer::now() - w0;
    stats_->add_cpu_ns(span);
    stats_->add_busy_ns(span);
    std::uint64_t accesses = count;
    if (reps != nullptr) {
      accesses = 0;
      for (std::size_t i = 0; i < count; ++i) accesses += reps[i];
    }
    stats_->add_events(accesses);
    stats_->add_chunks(1);
  }

  /// Pipeline worker `w` keeps its share of a published data chunk: the
  /// records routed to `w`, and every burst mark (a sampling gap cuts every
  /// worker's stream), appended to `mine` in program order.  A burst mark
  /// counts as an access only on the worker it was routed to, so produce
  /// == sum of detect.  The kernel runs on the gathered records, runs
  /// folded, once `mine` has no room for another chunk; the worker calls
  /// flush() before it waits or acts on a command chunk.
  void gather(const Chunk& c, unsigned w, OwnedRecords& mine) {
    const AccessEvent* events = c.data();
    const std::uint32_t* reps = c.runs ? c.reps : nullptr;
    const std::uint8_t* owners = c.owners;
    // Select the records without a branch per record (ownership is a coin
    // flip), then copy them.  Only a marked chunk has records `w` keeps
    // without owning them; other chunks' foreign events are never read.
    std::uint16_t keep[Chunk::kCapacity];
    std::size_t k = 0;
    if (!c.marks) {
      for (std::size_t i = 0; i < c.count; ++i) {
        keep[k] = static_cast<std::uint16_t>(i);
        k += owners[i] == w;
      }
    } else {
      for (std::size_t i = 0; i < c.count; ++i) {
        keep[k] = static_cast<std::uint16_t>(i);
        k += owners[i] == w || events[i].is_burst_mark();
      }
    }
    AccessEvent* out = mine.events() + mine.count;
    std::uint32_t* out_reps = mine.reps + mine.count;
    std::uint64_t accesses = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t i = keep[j];
      out[j] = events[i];
      out_reps[j] = reps != nullptr ? reps[i] : 1;
      accesses += owners[i] == w ? out_reps[j] : 0;
    }
    mine.count += k;
    stats_->add_events(accesses);
    stats_->add_chunks(1);
    if (mine.count > OwnedRecords::kCapacity - Chunk::kCapacity) flush(mine);
  }

  /// Runs the kernel on the records `mine` gathered and charges the busy
  /// span that ends here to the stage clocks.
  void flush(OwnedRecords& mine) {
    if (mine.count != 0) {
      stats_->add_prefetches(
          core_.process(mine.events(), mine.reps, mine.count, deps_));
      mine.count = 0;
    }
    const OwnedRecords::Lap busy = mine.lap();
    stats_->add_cpu_ns(busy.cpu_ns);
    stats_->add_busy_ns(busy.wall_ns);
  }

  DetectorCore<Store>& core() { return core_; }
  DepMap& deps() { return deps_; }
  obs::StageStats& stats() { return *stats_; }

  /// Publishes the store's residency (leaf pages of the paged backends)
  /// into this stage's counters.  Runs once, at finish(), so the counter
  /// stays monotone for concurrent snapshots; non-paged backends have no
  /// page_count() and publish nothing.
  void publish_residency() {
    const auto pages = [](const auto& store) -> std::uint64_t {
      if constexpr (requires { store.page_count(); })
        return store.page_count();
      else
        return 0;
    };
    const std::uint64_t resident =
        pages(core_.read_signature()) + pages(core_.write_signature());
    if (resident != 0) stats_->add_resident_pages(resident);
  }

 private:
  DetectorCore<Store> core_;
  DepMap deps_;
  obs::StageStats* stats_;
};

/// Merge stage: folds one worker-local map into the global map.  "Merging
/// incurs only minor overhead since the local maps are free of duplicates";
/// the stage's busy time is the number the merge_factor bench validates.
class MergeStage {
 public:
  explicit MergeStage(obs::StageStats& stats) : stats_(&stats) {}

  void fold(DepMap& global, DepMap& local) {
    const std::uint64_t w0 = WallTimer::now();
    const std::uint64_t c0 = ThreadCpuTimer::now();
    stats_->add_events(local.size());
    // Transfer merge: the worker-local map is being retired, so entries move
    // rather than duplicate — peak kDepMaps stays at the live entry count
    // instead of double-counting every local entry for the merge window.
    global.merge_from(local);
    stats_->add_cpu_ns(ThreadCpuTimer::now() - c0);
    stats_->add_busy_ns(WallTimer::now() - w0);
    stats_->add_chunks(1);
  }

 private:
  obs::StageStats* stats_;
};

/// What both profilers share: the stage counters, one detect stage per
/// read/write store pair, the merge stage and global map, what they report
/// from them, and the end of finish() (conclude).  A driver delivers
/// batches to its detect stages and calls conclude() once they have
/// quiesced.
template <AccessStore Store>
class ProfilerBase : public IProfiler {
 public:
  const DepMap& dependences() const override { return global_; }
  DepMap take_dependences() override { return std::move(global_); }

  /// Derives the classic ProfilerStats fields from a pipeline snapshot —
  /// the one place that defines their meaning.
  ProfilerStats stats() const override {
    ProfilerStats st;
    st.signature_bytes = signature_bytes_;
    obs::PipelineSnapshot snap = obs_.snapshot();
    if (const auto* p = snap.find("produce")) {
      st.events = p->events;
      st.chunks = p->chunks;
    }
    if (const auto* r = snap.find("route")) {
      st.redistribution_rounds = static_cast<unsigned>(r->rounds);
      st.migrated_addresses = r->migrations;
    }
    for (const auto& s : snap.stages) {
      if (s.stage.rfind("detect", 0) == 0) {
        // CPU seconds, not wall: worker_busy_sec is the simulated-parallel-
        // time input, so it must exclude preemption and parked sleep
        // (DESIGN.md).
        st.worker_busy_sec.push_back(s.cpu_sec());
        st.worker_events.push_back(s.events);
      }
    }
    if (const auto* m = snap.find("merge")) st.merge_sec = m->busy_sec();
    st.workers = static_cast<unsigned>(st.worker_busy_sec.size());
    st.stages = std::move(snap);
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

 protected:
  /// `hugepage_baseline` is the process's huge-allocation fallback count
  /// before the stores were built, so fallbacks building them count.
  ProfilerBase(std::vector<Store> reads, std::vector<Store> writes,
               bool sampled, std::uint64_t hugepage_baseline)
      : obs_(static_cast<unsigned>(reads.size())),
        merge_(obs_.merge()),
        hugepage_baseline_(hugepage_baseline) {
    detectors_.reserve(obs_.workers());
    for (unsigned i = 0; i < obs_.workers(); ++i) {
      signature_bytes_ += reads[i].bytes() + writes[i].bytes();
      detectors_.push_back(std::make_unique<DetectStage<Store>>(
          std::move(reads[i]), std::move(writes[i]), sampled,
          obs_.detect(i)));
    }
  }

  /// The finish() epilogue, once the detect stages have quiesced.
  /// Footprint counters are published once so snapshots stay monotone: the
  /// paged stores' resident leaf pages, and the run's huge allocations
  /// that degraded to operator new.  Then the local maps fold into the
  /// global map, and for MT targets — where the slots carry timestamps and
  /// thread ids — its Sec. V-B race triage goes into the produce counters,
  /// by the classification find_races() applies, so the counters and the
  /// rendered race report agree by construction.
  void conclude() {
    for (auto& d : detectors_) d->publish_residency();
    obs_.produce().add_hugepage_fallbacks(huge::fallback_count() -
                                          hugepage_baseline_);
    for (auto& d : detectors_) merge_.fold(global_, d->deps());
    if constexpr (std::is_same_v<typename Store::slot_type, MtSlot>) {
      std::uint64_t confirmed = 0, unconfirmed = 0, suppressed = 0;
      for (const auto& [key, info] : global_) {
        switch (classify_race_candidate(key, info)) {
          case RaceCandidate::kConfirmed: ++confirmed; break;
          case RaceCandidate::kUnconfirmed: ++unconfirmed; break;
          case RaceCandidate::kSuppressedByLock: ++suppressed; break;
          case RaceCandidate::kNone: break;
        }
      }
      obs_.produce().add_races_confirmed(confirmed);
      obs_.produce().add_races_unconfirmed(unconfirmed);
      obs_.produce().add_races_lock_suppressed(suppressed);
    }
  }

  obs::PipelineObs obs_;
  std::vector<std::unique_ptr<DetectStage<Store>>> detectors_;

 private:
  MergeStage merge_;
  DepMap global_;
  std::size_t signature_bytes_ = 0;
  const std::uint64_t hugepage_baseline_;
};

}  // namespace depprof
