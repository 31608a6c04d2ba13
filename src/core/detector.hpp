#pragma once
// Algorithm 1: signature-based data-dependence detection.
//
// One detector owns a read signature and a write signature and turns an
// ordered stream of accesses to *its* addresses into merged dependences.
// The serial profiler has one detector; the parallel pipeline has one per
// worker (Fig. 2), which is sound because every address is owned by exactly
// one worker and workers see their addresses in program order.
//
// Note on the published pseudocode: the INIT branch and the WAR branch are
// independent.  Fig. 1 line "1:65 NOM ... {WAR 1:67|temp2} {INIT *}" shows a
// sink that is simultaneously an initialization (first write) and the sink
// of a WAR against an earlier read, so a write checks the read signature
// regardless of whether the write signature already held the address.
//
// DetectorCore is the single Algorithm 1 implementation, templated over any
// type satisfying the AccessStore concept: the fixed-size Signature, the
// packed paged shadow store, and the HashTableRecorder baseline.  The slot
// layout is deduced from the store (Store::slot_type), so each (backend,
// target kind) pair is one full monomorphization — there is no per-access
// branch on the storage kind anywhere in the detect loop.
//
// The stores are plain maps; the detector decides when to insert, remove
// and clear, including what a sampling burst mark costs (see burst_mark).

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "common/hash.hpp"
#include "common/huge_alloc.hpp"
#include "common/mem_stats.hpp"
#include "core/dep.hpp"
#include "sig/access_store.hpp"
#include "sig/slots.hpp"
#include "trace/event.hpp"
#include "trace/nest.hpp"

namespace depprof {

static_assert(kNestLevels == kNestIters,
              "DepInfo level buckets mirror the event iteration window");

/// Builds the slot recorded for an access; `tag` is addr_tag of the
/// access's word unit and `iter` its context's own iteration (the slot's
/// `iter`), both computed once per event by the kernel.
template <typename Slot>
Slot make_slot(const AccessEvent& ev, std::uint32_t tag, std::uint32_t iter) {
  Slot s;
  s.loc = ev.loc;
  s.tag = tag;
  s.ctx = ev.ctx;
  s.iter = iter;
  if constexpr (std::is_same_v<Slot, MtSlot>) {
    s.tid = ev.tid;
    s.flags = ev.flags;
    s.ts = ev.ts;
  }
  return s;
}

/// The innermost dynamic loop entry common to two nest contexts (the lowest
/// common ancestor in the forest): its static loop id and 1-based depth,
/// and where the source's iteration counter at that level lives.
/// level == 0 when the contexts share no loop entry.
struct NestLca {
  std::uint32_t loop = 0;
  std::uint32_t level = 0;
  /// The source's counter at the common level when the source context lies
  /// below the common entry: parent_iter of its ancestor one level down.
  std::uint32_t src_iter = 0;
  /// The source context is the common entry itself, so its counter is the
  /// slot's own `iter`.
  bool src_is_lca = false;
};

/// The forest half of nest attribution: resolves two context ids to their
/// common loop entry.  A pure function of the two ids, because the forest
/// is append-only (trace/nest.hpp).
///
/// The LCA loop is the *only* candidate carrier: both contexts descend from
/// the same dynamic entry at every level above it, and a thread reaches two
/// different child entries (or two iterations of the same entry) only after
/// advancing some iteration counter at or above the divergence point —
/// every strictly higher level's counter is therefore equal for both
/// endpoints, and the distance vector of the pair is zero everywhere except
/// possibly at the LCA level itself.
///
/// The source's counter at that level is fixed by the walk too: the last
/// source-side node the walk leaves before it reaches the common entry
/// began in that iteration (its parent_iter), unless the source context is
/// the common entry, whose counter only the source's slot holds.
inline NestLca nest_lca(std::uint32_t src_ctx, std::uint32_t sink_ctx) {
  NestLca lca;
  if (src_ctx == NestForest::kRoot || sink_ctx == NestForest::kRoot)
    return lca;
  const NestForest& forest = nest_forest();
  std::uint32_t a = src_ctx;
  std::uint32_t b = sink_ctx;
  std::uint32_t below = NestForest::kRoot;  // last source-side node left
  std::uint32_t da = forest.depth(a);
  std::uint32_t db = forest.depth(b);
  while (da > db) {
    below = a;
    a = forest.parent(a);
    --da;
  }
  while (db > da) {
    b = forest.parent(b);
    --db;
  }
  while (a != b) {
    below = a;
    a = forest.parent(a);
    b = forest.parent(b);
    --da;
  }
  if (a == NestForest::kRoot) return lca;
  lca.loop = forest.loop(a);
  lca.level = da;
  lca.src_is_lca = below == NestForest::kRoot;
  if (!lca.src_is_lca) lca.src_iter = forest.parent_iter(below);
  return lca;
}

/// The per-instance half of nest attribution: the carried distance at the
/// common level.  The source's counter there is its slot's own iteration
/// or the walk's parent_iter (see NestLca); the sink's is read from its
/// event's root-anchored iteration window.  That level's counters are known
/// whenever its depth is <= kNestIters; deeper common levels degrade to
/// "carried, distance unknown" (the >= 2 bucket) rather than to any
/// heuristic.
inline DepAttribution nest_distance(const NestLca& lca,
                                    std::uint32_t src_own_iter,
                                    const std::uint32_t* sink_iters) {
  DepAttribution at;
  if (lca.level == 0) return at;
  at.loop = lca.loop;
  at.level = lca.level;
  if (lca.level <= kNestIters) {
    const std::uint32_t ia = lca.src_is_lca ? src_own_iter : lca.src_iter;
    const std::uint32_t ib = sink_iters[lca.level - 1];
    at.distance = ib > ia ? ib - ia : ia - ib;
  } else {
    at.distance_known = false;
  }
  return at;
}

/// Direct-mapped memo of nest_lca per (source, sink) context pair.  A hot
/// loop pairs the same few contexts over and over, so the forest walk runs
/// once per pair instead of once per dependence instance.  Entries are
/// never invalidated: the forest is append-only, so an answer never goes
/// stale.  A zeroed entry holds the pair (root, root), whose answer is the
/// zero NestLca, so the table needs no valid bit.
class NestLcaMemo {
 public:
  static constexpr std::size_t kEntries = 256;

  /// Table slot of a pair (exposed so tests can force collisions).
  static std::size_t slot(std::uint32_t src_ctx, std::uint32_t sink_ctx) {
    return (src_ctx * 0x9E3779B1u + sink_ctx * 0x85EBCA77u) >> 24;
  }

  const NestLca& lookup(std::uint32_t src_ctx, std::uint32_t sink_ctx) {
    Entry& e = entries_[slot(src_ctx, sink_ctx)];
    if (e.src != src_ctx || e.sink != sink_ctx)
      e = Entry{src_ctx, sink_ctx, nest_lca(src_ctx, sink_ctx)};
    return e.lca;
  }

 private:
  static_assert(kEntries == 256, "slot() keeps the top 8 bits");
  struct Entry {
    std::uint32_t src = NestForest::kRoot;
    std::uint32_t sink = NestForest::kRoot;
    NestLca lca;
  };
  std::array<Entry, kEntries> entries_{};
};

/// Flags qualifying the dependence built from recorded source `src` and
/// current sink `sink` (whose word unit has tag `sink_tag`), plus its nest
/// attribution.
///
/// When the slot's address tag does not match the sink's, the slot was
/// written by a *colliding* address: the dependence record itself is still
/// built (the paper's approximate-membership semantics), but the
/// nest-context and timestamp comparisons would compare two unrelated
/// accesses, so no qualifying flags or attribution are derived (see
/// slots.hpp).
template <typename Slot>
std::uint8_t classify_dep(const Slot& src, const AccessEvent& sink,
                          std::uint32_t sink_tag, NestLcaMemo& memo,
                          DepAttribution& at) {
  std::uint8_t f = 0;
  at = {};
  const bool same_address = src.tag == sink_tag;
  if (same_address) {
    at = nest_distance(memo.lookup(src.ctx, sink.ctx), src.iter, sink.iters);
    if (at.loop != 0 && (!at.distance_known || at.distance != 0))
      f |= kLoopCarried;
    if (src.ctx != sink.ctx &&
        (src.ctx != NestForest::kRoot || sink.ctx != NestForest::kRoot))
      f |= kCrossLoop;
  }
  if constexpr (std::is_same_v<Slot, MtSlot>) {
    if (src.tid != sink.tid) f |= kCrossThread;
    if (same_address) {
      // A worker expects increasing timestamps per address (Sec. V-B); a
      // reversal proves the access/push pair was not mutually excluded with
      // the recorded one — a potential data race.
      if (src.ts > sink.ts) f |= kReversed;
      // Both endpoints inside lock regions: the target's own mutual
      // exclusion ordered this pair, so it cannot be a race candidate.
      // Gated on the address tag like the timestamp check — a colliding
      // slot must not suppress an unrelated pair.
      if ((src.flags & kInLockRegion) != 0 &&
          (sink.flags & kInLockRegion) != 0)
        f |= kLockProtected;
    }
  }
  return f;
}

template <AccessStore Store>
class DetectorCore {
 public:
  using Slot = typename Store::slot_type;

  /// Takes ownership of the two (empty) signatures.  A detector of a
  /// sampled run is armed from the start, so its first burst mark also
  /// costs only what the first burst wrote.
  DetectorCore(Store sig_read, Store sig_write, bool sampled = false)
      : sig_read_(std::move(sig_read)),
        sig_write_(std::move(sig_write)),
        logging_(sampled) {}

  /// Units a burst mark can remove one by one, per store.
  static constexpr std::size_t kLogCap = std::size_t{1} << 16;

  /// Distance (in records) between a prefetch and its consuming compare.
  /// Far enough to cover an LLC miss at ~4 records' work per miss, small
  /// enough that the prefetched lines are still resident when reached.
  static constexpr std::size_t kPrefetchDistance = 8;

  /// Algorithm 1 over one batch of records in program order, consumed as
  /// the front end delivers them: byte addresses (each canonicalized to its
  /// word unit here, once) and, when `reps` is non-null, the dedup cache's
  /// run lengths — reps[i] >= 1 identical instances of events[i].  A run is
  /// folded, never expanded (see process_run for why that is exact).
  ///
  /// Two optimizations keep the loop memory-bound rather than
  /// latency-bound:
  ///
  ///  - the read/write store slots of the record kPrefetchDistance ahead
  ///    are software-prefetched (write intent) before each compare/update,
  ///    so the slot misses of consecutive records overlap;
  ///  - dependence records — which repeat the same few (sink, source, var)
  ///    keys throughout a batch — are aggregated in the record table and
  ///    folded into the map once per distinct key (DepMap::fold) instead of
  ///    one map probe per instance.
  ///
  /// Returns the number of prefetch pairs issued (obs accounting).
  std::size_t process(const AccessEvent* events, const std::uint32_t* reps,
                      std::size_t count, DepMap& deps) {
    records_.begin(deps);
    std::size_t prefetched = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t ahead = i + kPrefetchDistance;
      if (ahead < count) {
        const std::uint64_t unit = word_addr(events[ahead].addr);
        sig_read_.prefetch(unit);
        sig_write_.prefetch(unit);
        ++prefetched;
      }
      process_run(events[i], reps != nullptr ? reps[i] : 1);
    }
    records_.flush();
    return prefetched;
  }

  Store& read_signature() { return sig_read_; }
  Store& write_signature() { return sig_write_; }
  /// True while the next burst mark would remove only the logged units.
  bool armed() const { return logging_; }

  /// Migration support (Sec. IV-A): extract/adopt the per-address state.
  /// `unit` is a word unit (word_addr of the byte address).
  struct AddrState {
    bool has_read = false;
    bool has_write = false;
    Slot read_slot{};
    Slot write_slot{};
  };

  AddrState extract_state(std::uint64_t unit) {
    AddrState st;
    if (const Slot* r = sig_read_.find(unit)) {
      st.has_read = true;
      st.read_slot = *r;
      sig_read_.remove(unit);
    }
    if (const Slot* w = sig_write_.find(unit)) {
      st.has_write = true;
      st.write_slot = *w;
      sig_write_.remove(unit);
    }
    return st;
  }

  void adopt_state(std::uint64_t unit, const AddrState& st) {
    if (st.has_read)
      note(sig_read_.insert(unit, st.read_slot), read_log_, unit);
    if (st.has_write)
      note(sig_write_.insert(unit, st.write_slot), write_log_, unit);
  }

 private:
  /// Algorithm 1 for a run of `reps` identical instances of `ev`, folded.
  /// Expanding the run would process the instances back to back, with no
  /// other access in between, so the run's effect is known after its first
  /// instance:
  ///
  ///  - reads never touch the write store, so every instance of a read run
  ///    finds the same write slot (RAW x reps), and re-inserting the same
  ///    read slot changes nothing (insert once);
  ///  - the first instance of a write run finds the previous write (WAW) or
  ///    none (INIT); every instance finds the same read slot (WAR x reps);
  ///    instances 2..reps each find what the first one inserted and
  ///    re-insert it unchanged, so they all make the record the second
  ///    instance makes (x reps-1).  That record comes from a probe after
  ///    the insert, not from the inserted value, so it is whatever the
  ///    store answers — exact for every store, colliding signatures
  ///    included.
  ///
  /// Frees and burst marks are idempotent, so a run of them acts once.
  void process_run(const AccessEvent& ev, std::uint32_t reps) {
    const std::uint64_t unit = word_addr(ev.addr);
    if (ev.is_burst_mark()) {
      burst_mark();
      return;
    }
    if (ev.is_free()) {
      // Variable-lifetime analysis: obsolete addresses leave the signatures
      // so later re-use of the memory does not fabricate dependences.
      sig_read_.remove(unit);
      sig_write_.remove(unit);
      return;
    }
    const std::uint32_t tag = addr_tag(unit);
    const Slot slot = make_slot<Slot>(ev, tag, own_iter(ev));
    if (ev.is_write()) {
      write_source(ev, tag, sig_write_.find(unit), 1);
      if (const Slot* r = sig_read_.find(unit))
        emit(ev, tag, *r, DepType::kWar, reps);
      note(sig_write_.insert(unit, slot), write_log_, unit);
      if (reps > 1) write_source(ev, tag, sig_write_.find(unit), reps - 1);
    } else {
      // RAR dependences are ignored (Sec. III-B): most analyses do not need
      // them, so reads only consult the write signature.
      if (const Slot* w = sig_write_.find(unit))
        emit(ev, tag, *w, DepType::kRaw, reps);
      note(sig_read_.insert(unit, slot), read_log_, unit);
    }
  }

  /// The slot's `iter`: the event's window entry at its context's depth.
  /// Consecutive records share a context, so the depth lookup is cached
  /// for the last context seen.
  std::uint32_t own_iter(const AccessEvent& ev) {
    if (ev.ctx != depth_ctx_) {
      depth_ctx_ = ev.ctx;
      depth_ = nest_forest().depth(ev.ctx);
    }
    return depth_ >= 1 && depth_ <= kNestIters ? ev.iters[depth_ - 1] : 0;
  }

  /// Overhead-budget sampling: accesses were dropped before this point.
  /// Forget every recorded last access so no dependence is attributed
  /// across the unobserved gap — a stale source could name the wrong
  /// endpoint, and the subset contract tolerates missed edges only.
  ///
  /// An armed detector logs, per store, the unit of every insert that
  /// filled an empty entry, up to kLogCap, and the mark removes just those
  /// units from that store, so it costs what the burst wrote.  That is
  /// exact: every mark leaves both stores empty, so every entry occupied
  /// now was filled by a logged insert since.  Removing a unit a store no
  /// longer holds does nothing, and removing one from a signature slot a
  /// colliding unit now holds empties a slot the mark must empty anyway.
  /// With no log (an unarmed detector) or an overflowed one, both stores
  /// are cleared whole and the logs are armed for the next burst.
  /// Unsampled runs never mark, stay unarmed and pay one flag test per
  /// filled entry.  Out of line and cold: a mark is rare next to the
  /// accesses, so it stays out of the detect loop.
  [[gnu::cold, gnu::noinline]] void burst_mark() {
    if (logging_) {
      read_log_.drain(sig_read_);
      write_log_.drain(sig_write_);
    } else {
      sig_read_.clear();
      sig_write_.clear();
      read_log_.len = 0;
      write_log_.len = 0;
      logging_ = true;
    }
  }

  struct LogFree {
    void operator()(std::uint64_t* p) const {
      huge::free(p, kLogBytes);
      MemStats::instance().add(MemComponent::kSignatures,
                               -static_cast<std::int64_t>(kLogBytes));
    }
  };

  /// The units whose insert filled an empty entry of one store since the
  /// last mark.  The block comes from huge::alloc on the first append and
  /// is charged to kSignatures until the detector is destroyed.
  struct BurstLog {
    std::unique_ptr<std::uint64_t[], LogFree> units;
    std::size_t len = 0;

    /// False when the log is full.
    bool append(std::uint64_t unit) {
      if (len == kLogCap) return false;
      if (units == nullptr) {
        units.reset(static_cast<std::uint64_t*>(huge::alloc(kLogBytes)));
        MemStats::instance().add(MemComponent::kSignatures,
                                 static_cast<std::int64_t>(kLogBytes));
      }
      units[len++] = unit;
      return true;
    }

    void drain(Store& store) {
      for (std::size_t k = 0; k < len; ++k) store.remove(units[k]);
      len = 0;
    }
  };

  /// Logs `unit` when an insert filled an empty entry of an armed detector.
  void note(bool filled, BurstLog& log, std::uint64_t unit) {
    if (filled && logging_) [[unlikely]] log_unit(log, unit);
  }

  /// Out of line, so an unarmed detector pays only the flag test in note().
  [[gnu::noinline]] void log_unit(BurstLog& log, std::uint64_t unit) {
    // Overflow: the next mark clears both stores.
    if (!log.append(unit)) logging_ = false;
  }

  static constexpr std::size_t kLogBytes = kLogCap * sizeof(std::uint64_t);

  /// The write-store half of a write: WAW against the recorded write, or
  /// INIT when there is none, for `n` instances.
  void write_source(const AccessEvent& ev, std::uint32_t tag, const Slot* w,
                    std::uint64_t n) {
    if (w != nullptr)
      emit(ev, tag, *w, DepType::kWaw, n);
    else
      records_.add(init_key(ev), 0, DepAttribution{}, n);
  }

  /// Per-batch record accumulator: a small linear-probe table keyed by
  /// DepKey, applying DepMap::add's per-instance update rules locally.
  /// Flushing folds each entry into the map with DepMap::fold, whose result
  /// is exactly that of replaying the instances one add() at a time (every
  /// per-key update is a commutative join: flags OR, count sum, per-level
  /// loop max and bucket sums).  Probes are capped; a record that finds
  /// neither its key nor a free slot within the cap goes straight to the
  /// map, which keeps the table loss-free and bounded.
  ///
  /// The table lives as long as the detector.  Each slot carries the epoch
  /// of the batch that last claimed it, so starting a batch frees every
  /// slot with one increment, and flush() visits only the slots the batch
  /// claimed (the used list) instead of scanning all of them.  An entry is
  /// constructed when a batch claims its slot, so building a detector
  /// writes the 512-byte tag array, not the 35 KiB of entries.
  class RecordTable {
   public:
    // Power of two (the probe sequence masks); sized for the instantaneous
    // key set of a hot loop (tens of keys), not the whole program's map.
    static constexpr std::size_t kSlots = 128;
    static constexpr std::size_t kMaxProbe = 8;
    static_assert((kSlots & (kSlots - 1)) == 0);

    RecordTable() {}  // leaves entries_ unwritten (see above)

    /// Starts a batch whose records fold into `deps`.
    void begin(DepMap& deps) {
      deps_ = &deps;
      used_count_ = 0;
      if (++epoch_ == 0) {
        // Wrapped: tag 0 is "never claimed", so clear every tag once.
        epochs_.fill(0);
        epoch_ = 1;
      }
    }

    /// Records `n` instances of one dependence (INIT included).
    void add(const DepKey& key, std::uint8_t flags, const DepAttribution& at,
             std::uint64_t n) {
      // A 128-slot table does not need DepKeyHash's full-strength mixing —
      // one multiply per field keeps this lookup cheaper than the map probe
      // it replaces; collisions just fall through to the map.
      std::size_t i =
          (key.sink_loc * 0x9E3779B9u + key.src_loc * 0x85EBCA6Bu +
           key.var * 0xC2B2AE35u + key.sink_tid + key.src_tid +
           static_cast<std::size_t>(key.type)) &
          (kSlots - 1);
      for (std::size_t probe = 0; probe < kMaxProbe; ++probe) {
        Entry* e;
        if (epochs_[i] != epoch_) {
          epochs_[i] = epoch_;
          used_[used_count_++] = static_cast<std::uint8_t>(i);
          e = ::new (&entries_[i * sizeof(Entry)]) Entry{key, DepInfo{}};
        } else {
          e = entry(i);
          if (!(e->key == key)) {
            i = (i + 1) & (kSlots - 1);
            continue;
          }
        }
        // The exact same per-instance update DepMap::add applies.
        apply_dep_instance(e->info, flags, at, n);
        return;
      }
      DepInfo spill;  // no room within the probe cap
      apply_dep_instance(spill, flags, at, n);
      deps_->fold(key, spill);
    }

    /// Folds the batch's entries into the map.
    void flush() {
      for (std::size_t k = 0; k < used_count_; ++k) {
        const Entry* e = entry(used_[k]);
        deps_->fold(e->key, e->info);
      }
    }

   private:
    static_assert(kSlots <= 256, "used_ stores slot indices as bytes");
    struct Entry {
      DepKey key;
      DepInfo info;
    };
    static_assert(std::is_trivially_destructible_v<Entry>);

    /// The entry of a slot some batch has claimed (and so constructed).
    Entry* entry(std::size_t i) {
      return std::launder(
          reinterpret_cast<Entry*>(&entries_[i * sizeof(Entry)]));
    }

    std::array<std::uint32_t, kSlots> epochs_{};  ///< 0 = never claimed
    std::array<std::uint8_t, kSlots> used_{};
    std::size_t used_count_ = 0;
    std::uint32_t epoch_ = 0;
    DepMap* deps_ = nullptr;
    alignas(Entry) unsigned char entries_[kSlots * sizeof(Entry)];
  };

  /// Records `n` instances of the dependence from recorded source `src` to
  /// the sink `sink_ev` (word-unit tag `sink_tag`).
  void emit(const AccessEvent& sink_ev, std::uint32_t sink_tag,
            const Slot& src, DepType type, std::uint64_t n) {
    DepAttribution at;
    const std::uint8_t flags = classify_dep(src, sink_ev, sink_tag, lca_, at);
    DepKey k;
    k.sink_loc = sink_ev.loc;
    k.src_loc = src.loc;
    k.var = sink_ev.var;
    k.sink_tid = sink_ev.tid;
    if constexpr (std::is_same_v<Slot, MtSlot>)
      k.src_tid = static_cast<std::uint16_t>(src.tid);
    k.type = type;
    records_.add(k, flags, at, n);
  }

  static DepKey init_key(const AccessEvent& sink) {
    DepKey k;
    k.sink_loc = sink.loc;
    k.src_loc = 0;
    k.var = sink.var;
    k.sink_tid = sink.tid;
    k.type = DepType::kInit;
    return k;
  }

  Store sig_read_;
  Store sig_write_;
  bool logging_;
  BurstLog read_log_;  ///< valid while logging_, as is write_log_
  BurstLog write_log_;
  RecordTable records_;
  NestLcaMemo lca_;
  std::uint32_t depth_ctx_ = NestForest::kRoot;  ///< own_iter's cached context
  std::uint32_t depth_ = 0;                      ///< and its depth
};

}  // namespace depprof
