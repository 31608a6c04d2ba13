#pragma once
// Chunks and the chunk recycling pool (Fig. 2).
//
// "The main thread ... collects memory accesses in chunks, whose size can be
// configured ...  Once a chunk is full, the main thread pushes it into the
// queue of the thread responsible for the accesses recorded in it. ...
// Empty chunks are recycled and can be reused."
//
// A data chunk holds (part of) one delivered batch: its events in program
// order, their dedup run lengths, and each record's owner, the worker that
// formula 1 or the load balancer routed it to.  The producer routes the
// batch once and pushes the chunk to every worker that owns a record in it,
// and to every worker when it holds a burst mark.  Each of those workers
// keeps the records it owns; the last one to finish releases the chunk.
// Every address still has exactly one owner, whose FIFO delivers its
// accesses in program order.
//
// Besides data, chunks carry in-band pipeline commands: the stop sentinel
// and the two halves of the signature-state migration protocol used by the
// load balancer (Sec. IV-A).  Commands ride the same FIFO as data, which is
// what makes migration sound: a MIGRATE_OUT is processed only after every
// access the old owner had already been handed, and an ADOPT is processed
// before any access routed to the new owner afterwards.
//
// Ownership invariant: every chunk carries its state (pool / producer /
// published), the set of workers it was pushed to that have not popped it
// yet, the count of consumers that have not finished with it, and a
// generation tag bumped per recycle.  A pop by a worker outside the set (one
// that owns no record of the chunk, or pops it a second time), a pop of a
// chunk that is not published, and a release before the last consumer
// finished each fire sched::note_violation immediately — the oracle harness
// fails any case whose run bumped that counter.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <new>
#include <type_traits>
#include <vector>

#include "common/mem_stats.hpp"
#include "queue/queues.hpp"
#include "queue/wait_strategy.hpp"
#include "sched/sched.hpp"
#include "trace/event.hpp"
#include "trace/event_buffer.hpp"

namespace depprof {

struct Chunk {
  enum class Kind : std::uint32_t {
    kData = 0,
    kStop = 1,        ///< worker shutdown sentinel
    kMigrateOut = 2,  ///< old owner: extract state for `addr` into mailbox `payload`
    kAdopt = 3,       ///< new owner: adopt state for `addr` from mailbox `payload`
  };

  /// Records per chunk: one delivered batch.  ProfilerConfig::chunk_size
  /// (<= this) sets the effective fill level; a smaller one splits a batch.
  static constexpr std::size_t kCapacity = EventBuffer::kCapacity;

  // Hand-off states of the ownership invariant.
  static constexpr std::uint32_t kOwnerPool = 0;
  static constexpr std::uint32_t kOwnerProducer = 1;
  static constexpr std::uint32_t kOwnerPublished = 2;

  // Cache-line alignment from a plain allocation: the pool builds hundreds
  // of chunks before the target runs, and the allocator's aligned path
  // costs more per call.  The raw block's address sits just below the
  // chunk.
  static void* operator new(std::size_t bytes) {
    void* raw = ::operator new(bytes + alignof(Chunk));
    const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(raw);
    void* chunk = reinterpret_cast<void*>((base + alignof(Chunk)) &
                                          ~std::uintptr_t{alignof(Chunk) - 1});
    static_cast<void**>(chunk)[-1] = raw;
    return chunk;
  }
  static void operator delete(void* chunk) {
    ::operator delete(static_cast<void**>(chunk)[-1]);
  }

  Kind kind = Kind::kData;
  std::uint32_t count = 0;    ///< records carried
  std::uint32_t payload = 0;  ///< migration mailbox index
  bool marks = false;         ///< carries a burst mark (goes to every worker)
  bool runs = false;          ///< reps holds the batch's dedup run lengths
  /// Hand-off invariant state and recycle generation.
  std::atomic<std::uint32_t> owner{kOwnerPool};
  std::uint64_t addr = 0;     ///< migrated word unit
  std::atomic<std::uint32_t> gen{0};
  /// Targets that have not finished with the chunk.
  std::atomic<std::uint32_t> pending{0};
  /// Targets that have not popped the chunk yet, a bit per worker.
  std::atomic<std::uint64_t> targets{0};

  // Only the first `count` entries of each array are ever written or read.
  /// Dedup run length of each record; valid when `runs` is set (a batch
  /// without runs is all 1s and leaves the array unwritten).
  std::uint32_t reps[kCapacity];
  /// The worker each record is routed to.
  std::uint8_t owners[kCapacity];

  /// The carried records, as delivered (byte addresses).
  AccessEvent* data() {
    return std::launder(reinterpret_cast<AccessEvent*>(events_));
  }
  const AccessEvent* data() const {
    return std::launder(reinterpret_cast<const AccessEvent*>(events_));
  }

 private:
  // Raw storage rather than AccessEvent[]: AccessEvent has default member
  // initializers, so an array of it would be zero-filled by every
  // `new Chunk`, and the pool builds hundreds of chunks before the target
  // runs.  AccessEvent is an implicit-lifetime type, so the bytes become
  // events as the producer copies them in: 40 bytes each, 10 KiB per chunk.
  static_assert(std::is_trivially_copyable_v<AccessEvent> &&
                std::is_trivially_destructible_v<AccessEvent>);
  alignas(64) unsigned char events_[kCapacity * sizeof(AccessEvent)];
};

// Pinned: sizeof(Chunk) is what MemStats charges per chunk, and the pool's
// allocations of it shape the target's heap, which the committed schedule
// in tests/corpus replays against.
static_assert(sizeof(Chunk) ==
              64 + Chunk::kCapacity * (sizeof(AccessEvent) +
                                       sizeof(std::uint32_t) +
                                       sizeof(std::uint8_t)));

/// Validates one ownership hand-off: atomically installs `next` and flags a
/// violation when the chunk was not in the expected prior state.  Always on
/// — one exchange per chunk per hop, nowhere near the per-event path.
inline void chunk_handoff(Chunk& c, std::uint32_t expect, std::uint32_t next,
                          const char* site) {
  const std::uint32_t prev =
      c.owner.exchange(next, std::memory_order_acq_rel);
  if (prev != expect) {
    char what[96];
    std::snprintf(what, sizeof(what), "owner=0x%x expected=0x%x gen=%u",
                  prev, expect, c.gen.load(std::memory_order_relaxed));
    sched::note_violation(site, what);
  }
}

/// Publishes `c` to the workers in `targets`, a bit per worker: arms the
/// consumer count and hands the chunk from the producer to their queues.
inline void chunk_publish(Chunk& c, std::uint64_t targets) {
  c.targets.store(targets, std::memory_order_relaxed);
  c.pending.store(static_cast<std::uint32_t>(std::popcount(targets)),
                  std::memory_order_relaxed);
  chunk_handoff(c, Chunk::kOwnerProducer, Chunk::kOwnerPublished,
                "queue.push");
}

/// Worker `w` took `c` off its queue.  A chunk that is not published, or a
/// worker outside its target set (one that owns no record of it, or pops it
/// a second time), fires the invariant counter here, before the chunk's
/// contents can pollute the local signatures.
inline void chunk_pop(Chunk& c, unsigned w) {
  const std::uint64_t bit = std::uint64_t{1} << w;
  const bool target =
      (c.targets.fetch_and(~bit, std::memory_order_relaxed) & bit) != 0;
  const std::uint32_t state = c.owner.load(std::memory_order_acquire);
  if (target && state == Chunk::kOwnerPublished) return;
  char what[96];
  std::snprintf(what, sizeof(what), "worker=%u owner=0x%x gen=%u", w, state,
                c.gen.load(std::memory_order_relaxed));
  sched::note_violation("queue.pop", what);
}

/// A consumer is done with `c`.  True for the last one, which releases it.
inline bool chunk_done(Chunk& c) {
  return c.pending.fetch_sub(1, std::memory_order_acq_rel) == 1;
}

/// Lock-free recycling pool of chunks.  Workers release consumed chunks;
/// producers acquire them back.
///
/// Every chunk the run can ever have in flight is allocated at
/// construction, i.e. before the instrumented target starts running, and
/// an acquire that finds the free list empty BLOCKS (wait_strategy ladder)
/// for a recycled chunk instead of allocating.  This is the fix for the
/// workers=8 cross-attribution flake: schedule-dependent pool-miss
/// allocations on the main thread used to perturb the target's own heap
/// layout mid-run, which could shift a target allocation into
/// modulo-signature aliasing range of another array (see ROADMAP "root
/// cause").  Steady-state profiling performs no allocation by construction
/// — the property the paper's lock-free design relies on, here
/// load-bearing for correctness too.
///
/// Waiting cannot deadlock, whatever the number of producer threads (MT
/// targets): a producer holds at most one chunk, and only inside publish(),
/// so a producer blocked here holds none, just like one blocked on a full
/// queue; workers never acquire, and release each chunk once its last
/// consumer has gathered it.  Every chunk is charged to MemStats kQueues
/// from construction to teardown.
class ChunkPool {
 public:
  ChunkPool(std::size_t count, WaitKind wait)
      : free_list_(count), wait_(wait) {
    chunks_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      chunks_.push_back(new Chunk);  // default-init: payload not zero-filled
      (void)free_list_.try_push(chunks_.back());  // capacity >= count
    }
    MemStats::instance().add(MemComponent::kQueues, charge());
  }

  /// Acquires a recycled chunk, blocking while every chunk is in flight.
  /// Every header field is reset here, so a recycled chunk can never leak a
  /// stale kind, fill level, target set or migration addressing into its
  /// next use.
  Chunk* acquire() {
    sched::point("pool.acquire");
    Chunk* c = nullptr;
    if (!free_list_.try_pop(c)) {
      // The fourth blocking site of the pipeline.  Workers always drain and
      // release, so waiting (not allocating) is deadlock-free — and keeps
      // the target's heap untouched mid-run.
      acquire_stalls_.fetch_add(1, std::memory_order_relaxed);
      wait_until(wait_, recycled_, [&] { return free_list_.try_pop(c); });
    }
    chunk_handoff(*c, Chunk::kOwnerPool, Chunk::kOwnerProducer,
                  "pool.acquire");
    c->gen.fetch_add(1, std::memory_order_relaxed);
    c->kind = Chunk::Kind::kData;
    c->count = 0;
    c->payload = 0;
    c->marks = false;
    c->runs = false;
    c->addr = 0;
    c->pending.store(0, std::memory_order_relaxed);
    c->targets.store(0, std::memory_order_relaxed);
    return c;
  }

  /// Returns a chunk for reuse.  Valid prior states: published with every
  /// consumer finished (the normal recycle) or producer-owned (a chunk
  /// returned unsent).
  void release(Chunk* c) {
    sched::point("pool.release");
    const std::uint32_t prev =
        c->owner.exchange(Chunk::kOwnerPool, std::memory_order_acq_rel);
    const std::uint32_t pending = c->pending.load(std::memory_order_relaxed);
    if (prev != Chunk::kOwnerProducer &&
        (prev != Chunk::kOwnerPublished || pending != 0)) {
      char what[96];
      std::snprintf(what, sizeof(what), "owner=0x%x pending=%u gen=%u", prev,
                    pending, c->gen.load(std::memory_order_relaxed));
      sched::note_violation("pool.release", what);
    }
    (void)free_list_.try_push(c);  // room for every chunk
    // A producer may be blocked in acquire().
    recycled_.notify_all();
  }

  /// Chunks the pool owns, idle or in flight; fixed at construction.
  std::size_t allocated() const { return chunks_.size(); }

  /// Idle chunks on the free list (approximate while threads run).
  std::size_t pool_size() const { return free_list_.size_approx(); }

  /// Times acquire() found the pool empty and had to wait.
  std::uint64_t acquire_stalls() const {
    return acquire_stalls_.load(std::memory_order_relaxed);
  }

  ~ChunkPool() {
    for (Chunk* c : chunks_) delete c;
    MemStats::instance().add(MemComponent::kQueues, -charge());
  }

  ChunkPool(const ChunkPool&) = delete;
  ChunkPool& operator=(const ChunkPool&) = delete;

 private:
  std::int64_t charge() const {
    return static_cast<std::int64_t>(chunks_.size() * sizeof(Chunk));
  }

  MpmcQueue<Chunk*> free_list_;
  const WaitKind wait_;
  EventCount recycled_;
  std::vector<Chunk*> chunks_;
  std::atomic<std::uint64_t> acquire_stalls_{0};
};

}  // namespace depprof
