#pragma once
// Chunks and the chunk recycling pool (Fig. 2).
//
// "The main thread ... collects memory accesses in chunks, whose size can be
// configured ...  Once a chunk is full, the main thread pushes it into the
// queue of the thread responsible for the accesses recorded in it. ...
// Empty chunks are recycled and can be reused."
//
// Besides data, chunks carry in-band pipeline commands: the stop sentinel
// and the two halves of the signature-state migration protocol used by the
// load balancer (Sec. IV-A).  Commands ride the same FIFO as data, which is
// what makes migration sound: a MIGRATE_OUT is processed only after every
// access the old owner had already been handed, and an ADOPT is processed
// before any access routed to the new owner afterwards.
//
// Ownership/epoch invariant (ISSUE 7): every chunk carries its current
// owner (pool / producer / queued-to-worker-w / worker-w) and a generation
// tag bumped per recycle.  Each hand-off validates the transition with a
// single atomic exchange, so a double pop, a wrong-worker delivery, or a
// stale recycle fires sched::note_violation immediately — the oracle
// harness fails any case whose run bumped that counter.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <new>
#include <type_traits>
#include <unordered_set>

#include "common/mem_stats.hpp"
#include "queue/queues.hpp"
#include "queue/wait_strategy.hpp"
#include "sched/sched.hpp"
#include "trace/event.hpp"

namespace depprof {

struct Chunk {
  enum class Kind : std::uint32_t {
    kData = 0,
    kStop = 1,        ///< worker shutdown sentinel
    kMigrateOut = 2,  ///< old owner: extract state for `addr` into mailbox `payload`
    kAdopt = 3,       ///< new owner: adopt state for `addr` from mailbox `payload`
  };

  /// Compile-time capacity; ProfilerConfig::chunk_size (<= this) sets the
  /// effective fill level.
  static constexpr std::size_t kCapacity = 1024;

  // Owner encodings for the hand-off invariant.  The low 16 bits carry the
  // worker index for the queued/worker states.
  static constexpr std::uint32_t kOwnerPool = 0;
  static constexpr std::uint32_t kOwnerProducer = 1;
  static constexpr std::uint32_t kOwnerQueued = 0x10000;
  static constexpr std::uint32_t kOwnerWorker = 0x20000;

  Kind kind = Kind::kData;
  std::uint32_t count = 0;    ///< events carried
  std::uint32_t payload = 0;  ///< migration mailbox index
  std::uint64_t addr = 0;     ///< migrated word unit
  /// Hand-off invariant state: current owner + recycle generation.
  std::atomic<std::uint32_t> owner{kOwnerPool};
  std::atomic<std::uint32_t> gen{0};

  /// The carried events, as delivered (byte addresses).  Only the first
  /// `count` are ever written or read.
  AccessEvent* data() {
    return std::launder(reinterpret_cast<AccessEvent*>(events_));
  }
  const AccessEvent* data() const {
    return std::launder(reinterpret_cast<const AccessEvent*>(events_));
  }

 private:
  // Raw storage rather than AccessEvent[]: AccessEvent has default member
  // initializers, so an array of it would be zero-filled (64 KiB) by every
  // `new Chunk`, and the pool builds hundreds of chunks before the target
  // runs.  AccessEvent is an implicit-lifetime type, so the bytes become
  // events as the producer copies them in.
  static_assert(std::is_trivially_copyable_v<AccessEvent> &&
                std::is_trivially_destructible_v<AccessEvent>);
  alignas(AccessEvent) unsigned char events_[kCapacity * sizeof(AccessEvent)];
};

// Pinned: sizeof(Chunk) is what MemStats charges per chunk, and the pool's
// allocations of it shape the target's heap, which the committed schedule
// in tests/corpus replays against.
static_assert(sizeof(Chunk) == 32 + Chunk::kCapacity * sizeof(AccessEvent));

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

/// Lock-free recycling pool of chunks.  Workers release consumed chunks;
/// producers acquire them back.
///
/// Sealed mode (sequential targets — the default pipeline): every chunk the
/// run can ever have in flight is allocated at construction, i.e. before
/// the instrumented target starts running, and an acquire that finds the
/// free list empty BLOCKS (wait_strategy ladder) for a recycled chunk
/// instead of allocating.  This is the fix for the workers=8
/// cross-attribution flake: schedule-dependent pool-miss allocations on the
/// main thread used to perturb the target's own heap layout mid-run, which
/// could shift a target allocation into modulo-signature aliasing range of
/// another array (see ROADMAP "root cause").  Steady-state profiling now
/// performs no allocation by construction — the property the paper's
/// lock-free design relies on, here load-bearing for correctness too.
///
/// Unsealed mode (MT targets, whose producer count is unbounded): the pool
/// may still grow on demand; at most `max_pooled` idle chunks are retained,
/// a release beyond that deletes the chunk.  Every live chunk — idle or in
/// flight — is charged to MemStats kQueues; the charge is dropped when the
/// chunk is deleted (spill or pool teardown).  The pool owns every chunk it
/// ever handed out, so teardown reclaims in-flight chunks too; the
/// owned-set lock is taken only on allocation and spill, never on the
/// steady-state acquire/release recycle path.
class ChunkPool {
 public:
  /// Default retention cap: 256 idle chunks = 16 MiB of chunk storage.
  explicit ChunkPool(std::size_t max_pooled = 256, std::size_t prealloc = 0,
                     bool sealed = false, WaitKind wait = WaitKind::kPark)
      : free_list_(std::max(max_pooled, prealloc)),
        sealed_(sealed),
        wait_(wait) {
    for (std::size_t i = 0; i < prealloc; ++i) {
      Chunk* c = allocate();
      if (free_list_.try_push(c))
        pooled_.fetch_add(1, std::memory_order_relaxed);
      else
        destroy(c);  // unreachable: capacity >= prealloc
    }
  }

  /// Acquires a recycled chunk.  Sealed pools block for one; unsealed pools
  /// allocate a fresh chunk when the free list is empty.  Every header
  /// field is reset here, so a recycled chunk can never leak a stale kind,
  /// fill level, or migration addressing into its next use.
  Chunk* acquire() {
    sched::point("pool.acquire");
    Chunk* c = nullptr;
    if (free_list_.try_pop(c)) {
      pooled_.fetch_sub(1, std::memory_order_relaxed);
    } else if (!sealed_) {
      c = allocate();
    } else {
      // Sealed: the fourth blocking site of the pipeline.  Workers always
      // drain and release, so waiting (not allocating) is deadlock-free —
      // and keeps the target's heap untouched mid-run.
      acquire_stalls_.fetch_add(1, std::memory_order_relaxed);
      wait_until(wait_, recycled_, [&] {
        if (!free_list_.try_pop(c)) return false;
        pooled_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      });
    }
    chunk_handoff(*c, Chunk::kOwnerPool, Chunk::kOwnerProducer,
                  "pool.acquire");
    c->gen.fetch_add(1, std::memory_order_relaxed);
    c->kind = Chunk::Kind::kData;
    c->count = 0;
    c->payload = 0;
    c->addr = 0;
    return c;
  }

  /// Returns a chunk for reuse, or frees it when the pool is at its cap.
  /// Valid prior owners: a worker (the normal recycle) or a producer (a
  /// staged chunk returned unsent).
  void release(Chunk* c) {
    sched::point("pool.release");
    const std::uint32_t prev =
        c->owner.exchange(Chunk::kOwnerPool, std::memory_order_acq_rel);
    if (prev != Chunk::kOwnerProducer &&
        (prev & Chunk::kOwnerWorker) == 0) {
      char what[96];
      std::snprintf(what, sizeof(what), "owner=0x%x gen=%u", prev,
                    c->gen.load(std::memory_order_relaxed));
      sched::note_violation("pool.release", what);
    }
    if (free_list_.try_push(c)) {
      pooled_.fetch_add(1, std::memory_order_relaxed);
      // A sealed-pool producer may be blocked in acquire().
      recycled_.notify_all();
      return;
    }
    destroy(c);
  }

  /// Live chunks (idle + in flight).  Constant for sealed pools — the
  /// no-steady-state-allocation invariant the regression tests pin down.
  std::size_t allocated() const {
    return allocated_.load(std::memory_order_relaxed);
  }

  /// Idle chunks currently retained in the free list.
  std::size_t pool_size() const {
    return pooled_.load(std::memory_order_relaxed);
  }

  /// Times acquire() found a sealed pool empty and had to wait.
  std::uint64_t acquire_stalls() const {
    return acquire_stalls_.load(std::memory_order_relaxed);
  }

  bool sealed() const { return sealed_; }

  ~ChunkPool() {
    for (Chunk* c : owned_) {
      delete c;
      MemStats::instance().add(MemComponent::kQueues,
                               -static_cast<std::int64_t>(sizeof(Chunk)));
    }
  }

 private:
  Chunk* allocate() {
    Chunk* c = new Chunk;  // default-init: the payload is not zero-filled
    {
      std::lock_guard lock(owned_mu_);
      owned_.insert(c);
    }
    allocated_.fetch_add(1, std::memory_order_relaxed);
    MemStats::instance().add(MemComponent::kQueues,
                             static_cast<std::int64_t>(sizeof(Chunk)));
    return c;
  }

  void destroy(Chunk* c) {
    {
      std::lock_guard lock(owned_mu_);
      owned_.erase(c);
    }
    delete c;
    allocated_.fetch_sub(1, std::memory_order_relaxed);
    MemStats::instance().add(MemComponent::kQueues,
                             -static_cast<std::int64_t>(sizeof(Chunk)));
  }

  MpmcQueue<Chunk*> free_list_;
  const bool sealed_;
  const WaitKind wait_;
  EventCount recycled_;
  std::mutex owned_mu_;
  std::unordered_set<Chunk*> owned_;
  std::atomic<std::size_t> allocated_{0};
  std::atomic<std::size_t> pooled_{0};
  std::atomic<std::uint64_t> acquire_stalls_{0};
};

}  // namespace depprof
