#pragma once
// Bounded concurrent queue interface.
//
// The pipeline of Fig. 2 buffers chunks of memory accesses in one queue per
// worker.  "Since the major synchronization overhead comes from locking and
// unlocking the queues, we made the queues lock-free to lower the overhead."
// Fig. 5 compares the lock-based and lock-free designs; we keep both as
// first-class implementations behind this interface.  Queue operations are
// per *chunk*, so the virtual dispatch here is off the per-access fast path.

#include <cstddef>
#include <cstdint>

namespace depprof {

enum class QueueKind {
  kLockFreeSpsc,  ///< single-producer/single-consumer ring (sequential targets)
  kLockFreeMpmc,  ///< Vyukov bounded MPMC (multi-threaded targets, chunk pool)
  kMutex,         ///< lock-based baseline (Fig. 5 "8T_lock-based" series)
};

/// Bounded FIFO of T.  Implementations are linearizable for the producer/
/// consumer multiplicities they advertise.
template <typename T>
class ConcurrentQueue {
 public:
  virtual ~ConcurrentQueue() = default;

  /// Non-blocking push; false when the queue is full.
  virtual bool try_push(const T& value) = 0;

  /// Non-blocking pop; false when the queue is empty.
  virtual bool try_pop(T& out) = 0;

  /// Approximate number of queued elements (statistics only).
  virtual std::size_t size_approx() const = 0;

  virtual std::size_t capacity() const = 0;
};

}  // namespace depprof
