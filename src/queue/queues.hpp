#pragma once
// Umbrella header: all queue implementations plus the factory.

#include <memory>

#include "queue/concurrent_queue.hpp"
#include "queue/mpmc_queue.hpp"
#include "queue/mutex_queue.hpp"
#include "queue/spsc_queue.hpp"

namespace depprof {

/// Factory; `capacity` is rounded up to a power of two.
template <typename T>
std::unique_ptr<ConcurrentQueue<T>> make_queue(QueueKind kind, std::size_t capacity) {
  switch (kind) {
    case QueueKind::kLockFreeSpsc:
      return std::make_unique<SpscQueue<T>>(capacity);
    case QueueKind::kLockFreeMpmc:
      return std::make_unique<MpmcQueue<T>>(capacity);
    case QueueKind::kMutex:
      return std::make_unique<MutexQueue<T>>(capacity);
  }
  return nullptr;
}

inline const char* queue_kind_name(QueueKind kind) {
  switch (kind) {
    case QueueKind::kLockFreeSpsc: return "lock-free-spsc";
    case QueueKind::kLockFreeMpmc: return "lock-free-mpmc";
    case QueueKind::kMutex: return "mutex";
  }
  return "?";
}

}  // namespace depprof
