#pragma once
// The loop-nest forest — interned dynamic loop entries.
//
// Every dynamic entry of a loop (one execution of its DP_LOOP_BEGIN) is
// interned as one node of a global append-only forest: (parent entry,
// static loop id, depth, parent iteration).  An access event then carries
// a single 32-bit context id — the innermost enclosing entry — and that
// entry's iteration instead of a fixed number of (loop, entry, iteration)
// triples, so arbitrarily deep nests cost the same eight bytes per event
// (PROMPT's LoopHierarchy contexts work the same way).
//
// The attribution question the detector asks — "which loop carries this
// dependence?" — becomes a lowest-common-ancestor walk over two context
// ids: the innermost *common* entry of source and sink is the innermost
// loop whose iteration space contains both endpoints, and the carried
// distance is the difference of their iteration counters at that level
// (every level strictly above the common entry has, by construction, equal
// counters for both endpoints, so the common entry is the *only* candidate
// carrier).  The walk only needs parent and depth lookups, which this
// forest serves lock-free.
//
// Each node also keeps `parent_iter`, the iteration its parent entry was in
// when this entry began.  That is every enclosing counter an access can
// carry: while a loop is innermost only its own counter moves, so for an
// event in context N and every enclosing level k above N, the counter of
// level k is parent_iter of N's ancestor at depth k+1, at any depth.  An
// access therefore carries only its context and that context's own
// iteration (trace/event.hpp); the detector finds either endpoint's counter
// at a common loop in the forest (core/detector.hpp).
//
// Growth and lifetime: one node per dynamic loop entry — the same rate the
// previous design burned its process-unique `entry` counter at.  Nodes are
// appended under a mutex (loop entry is already a slow path that takes the
// control-flow lock) and never mutated or freed afterwards, so readers need
// no synchronization beyond an acquire load of the size: context ids stay
// valid process-wide, across Runtime::reset() epochs, which is what lets
// in-memory traces and replay reuse them.  Storage is chunked so appends
// never move published nodes.

#include <atomic>
#include <cstdint>
#include <mutex>

namespace depprof {

class NestForest {
 public:
  /// Node id 0: the synthetic root ("not in any loop").
  static constexpr std::uint32_t kRoot = 0;

  struct Node {
    std::uint32_t parent = 0;  ///< enclosing entry (kRoot at top level)
    std::uint32_t loop = 0;    ///< static loop id (packed begin location)
    std::uint32_t depth = 0;   ///< nest depth; root = 0, top-level loops = 1
    /// Iteration of the parent entry when this entry began (0 under the
    /// root).
    std::uint32_t parent_iter = 0;
  };

  NestForest();
  NestForest(const NestForest&) = delete;
  NestForest& operator=(const NestForest&) = delete;
  ~NestForest();

  /// Interns a fresh dynamic entry of loop `loop`, begun in iteration
  /// `parent_iter` of entry `parent`; returns its id.  Thread-safe.
  std::uint32_t enter(std::uint32_t parent, std::uint32_t loop,
                      std::uint32_t parent_iter);

  /// Node lookup.  `id` must be < size(); id kRoot is always valid.
  const Node& node(std::uint32_t id) const {
    return chunk_[id >> kChunkShift].load(std::memory_order_acquire)
        [id & (kChunkNodes - 1)];
  }
  std::uint32_t parent(std::uint32_t id) const { return node(id).parent; }
  std::uint32_t loop(std::uint32_t id) const { return node(id).loop; }
  std::uint32_t depth(std::uint32_t id) const { return node(id).depth; }
  std::uint32_t parent_iter(std::uint32_t id) const {
    return node(id).parent_iter;
  }

  /// Nodes interned so far (ids are 0..size()-1, root included).
  std::uint32_t size() const { return size_.load(std::memory_order_acquire); }

 private:
  static constexpr std::uint32_t kChunkShift = 12;
  static constexpr std::uint32_t kChunkNodes = 1u << kChunkShift;  // 4096
  /// 2^20 chunks x 4096 nodes covers the full 32-bit id space.
  static constexpr std::uint32_t kMaxChunks = 1u << 20;

  std::mutex mu_;
  std::atomic<std::uint32_t> size_{0};
  std::atomic<Node*>* chunk_;  // kMaxChunks pointers, allocated lazily
};

/// The process-wide forest every runtime, generator, and replayer interns
/// into (the var_registry() pattern).
NestForest& nest_forest();

}  // namespace depprof
