#include "trace/nest.hpp"

#include <new>

namespace depprof {

NestForest::NestForest() {
  chunk_ = new std::atomic<Node*>[kMaxChunks];
  for (std::uint32_t i = 0; i < kMaxChunks; ++i)
    chunk_[i].store(nullptr, std::memory_order_relaxed);
  // Intern the root eagerly so node(kRoot) is always valid.
  Node* first = new Node[kChunkNodes];
  first[0] = Node{};
  chunk_[0].store(first, std::memory_order_release);
  size_.store(1, std::memory_order_release);
}

NestForest::~NestForest() {
  for (std::uint32_t i = 0; i < kMaxChunks; ++i)
    delete[] chunk_[i].load(std::memory_order_relaxed);
  delete[] chunk_;
}

std::uint32_t NestForest::enter(std::uint32_t parent, std::uint32_t loop,
                                std::uint32_t parent_iter) {
  std::lock_guard lock(mu_);
  const std::uint32_t id = size_.load(std::memory_order_relaxed);
  const std::uint32_t c = id >> kChunkShift;
  Node* nodes = chunk_[c].load(std::memory_order_relaxed);
  if (nodes == nullptr) {
    nodes = new Node[kChunkNodes];
    chunk_[c].store(nodes, std::memory_order_release);
  }
  Node& n = nodes[id & (kChunkNodes - 1)];
  n.parent = parent < id ? parent : kRoot;  // parents precede children
  n.loop = loop;
  n.depth = node(n.parent).depth + 1;
  n.parent_iter = n.parent == kRoot ? 0 : parent_iter;
  // Publish after the node is fully written: readers gate on size().
  size_.store(id + 1, std::memory_order_release);
  return id;
}

NestForest& nest_forest() {
  static NestForest* forest = new NestForest();  // never destroyed (see hpp)
  return *forest;
}

}  // namespace depprof
