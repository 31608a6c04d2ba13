#include "trace/generators.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "trace/nest.hpp"

namespace depprof {
namespace {

AccessEvent make_event(std::uint64_t addr, bool write, std::uint32_t line,
                       std::uint16_t tid = 0, std::uint64_t ts = 0) {
  AccessEvent ev;
  ev.addr = addr;
  ev.kind = write ? AccessKind::kWrite : AccessKind::kRead;
  ev.loc = SourceLocation(1, line).packed();
  ev.var = 0;
  ev.tid = tid;
  ev.ts = ts;
  return ev;
}

/// The generators' stand-in for the runtime's per-thread loop stack: interns
/// dynamic entries into the process-wide nest forest and stamps events with
/// the innermost entry and its iteration, exactly as Runtime::record does.
class NestStamper {
 public:
  void push(std::uint32_t loop) {
    const Level parent = stack_.empty() ? Level{} : stack_.back();
    stack_.push_back({nest_forest().enter(parent.node, loop, parent.iter), 0});
  }
  void iter() {
    if (!stack_.empty()) ++stack_.back().iter;
  }
  void pop() {
    if (!stack_.empty()) stack_.pop_back();
  }
  void stamp(AccessEvent& ev) const {
    if (stack_.empty()) return;
    ev.ctx = stack_.back().node;
    ev.iter = stack_.back().iter;
  }

 private:
  struct Level {
    std::uint32_t node = 0;
    std::uint32_t iter = 0;
  };
  std::vector<Level> stack_;
};

void gen_nest_level(Trace& t, NestStamper& nest, const GenParams& p, Rng& rng,
                    std::uint32_t level, std::uint32_t depth,
                    std::size_t width) {
  nest.push(level * 10);  // static loop id per nest level
  // Some dynamic entries of inner loops execute zero iterations — the
  // begin/end markers fire but no body access or DP_LOOP_ITER does.
  if (level > 1 && rng.below(4) == 0) {
    nest.pop();
    return;
  }
  const std::uint64_t acc_addr = p.base_addr + level * p.stride;
  for (std::size_t it = 0; it < width; ++it) {
    // Per-level accumulator: read-then-write every iteration gives a
    // distance-1 carried RAW at exactly this level.
    AccessEvent rd = make_event(acc_addr, false, 40 + level * 4);
    nest.stamp(rd);
    t.events.push_back(rd);
    // Per-iteration slot: write-then-read inside one iteration is
    // iteration-independent (distance 0); the slot recurs every 5
    // iterations, adding a distance >= 2 carried WAW.
    const std::uint64_t slot =
        p.base_addr + (100 + level * 8 + it % 5) * p.stride;
    AccessEvent wr0 = make_event(slot, true, 41 + level * 4);
    nest.stamp(wr0);
    t.events.push_back(wr0);
    // Imperfect nest: the child loop sits between body accesses, and its
    // every dynamic entry is a fresh forest node (sibling re-entry).
    if (level < depth) gen_nest_level(t, nest, p, rng, level + 1, depth, width);
    AccessEvent rd0 = make_event(slot, false, 42 + level * 4);
    nest.stamp(rd0);
    t.events.push_back(rd0);
    AccessEvent wr = make_event(acc_addr, true, 43 + level * 4);
    nest.stamp(wr);
    t.events.push_back(wr);
    nest.iter();
  }
  nest.pop();
}

}  // namespace

Trace gen_uniform(const GenParams& p) {
  Rng rng(p.seed);
  Trace t;
  t.events.reserve(p.accesses);
  for (std::size_t i = 0; i < p.accesses; ++i) {
    const std::uint64_t idx = rng.below(p.distinct ? p.distinct : 1);
    const bool write = rng.uniform() < p.write_ratio;
    // Distinct source lines per (address bucket, kind) keep the dependence
    // space rich without being degenerate.
    const auto line = static_cast<std::uint32_t>(10 + (idx % 50) * 2 + (write ? 1 : 0));
    t.events.push_back(make_event(p.base_addr + idx * p.stride, write, line));
  }
  return t;
}

Trace gen_strided(const GenParams& p) {
  Rng rng(p.seed);
  Trace t;
  t.events.reserve(p.accesses);
  std::size_t i = 0;
  while (i < p.accesses) {
    for (std::size_t k = 0; k < p.distinct && i < p.accesses; ++k, ++i) {
      const bool write = rng.uniform() < p.write_ratio;
      const auto line = static_cast<std::uint32_t>(write ? 21 : 20);
      t.events.push_back(make_event(p.base_addr + k * p.stride, write, line));
    }
  }
  return t;
}

Trace gen_zipf(const GenParams& p, double s) {
  Rng rng(p.seed);
  const std::size_t n = p.distinct ? p.distinct : 1;
  // Build the Zipf CDF once; ranks are mapped to shuffled addresses so the
  // hot set is not contiguous in memory.
  std::vector<double> cdf(n);
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = sum;
  }
  for (auto& c : cdf) c /= sum;

  std::vector<std::uint64_t> addr_of_rank(n);
  for (std::size_t k = 0; k < n; ++k) addr_of_rank[k] = p.base_addr + k * p.stride;
  for (std::size_t k = n; k > 1; --k)
    std::swap(addr_of_rank[k - 1], addr_of_rank[rng.below(k)]);

  Trace t;
  t.events.reserve(p.accesses);
  for (std::size_t i = 0; i < p.accesses; ++i) {
    const double u = rng.uniform();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    const auto rank = static_cast<std::size_t>(it - cdf.begin());
    const bool write = rng.uniform() < p.write_ratio;
    const auto line = static_cast<std::uint32_t>(30 + (rank % 20) + (write ? 100 : 0));
    t.events.push_back(make_event(addr_of_rank[rank < n ? rank : n - 1], write, line));
  }
  return t;
}

Trace gen_loop(const GenParams& p, std::size_t iters, bool carried,
               std::uint32_t loop_id) {
  Trace t;
  const std::size_t len = p.distinct ? p.distinct : 1;
  t.events.reserve(iters * len * 2);
  NestStamper nest;
  nest.push(loop_id);
  for (std::size_t it = 0; it < iters; ++it) {
    for (std::size_t i = 0; i < len; ++i) {
      // Read a[i-1] (carried) or a[i] (independent), then write a[i].
      const std::size_t src = carried ? (i + len - 1) % len : i;
      AccessEvent rd = make_event(p.base_addr + src * p.stride, false, 40);
      nest.stamp(rd);
      t.events.push_back(rd);
      AccessEvent wr = make_event(p.base_addr + i * p.stride, true, 41);
      nest.stamp(wr);
      t.events.push_back(wr);
    }
    nest.iter();
  }
  return t;
}

Trace gen_nest(const GenParams& p, std::uint32_t depth, std::size_t width) {
  Trace t;
  Rng rng(p.seed);
  NestStamper nest;
  // Two sibling top-level nests: accesses shared across them exercise the
  // cross-loop (no common entry) attribution path.
  gen_nest_level(t, nest, p, rng, 1, depth ? depth : 1, width);
  gen_nest_level(t, nest, p, rng, 1, depth ? depth : 1, width);
  return t;
}

Trace gen_churn(const GenParams& p, double free_ratio, unsigned threads,
                std::size_t nest_depth) {
  Rng rng(p.seed);
  Trace t;
  t.events.reserve(p.accesses);
  const std::size_t pool = p.distinct ? p.distinct : 1;
  std::uint64_t ts = 1;
  NestStamper nest;
  for (std::size_t d = 1; d <= nest_depth; ++d)
    nest.push(static_cast<std::uint32_t>(200 + d));
  for (std::size_t i = 0; i < p.accesses; ++i) {
    if (nest_depth > 0 && i > 0) {
      // Walk the nest while churning: the innermost loop iterates every 16
      // events and is re-entered (fresh forest node, enclosing level
      // advances) every 64, so frees and reuse land in varied contexts.
      if (i % 64 == 0) {
        nest.pop();
        nest.iter();
        nest.push(static_cast<std::uint32_t>(200 + nest_depth));
      } else if (i % 16 == 0) {
        nest.iter();
      }
    }
    const std::uint64_t addr = p.base_addr + rng.below(pool) * p.stride;
    const double roll = rng.uniform();
    AccessEvent ev;
    ev.addr = addr;
    if (roll < free_ratio) {
      ev.kind = AccessKind::kFree;
    } else {
      const bool write = roll < free_ratio + (1.0 - free_ratio) * p.write_ratio;
      ev.kind = write ? AccessKind::kWrite : AccessKind::kRead;
      ev.loc = SourceLocation(1, 70 + static_cast<std::uint32_t>(rng.below(30)) +
                                     (write ? 100 : 0))
                   .packed();
      ev.var = static_cast<std::uint32_t>(rng.below(4));
    }
    if (threads > 0) {
      ev.tid = static_cast<std::uint16_t>(i % threads);
      ev.ts = ts++;
      // Lock-ordered interleaving: each access pushes atomically (Fig. 4),
      // so a single-threaded replay of this trace is order-faithful.
      ev.flags |= kInLockRegion;
    }
    nest.stamp(ev);
    t.events.push_back(ev);
  }
  return t;
}

Trace gen_mt_producer_consumer(const GenParams& p, unsigned threads,
                               std::size_t shared_addrs) {
  Rng rng(p.seed);
  Trace t;
  t.events.reserve(p.accesses);
  std::uint64_t ts = 1;
  const std::size_t per_thread = p.distinct / (threads ? threads : 1) + 1;
  for (std::size_t i = 0; i < p.accesses; ++i) {
    const auto tid = static_cast<std::uint16_t>(i % threads);
    const bool shared = shared_addrs > 0 && rng.uniform() < 0.2;
    std::uint64_t addr;
    bool write;
    if (shared) {
      // Neighbour communication: thread t writes slot s, thread t+1 reads it.
      const std::uint64_t s = rng.below(shared_addrs);
      addr = p.base_addr + (p.distinct + s) * p.stride;
      // Writers are even interleaving steps, readers odd — produces a stable
      // producer(t) -> consumer(t+1 mod T) RAW pattern.
      write = (s + tid) % 2 == 0;
    } else {
      addr = p.base_addr + (tid * per_thread + rng.below(per_thread)) * p.stride;
      write = rng.uniform() < p.write_ratio;
    }
    AccessEvent ev = make_event(addr, write, shared ? 60 : 50 + tid, tid, ts++);
    ev.flags = kInLockRegion;
    t.events.push_back(ev);
  }
  return t;
}

}  // namespace depprof
