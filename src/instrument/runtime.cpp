#include "instrument/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/hash.hpp"
#include "common/timer.hpp"
#include "trace/nest.hpp"

namespace depprof {

Runtime& Runtime::instance() {
  static Runtime rt;
  return rt;
}

Runtime::ThreadState::~ThreadState() {
  Runtime::instance().forget_thread(*this);
}

Runtime::ThreadState& Runtime::local_state() {
  thread_local ThreadState state;
  return state;
}

Runtime::ThreadState& Runtime::thread_state() {
  ThreadState& ts = local_state();
  if (ts.generation != generation_.load(std::memory_order_acquire))
    refresh(ts);
  return ts;
}

void Runtime::refresh(ThreadState& ts) {
  std::lock_guard lock(buffers_mu_);
  if (!ts.registered) {
    threads_.push_back(&ts);
    ts.registered = true;
  }
  if (ts.epoch != epoch_) {
    ts.epoch = epoch_;
    ts.lock_depth = 0;
    ts.loop_stack.clear();
    ts.call_stack.clear();
    ts.tmpl = AccessEvent{};
    ts.tmpl.tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
  }
  ts.generation = generation_.load(std::memory_order_relaxed);
  ts.sink = sink_;
  ts.mt = mt_mode_;
  ts.dedup = dedup_;
  ts.sampling = sampling_on_;
  ts.adaptive = adaptive_;
  ts.budget = budget_target_;
  // Whatever the buffer still holds was recorded for an earlier session.
  ts.buffer.discard();
  ts.cache.invalidate_all();
  ts.unit_pos = 0;
  ts.unit_off = false;
  ts.pending_gap = false;
  ts.sampled_out = 0;
  ts.gaps_closed = 0;
  ts.ctl_wall_ns = 0;
  ts.ctl_cost_ns = 0;
  ts.ctl_ewma = 0.0;
}

void Runtime::publish_sampling(ThreadState& ts) {
  if (ts.sampled_out == 0 && ts.gaps_closed == 0) return;
  sampled_out_.fetch_add(ts.sampled_out, std::memory_order_relaxed);
  gaps_closed_.fetch_add(ts.gaps_closed, std::memory_order_relaxed);
  ts.sampled_out = 0;
  ts.gaps_closed = 0;
}

void Runtime::flush(ThreadState& ts, bool unlock) {
  FlushSection section(*this, ts);
  if (AccessSink* sink = section.sink()) {
    ts.buffer.flush(*sink);
    if (unlock) sink->on_unlock(ts.tmpl.tid);
    publish_sampling(ts);
  } else {
    ts.buffer.discard();
  }
  ts.cache.invalidate_all();
}

void Runtime::forget_thread(ThreadState& ts) {
  // A thread exiting mid-session must not drop its tail of buffered events.
  // A pending gap dies with the thread: no later event of this thread can be
  // attributed across it, so no closing marker is needed.
  flush(ts, /*unlock=*/false);
  std::lock_guard lock(buffers_mu_);
  threads_.erase(std::remove(threads_.begin(), threads_.end(), &ts),
                 threads_.end());
}

void Runtime::drain_in_flight_locked() {
  for (ThreadState* ts : threads_)
    while (ts->in_flight.load(std::memory_order_seq_cst)) {
    }
}

void Runtime::attach(AccessSink* sink, bool mt_mode, bool dedup,
                     SamplingConfig sampling) {
  std::lock_guard lock(buffers_mu_);
  mt_mode_ = mt_mode;
  // In mt_mode every event carries a fresh timestamp, so no two events are
  // ever identical — the cache could only miss.  Keep it off entirely.
  dedup_ = dedup && !mt_mode;
  // Sampling is sequential-target only: a per-thread unit boundary cannot
  // cut an MT trace consistently across threads.
  sampling_on_ = sampling.enabled() && !mt_mode;
  adaptive_ = sampling_on_ && sampling.budget < 1.0;
  budget_target_ = sampling.budget;
  sink_ = sink;
  // Each thread rebinds to the new session at its next access.  A session
  // replaced without detach() receives nothing once the drain has passed.
  generation_.fetch_add(1, std::memory_order_seq_cst);
  drain_in_flight_locked();
  // No thread can rebind before the lock is released, so nothing of the
  // new session has touched the shared schedule or the totals yet.
  sampling_burst_.store(std::max(1u, sampling.burst),
                        std::memory_order_relaxed);
  sampling_skip_.store(sampling_on_ ? sampling.skip : 0,
                       std::memory_order_relaxed);
  measured_overhead_ppm_.store(0, std::memory_order_relaxed);
  sampled_out_.store(0, std::memory_order_relaxed);
  gaps_closed_.store(0, std::memory_order_relaxed);
  enabled_.store(sink != nullptr, std::memory_order_release);
}

void Runtime::detach() {
  enabled_.store(false, std::memory_order_release);
  AccessSink* sink = nullptr;
  bool sampled = false;
  {
    std::lock_guard lock(buffers_mu_);
    sink = std::exchange(sink_, nullptr);
    sampled = sampling_on_;
    mt_mode_ = dedup_ = sampling_on_ = adaptive_ = false;
    const std::uint64_t ended =
        generation_.fetch_add(1, std::memory_order_seq_cst);
    // The caller's own tail: no other thread touches this buffer, so it
    // needs no handshake — only the check that it belongs to this session.
    ThreadState& self = local_state();
    if (sink != nullptr && self.generation == ended) {
      self.buffer.flush(*sink);
      publish_sampling(self);
    }
    drain_in_flight_locked();
  }
  if (sink == nullptr) return;
  if (sampled)
    sink->on_sampling_stats(
        sampled_out_.load(std::memory_order_relaxed),
        gaps_closed_.load(std::memory_order_relaxed),
        measured_overhead_ppm_.load(std::memory_order_relaxed));
  sink->finish();
}

void Runtime::close_gap(ThreadState& ts) {
  ts.pending_gap = false;
  ts.gaps_closed += 1;
  // The marker precedes the first kept event after any drop — whatever that
  // event is, loop-body or root-level.  Without it the kept event would be
  // detected against store state recorded before the gap, which can emit a
  // dependence the unsampled run attributes to a (dropped) later source —
  // an extra key, breaking the subset contract.
  AccessEvent& mark = ts.buffer.next_slot();
  mark = AccessEvent{};
  mark.kind = AccessKind::kBurstMark;
  mark.tid = ts.tmpl.tid;
  if (ts.buffer.commit()) flush(ts, /*unlock=*/false);
  // The marker clears all detection state downstream, so no post-gap repeat
  // may merge into a pre-gap buffered record.
  ts.cache.invalidate_all();
}

void Runtime::record(const void* addr, std::size_t size, std::uint32_t file,
                     std::uint32_t line, std::uint32_t var, bool is_write) {
  (void)size;
  ThreadState& ts = thread_state();
  if (ts.sink == nullptr) return;  // no session: the runtime is detached
  if (ts.unit_off && !ts.loop_stack.empty()) {
    // Inside a skipped sampling unit: drop without touching the buffer.
    ts.sampled_out += 1;
    ts.pending_gap = true;
    return;
  }
  if (ts.pending_gap) close_gap(ts);
  AccessEvent& ev = ts.buffer.next_slot();
  ev = ts.tmpl;
  ev.addr = reinterpret_cast<std::uintptr_t>(addr);
  ev.loc = SourceLocation(file, line).packed();
  ev.var = var;
  ev.kind = is_write ? AccessKind::kWrite : AccessKind::kRead;
  if (ts.mt) ev.ts = timestamp_.fetch_add(1, std::memory_order_relaxed);
  if (ts.dedup && dedup_eligible(ev)) {
    // Front-end redundancy elision: an exact repeat of the most recent
    // buffered access to this word only bumps that record's rep counter,
    // and the slot it was built in stays uncommitted.
    const std::uint64_t w = word_addr(ev.addr);
    const std::uint32_t idx = ts.cache.find(w);
    if (idx != DedupCache::kNoIndex &&
        same_access_identity(ts.buffer.at(idx), ev) && ts.buffer.bump_rep(idx))
      return;
    ts.cache.put(w, static_cast<std::uint32_t>(ts.buffer.size()));
    if (ts.buffer.commit()) flush(ts, /*unlock=*/false);
    return;
  }
  // Inside a lock region the access and its push must stay atomic (Fig. 4):
  // deliver immediately so no other thread can enter the region and push a
  // conflicting access first.
  if (ts.buffer.commit() || ts.lock_depth > 0) flush(ts, /*unlock=*/false);
}

void Runtime::record_free(const void* addr, std::size_t size) {
  ThreadState& ts = thread_state();
  if (ts.sink == nullptr) return;  // no session: the runtime is detached
  if (ts.unit_off && !ts.loop_stack.empty()) {
    // A free inside a skipped unit is dropped like any other event: the
    // burst marker that closes the gap clears strictly more state than the
    // free would have, so the subset contract is unaffected.
    ts.sampled_out += 1;
    ts.pending_gap = true;
    return;
  }
  if (ts.pending_gap) close_gap(ts);
  const auto base = reinterpret_cast<std::uintptr_t>(addr);
  // One lifetime event per 4-byte word overlapped by [base, base+size),
  // matching the signature's address granularity (hash_address discards the
  // low two bits).  The span is derived from word(base)..word(base+size-1):
  // an unaligned base straddles one more word than size/4 suggests, and a
  // final word left in the signatures would fabricate dependences when the
  // heap reuses the memory.
  const std::uint64_t first = word_addr(base);
  const std::uint64_t last = word_addr(base + (size > 0 ? size - 1 : 0));
  for (std::uint64_t w = first; w <= last; ++w) {
    // Lifetime boundary: a cached access to this word must not absorb a
    // repeat recorded after the heap recycles the memory — the repeat is a
    // fresh INIT, not another instance of the dead variable's access.
    ts.cache.invalidate_word(w);
    AccessEvent& ev = ts.buffer.next_slot();
    ev = AccessEvent{};
    ev.addr = w << 2;
    ev.kind = AccessKind::kFree;
    ev.tid = ts.tmpl.tid;
    if (ts.mt) ev.ts = timestamp_.fetch_add(1, std::memory_order_relaxed);
    // A free inside a lock region needs the same treatment as an access
    // (Fig. 4): flag it so the parallel producer keeps it on the in-order
    // immediate path, and push before the target can release the lock.
    // Without both, a lock-protected free travels the chunked path while
    // the accesses around it take the immediate one, and another thread's
    // post-free access can reach the detector before the free clears the
    // word — fabricating a dependence on the dead lifetime.
    ev.flags = ts.tmpl.flags;
    if (ts.buffer.commit() || ts.lock_depth > 0) flush(ts, /*unlock=*/false);
  }
}

void Runtime::begin_unit(ThreadState& ts) {
  const unsigned burst = sampling_burst_.load(std::memory_order_relaxed);
  // Cycle boundary: the finished B+K cycle is the controller's feedback
  // granularity (adaptive mode retunes the skip count here).
  if (ts.unit_pos == 0 && ts.adaptive) controller_tick(ts, burst);
  const unsigned skip = sampling_skip_.load(std::memory_order_relaxed);
  ts.unit_off = ts.unit_pos >= burst;
  ts.unit_pos += 1;
  if (ts.unit_pos >= std::uint64_t{burst} + skip) ts.unit_pos = 0;
}

void Runtime::controller_tick(ThreadState& ts, unsigned burst) {
  // The cost read and the retuned skip count belong to the thread's session:
  // neither may reach a sink or a session that has been detached since.
  FlushSection section(*this, ts);
  if (section.sink() == nullptr) return;
  const std::uint64_t now = WallTimer::now();
  const std::uint64_t cost = section.sink()->profiling_cost_ns();
  if (ts.ctl_wall_ns != 0 && now > ts.ctl_wall_ns && cost >= ts.ctl_cost_ns) {
    const std::uint64_t dwall = now - ts.ctl_wall_ns;
    const std::uint64_t dcost = cost - ts.ctl_cost_ns;
    if (dwall > dcost) {
      // Overhead of the finished cycle: profiling CPU over everything else
      // (target work + skipped units), o = Δcost / (Δwall − Δcost).
      const double o = static_cast<double>(dcost) /
                       static_cast<double>(dwall - dcost);
      ts.ctl_ewma = ts.ctl_ewma == 0.0 ? o : 0.5 * ts.ctl_ewma + 0.5 * o;
      measured_overhead_ppm_.store(
          static_cast<std::uint64_t>(ts.ctl_ewma * 1e6),
          std::memory_order_relaxed);
      // Overhead scales with the duty cycle d = B/(B+K): steering measured
      // overhead o toward the budget b means d_new = d * b / o, i.e.
      // K_new = B/d_new - B, clamped to a sane skip range.
      const unsigned skip = sampling_skip_.load(std::memory_order_relaxed);
      const double duty =
          static_cast<double>(burst) / static_cast<double>(burst + skip);
      double d_new = ts.ctl_ewma > 1e-12
                         ? duty * ts.budget / ts.ctl_ewma
                         : 1.0;
      if (d_new > 1.0) d_new = 1.0;
      const double k_raw =
          static_cast<double>(burst) / d_new - static_cast<double>(burst);
      long k_new = std::lround(k_raw);
      if (k_new < 0) k_new = 0;
      if (k_new > 1024) k_new = 1024;
      sampling_skip_.store(static_cast<unsigned>(k_new),
                           std::memory_order_relaxed);
    }
  }
  ts.ctl_wall_ns = now;
  ts.ctl_cost_ns = cost;
}

void Runtime::loop_begin(std::uint32_t file, std::uint32_t line) {
  ThreadState& ts = thread_state();
  ts.cache.invalidate_all();  // dedup never crosses a loop-context change
  // A fresh outermost-loop invocation starts a new sampling unit.
  if (ts.loop_stack.empty() && ts.sampling) begin_unit(ts);
  const std::uint32_t loc = SourceLocation(file, line).packed();
  const std::uint32_t parent_loop =
      ts.loop_stack.empty() ? 0 : ts.loop_stack.back().loop_id;
  const std::uint32_t parent_iter =
      ts.loop_stack.empty() ? 0 : ts.loop_stack.back().iter;
  // The template's context is the innermost entry (kRoot outside loops).
  const std::uint32_t node =
      nest_forest().enter(ts.tmpl.ctx, loc, parent_iter);
  ts.loop_stack.push_back({loc, node, 0});
  ts.tmpl.ctx = node;
  ts.tmpl.iter = 0;
  std::lock_guard lock(cf_mu_);
  auto [it, inserted] = loops_.try_emplace(loc);
  if (inserted) {
    it->second.loop_id = loc;
    it->second.begin_loc = loc;
  }
  it->second.entries += 1;
  nest_edges_[(static_cast<std::uint64_t>(parent_loop) << 32) | loc] += 1;
}

void Runtime::loop_iter() {
  ThreadState& ts = thread_state();
  ts.cache.invalidate_all();  // dedup never crosses an iteration advance
  if (ts.loop_stack.empty()) {
    // A thread entering mid-loop (MT targets) sees iteration markers of a
    // loop its own stack never opened; advancing nothing is the only safe
    // interpretation.  Counted so the harness can surface the mismatch.
    std::lock_guard lock(cf_mu_);
    stray_iters_ += 1;
    return;
  }
  // An outermost-loop iteration boundary ends one sampling unit and starts
  // the next (inner-loop iterations stay inside the enclosing unit).
  if (ts.loop_stack.size() == 1 && ts.sampling) begin_unit(ts);
  ts.tmpl.iter = ++ts.loop_stack.back().iter;
}

void Runtime::loop_end(std::uint32_t file, std::uint32_t line) {
  ThreadState& ts = thread_state();
  ts.cache.invalidate_all();  // dedup never crosses a loop-context change
  if (ts.loop_stack.empty()) {
    // Mid-loop thread (see loop_iter): there is no frame to pop, and
    // popping another loop's frame would corrupt the thread's nest cursor.
    std::lock_guard lock(cf_mu_);
    stray_ends_ += 1;
    return;
  }
  const ActiveLoop top = ts.loop_stack.back();
  ts.loop_stack.pop_back();
  // The parent frame is innermost again, in the iteration it was in.
  const ActiveLoop* parent =
      ts.loop_stack.empty() ? nullptr : &ts.loop_stack.back();
  ts.tmpl.ctx = parent != nullptr ? parent->node : NestForest::kRoot;
  ts.tmpl.iter = parent != nullptr ? parent->iter : 0;
  // Leaving the outermost loop ends the current sampling unit; code outside
  // any loop is always profiled (the gate additionally requires a nonempty
  // stack, so a stale unit_off could never drop root-level events — this
  // just keeps the flag honest).
  if (ts.loop_stack.empty()) ts.unit_off = false;
  std::lock_guard lock(cf_mu_);
  auto it = loops_.find(top.loop_id);
  if (it != loops_.end()) {
    it->second.end_loc = SourceLocation(file, line).packed();
    it->second.iterations += top.iter;
  }
}

void Runtime::func_enter(std::uint32_t file, std::uint32_t line,
                         std::uint32_t name_id) {
  ThreadState& ts = thread_state();
  const std::uint32_t loc = SourceLocation(file, line).packed();
  std::lock_guard lock(cf_mu_);
  const std::uint32_t parent =
      ts.call_stack.empty() ? CallTree::kRoot : ts.call_stack.back();
  const std::uint32_t node = call_tree_.child_of(parent, loc, name_id);
  call_tree_.node(node).calls += 1;
  ts.call_stack.push_back(node);
}

void Runtime::func_exit() {
  ThreadState& ts = thread_state();
  if (!ts.call_stack.empty()) ts.call_stack.pop_back();
}

CallTree Runtime::call_tree() const {
  std::lock_guard lock(cf_mu_);
  return call_tree_;
}

void Runtime::sync_point() { flush(thread_state(), /*unlock=*/true); }

void Runtime::lock_enter() {
  ThreadState& ts = thread_state();
  ts.lock_depth += 1;
  ts.tmpl.flags |= kInLockRegion;
}

void Runtime::lock_exit() {
  ThreadState& ts = thread_state();
  if (ts.lock_depth > 0) ts.lock_depth -= 1;
  if (ts.lock_depth != 0) return;
  ts.tmpl.flags &= static_cast<std::uint8_t>(~kInLockRegion);
  // Push buffered accesses before the target releases the lock (Fig. 4).
  flush(ts, /*unlock=*/true);
}

std::uint16_t Runtime::thread_id() { return thread_state().tmpl.tid; }

void Runtime::bind_thread_id(std::uint16_t tid) {
  ThreadState& ts = thread_state();
  ts.tmpl.tid = tid;
  // Keep the automatic counter ahead of explicit bindings so later
  // first-touch threads do not collide with them.
  std::uint16_t next = next_tid_.load(std::memory_order_relaxed);
  while (next <= tid &&
         !next_tid_.compare_exchange_weak(next, static_cast<std::uint16_t>(tid + 1),
                                          std::memory_order_relaxed)) {
  }
}

void Runtime::mark_reduction(std::uint32_t file, std::uint32_t line) {
  const std::uint32_t loc = SourceLocation(file, line).packed();
  std::lock_guard lock(cf_mu_);
  if (std::find(reduction_lines_.begin(), reduction_lines_.end(), loc) ==
      reduction_lines_.end())
    reduction_lines_.push_back(loc);
}

std::vector<std::uint32_t> Runtime::reduction_lines() const {
  std::lock_guard lock(cf_mu_);
  return reduction_lines_;
}

ControlFlowLog Runtime::control_flow() const {
  ControlFlowLog log;
  std::lock_guard lock(cf_mu_);
  log.loops.reserve(loops_.size());
  for (const auto& [loc, rec] : loops_) log.loops.push_back(rec);
  std::sort(log.loops.begin(), log.loops.end(),
            [](const LoopRecord& a, const LoopRecord& b) {
              return a.begin_loc < b.begin_loc;
            });
  log.edges.reserve(nest_edges_.size());
  for (const auto& [key, count] : nest_edges_)
    log.edges.push_back({static_cast<std::uint32_t>(key >> 32),
                         static_cast<std::uint32_t>(key), count});
  std::sort(log.edges.begin(), log.edges.end(),
            [](const NestEdge& a, const NestEdge& b) {
              return a.parent_loop != b.parent_loop
                         ? a.parent_loop < b.parent_loop
                         : a.child_loop < b.child_loop;
            });
  log.stray_iters = stray_iters_;
  log.stray_ends = stray_ends_;
  return log;
}

void Runtime::reset() {
  {
    std::lock_guard lock(cf_mu_);
    loops_.clear();
    nest_edges_.clear();
    stray_iters_ = 0;
    stray_ends_ = 0;
    reduction_lines_.clear();
    call_tree_.clear();
  }
  timestamp_.store(1, std::memory_order_relaxed);
  next_tid_.store(0, std::memory_order_relaxed);
  // The nest forest is deliberately NOT cleared: it is append-only and
  // process-wide, so context ids inside recorded traces stay valid across
  // sessions (trace/nest.hpp).
  std::lock_guard lock(buffers_mu_);
  epoch_ += 1;
  generation_.fetch_add(1, std::memory_order_release);
}

}  // namespace depprof
