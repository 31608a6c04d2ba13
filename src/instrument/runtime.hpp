#pragma once
// Instrumentation runtime — the LLVM-pass substitute (see DESIGN.md).
//
// The paper instruments every IR load/store with a call carrying the address
// and source location (Fig. 4).  Here the DP_* macros (macros.hpp) expand to
// calls into this runtime, which assembles full AccessEvents: source
// location, variable name, innermost-loop context, thread id, and (for MT
// targets) a global timestamp, and forwards them to the attached profiler.
//
// The runtime also records runtime control-flow information (Sec. III-A):
// loop entry/exit locations and executed iteration counts, and tracks
// explicit lock regions of MT targets so that an access and its push stay
// atomic (Sec. V, Fig. 4).
//
// With no sink attached, each macro costs an out-of-line instance() call,
// one relaxed load of the enabled flag and a predicted branch.  That path is
// the "native" baseline of the slowdown experiments: every slowdown divides
// by the run time of this same binary with the runtime detached.  It must
// not change.  Making it cheaper (inlining instance(), say) speeds up only
// the denominator, so every slowdown grows while the profiler stays as fast.
//
// Sessions.  attach() and detach() each start a new runtime generation;
// reset() starts one too.  An access pays one acquire load of the
// generation and a compare with the thread's copy.  On a mismatch the
// thread rebinds: it drops its own stale buffer, dedup and sampling state,
// then copies the session's sink and flags into its ThreadState.
// attach()/detach() never write another thread's state.  The detach
// handshake (in_flight plus a seq_cst generation check) wraps only the flush
// points: buffer full, lock exit, sync point, burst marker and thread exit.
// A flush delivers only if its session is still attached, otherwise it
// discards the buffer.  So detach() delivers the caller's own tail and every
// other thread's events up to that thread's last flush point.  A thread
// still recording at detach loses its unflushed tail, which races the
// detach anyway.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/location.hpp"
#include "instrument/dedup.hpp"
#include "trace/call_tree.hpp"
#include "trace/control_flow.hpp"
#include "trace/event.hpp"
#include "trace/event_buffer.hpp"

namespace depprof {

/// Overhead-budget sampling policy for one profiling session (see DESIGN.md
/// "Overhead-budget sampling").  The sampling unit is one iteration of an
/// outermost loop on the recording thread: a profiled unit is observed
/// whole — every inner-loop invocation inside it included — so loop-carried
/// distances stay exact within a burst.  Accesses outside any loop are
/// always profiled.  Disabled entirely in mt_mode (cross-thread gaps would
/// need a global cut, which the per-thread unit cannot provide).
struct SamplingConfig {
  /// Target overhead fraction.  < 1.0 enables the adaptive controller:
  /// profiling cost is measured online from the sink's stage CPU clocks
  /// (AccessSink::profiling_cost_ns) and `skip` is adjusted between bursts
  /// to steer measured overhead toward the target.  >= 1.0 leaves the
  /// schedule fixed.
  double budget = 1.0;
  /// Units profiled per burst (the B of the B-on / K-off cycle).
  unsigned burst = 8;
  /// Units skipped between bursts.  budget >= 1.0 with skip == 0 means
  /// sampling is entirely off: no gate, no markers, byte-identical output.
  unsigned skip = 0;

  bool enabled() const { return skip > 0 || budget < 1.0; }
};

class Runtime {
 public:
  static Runtime& instance();

  /// Attaches the profiler (or trace recorder) receiving events.  `mt_mode`
  /// enables global timestamps for multi-threaded targets.  `dedup` enables
  /// the front-end redundancy-elision cache (instrument/dedup.hpp): exact
  /// repeats of an access are run-length encoded into the outgoing batches
  /// instead of re-buffered.  Ignored in mt_mode, where every event carries
  /// a fresh timestamp the race check depends on.  The depprof CLI wires
  /// this from ProfilerConfig::dedup (default on); the parameter itself
  /// defaults off so recorders and existing harnesses see the verbatim
  /// stream unless they opt in.  `sampling` selects the overhead-budget
  /// burst schedule (also ignored in mt_mode); the default is fully off.
  void attach(AccessSink* sink, bool mt_mode = false, bool dedup = false,
              SamplingConfig sampling = {});

  /// Detaches the sink and calls its finish().  The sink receives the
  /// calling thread's buffered events and each other thread's events up to
  /// its last flush point, and nothing once detach() has returned.
  /// Control-flow data remains readable until the next attach().
  void detach();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // --- access events (out-of-line slow path of the macros) --------------

  void record(const void* addr, std::size_t size, std::uint32_t file,
              std::uint32_t line, std::uint32_t var, bool is_write);

  /// Variable-lifetime event (Sec. III-B): `size` bytes at `addr` became
  /// obsolete; their signature slots are cleared at word granularity.
  void record_free(const void* addr, std::size_t size);

  // --- control flow ------------------------------------------------------

  /// Loop entry at file:line.  Loops are identified by their entry
  /// location; each dynamic entry is interned as a fresh NestForest node
  /// under the thread's current innermost entry, and the observed
  /// parent->child nesting edge is recorded for the control-flow nest tree.
  void loop_begin(std::uint32_t file, std::uint32_t line);
  /// One iteration boundary of the innermost active loop of this thread.
  /// Ignored (and counted as stray) when the thread's loop stack is empty —
  /// a thread created inside a loop body sees its enclosing markers from
  /// the parent thread only.
  void loop_iter();
  /// Loop exit at file:line for the innermost active loop.  Ignored (and
  /// counted as stray) on an empty per-thread loop stack.
  void loop_end(std::uint32_t file, std::uint32_t line);

  /// Function entry/exit (DP_FUNCTION guard).  Builds the dynamic call tree
  /// consumed by the Sec. VIII framework's execution-tree representation.
  void func_enter(std::uint32_t file, std::uint32_t line, std::uint32_t name_id);
  void func_exit();

  /// Call tree of the current (or last detached) session.
  CallTree call_tree() const;

  // --- lock regions (MT targets, Sec. V) ---------------------------------

  void lock_enter();
  void lock_exit();

  /// Implicit synchronization point (thread create/join, barrier): the
  /// calling thread's buffered accesses are pushed so that accesses ordered
  /// by the synchronization also arrive at the workers in order.  This is
  /// the "implicit synchronization patterns" support the paper sketches at
  /// the end of Sec. V-A.
  void sync_point();

  // --- analysis hints -----------------------------------------------------

  /// Marks file:line as a reduction update (x = x op e).  The paper's LLVM
  /// pass recognises the instruction pattern; at source level the workload
  /// marks the line.  The Sec. VII-A analysis ignores self-carried RAW
  /// dependences on marked lines.
  void mark_reduction(std::uint32_t file, std::uint32_t line);

  /// Packed locations of all marked reduction lines.
  std::vector<std::uint32_t> reduction_lines() const;

  // --- bookkeeping --------------------------------------------------------

  /// Thread id of the calling target thread (assigned on first use; the
  /// first registering thread of an epoch gets id 0).
  std::uint16_t thread_id();

  /// Binds the calling thread to an explicit id for the current epoch.
  /// Workloads with a meaningful thread numbering (e.g. spatial blocks in
  /// water-spatial) call this so that dependence endpoints and the Fig. 9
  /// communication axes reflect that numbering instead of first-touch order.
  void bind_thread_id(std::uint16_t tid);

  /// Control-flow log of the current (or last detached) session.
  ControlFlowLog control_flow() const;

  /// Clears control flow, timestamps, and thread-id assignment.  Must not be
  /// called while a sink is attached.
  void reset();

 private:
  Runtime() = default;

  struct ActiveLoop {
    std::uint32_t loop_id = 0;
    std::uint32_t node = 0;  ///< interned NestForest entry of this execution
    std::uint32_t iter = 0;
  };

  /// Per-thread recording state.  Only the owning thread touches it, except
  /// for in_flight, which attach()/detach() read while draining.
  struct ThreadState {
    // --- session binding, copied by refresh() when generation_ moves ------
    /// Runtime generation bound to; 0 = never (generation_ starts at 1).
    std::uint64_t generation = 0;
    /// Sink of the bound session; nullptr while detached (accesses dropped).
    AccessSink* sink = nullptr;
    bool mt = false;        ///< session stamps events with global timestamps
    bool dedup = false;     ///< session runs the front-end dedup cache
    bool sampling = false;  ///< session runs the burst gate
    bool adaptive = false;  ///< session retunes the skip count online
    double budget = 1.0;    ///< overhead target of the adaptive controller
    // --- sampling gate (see SamplingConfig) -------------------------------
    bool unit_off = false;     ///< current unit is being skipped
    bool pending_gap = false;  ///< >=1 event dropped since the last kept one
    unsigned unit_pos = 0;     ///< index of the next unit within the B+K cycle
    std::uint64_t sampled_out = 0;  ///< accesses dropped, not yet published
    std::uint64_t gaps_closed = 0;  ///< burst markers, not yet published
    // Adaptive-controller state, sampled at each cycle boundary.
    std::uint64_t ctl_wall_ns = 0;
    std::uint64_t ctl_cost_ns = 0;
    double ctl_ewma = 0.0;  ///< smoothed overhead estimate (0 = no sample yet)
    // --- epoch state (thread id, nesting) ----------------------------------
    std::uint64_t epoch = 0;
    int lock_depth = 0;
    bool registered = false;
    /// The next access event of this thread, minus its per-access fields:
    /// tid, innermost loop context, iteration window and lock flag.
    /// loop_begin/iter/end, lock_enter/exit and bind_thread_id keep it
    /// current; record() copies it into the buffer slot and fills in the
    /// address, location, variable, kind and timestamp.
    AccessEvent tmpl;
    std::vector<ActiveLoop> loop_stack;
    std::vector<std::uint32_t> call_stack;  // CallTree node indices
    /// Per-thread chunk buffer: events are built in its next slot and flush
    /// through AccessSink::on_batch — the same chunk path trace replay uses.
    EventBuffer buffer;
    /// Front-end dedup cache over the buffered records.  Invalidated (O(1)
    /// generation bump) at every flush point — buffer flush/discard, loop
    /// begin/iter/end, lock and sync boundaries, rebind — and per-word by
    /// record_free for the freed span.
    DedupCache cache;
    /// True while the owning thread is inside a FlushSection.  attach() and
    /// detach() bump generation_ and then wait for every registered
    /// thread's flag to clear, so no delivery to an ended session can
    /// overlap or follow its finish().
    std::atomic<bool> in_flight{false};
    ~ThreadState();
  };

  /// Flush-point critical section: buffer full, lock exit, sync point,
  /// burst marker, thread exit and the adaptive controller's step.
  /// Raises in_flight, then checks with one seq_cst load that the thread's
  /// session is still attached.  That load pairs with the seq_cst
  /// generation bump in attach()/detach(): either it sees the bump, or the
  /// bumping thread sees the raised flag and waits until the section ends.
  /// sink() is nullptr when the session has ended (the flag is already
  /// lowered then), and the caller must not deliver.
  class FlushSection {
   public:
    FlushSection(const Runtime& rt, ThreadState& ts) : ts_(ts) {
      if (ts.sink == nullptr) return;
      ts.in_flight.store(true, std::memory_order_seq_cst);
      if (rt.generation_.load(std::memory_order_seq_cst) == ts.generation)
        sink_ = ts.sink;
      else
        ts.in_flight.store(false, std::memory_order_release);
    }
    ~FlushSection() {
      if (sink_ != nullptr)
        ts_.in_flight.store(false, std::memory_order_release);
    }
    FlushSection(const FlushSection&) = delete;
    FlushSection& operator=(const FlushSection&) = delete;
    AccessSink* sink() const { return sink_; }

   private:
    ThreadState& ts_;
    AccessSink* sink_ = nullptr;
  };

  /// The calling thread's state as it is, without a generation check.
  static ThreadState& local_state();
  /// The calling thread's state, rebound first if the generation moved.
  ThreadState& thread_state();
  /// Slow path of thread_state(): registers the thread, applies an epoch
  /// reset, and rebinds the thread to the current session.
  void refresh(ThreadState& ts);
  /// Flush point: delivers the buffer (and, with `unlock`, the on_unlock
  /// notice) if the thread's session is still attached, else discards it.
  void flush(ThreadState& ts, bool unlock);
  /// Adds the thread's sampling counters to the session totals.  Called by
  /// the thread itself at its flush points, or by detach() for the caller.
  void publish_sampling(ThreadState& ts);
  void forget_thread(ThreadState& ts);
  /// Starts the next sampling unit on `ts`: decides whether it is profiled
  /// or skipped, and runs the adaptive controller at each cycle boundary.
  void begin_unit(ThreadState& ts);
  /// Adaptive feedback step: measures the overhead of the finished cycle
  /// from the sink's stage CPU clocks and retunes the skip count.
  void controller_tick(ThreadState& ts, unsigned burst);
  /// Emits the kBurstMark that closes a sampling gap, before the first kept
  /// event after it reaches the buffer.
  void close_gap(ThreadState& ts);
  /// Spins until no registered thread is inside a FlushSection.  Caller
  /// holds buffers_mu_ and has already bumped generation_, so no new section
  /// can deliver to the ended session.  Threads inside a section never block
  /// on buffers_mu_, so the wait is bounded by one delivery per thread.
  void drain_in_flight_locked();

  std::atomic<bool> enabled_{false};
  /// Bumped by attach(), detach() and reset(), always under buffers_mu_.
  std::atomic<std::uint64_t> generation_{1};
  // Session settings: written by attach()/detach() and copied into a
  // ThreadState by refresh(), all under buffers_mu_.
  AccessSink* sink_ = nullptr;
  bool mt_mode_ = false;
  bool dedup_ = false;
  bool sampling_on_ = false;
  bool adaptive_ = false;
  double budget_target_ = 1.0;
  std::uint64_t epoch_ = 1;  ///< bumped by reset(), under buffers_mu_
  std::atomic<unsigned> sampling_burst_{8};
  std::atomic<unsigned> sampling_skip_{0};  ///< retuned live by the controller
  /// Latest controller overhead estimate, parts per million.
  std::atomic<std::uint64_t> measured_overhead_ppm_{0};
  /// Session totals of the sampling gate, published at flush points.
  std::atomic<std::uint64_t> sampled_out_{0};
  std::atomic<std::uint64_t> gaps_closed_{0};
  std::atomic<std::uint64_t> timestamp_{1};
  std::atomic<std::uint16_t> next_tid_{0};

  /// Guards the session settings above and the live-thread registry that
  /// attach()/detach() drain.
  std::mutex buffers_mu_;
  std::vector<ThreadState*> threads_;

  mutable std::mutex cf_mu_;
  std::unordered_map<std::uint32_t, LoopRecord> loops_;  // keyed by entry loc
  /// Observed nesting edges, keyed by (parent loop id << 32 | child loop id).
  std::unordered_map<std::uint64_t, std::uint64_t> nest_edges_;
  std::uint64_t stray_iters_ = 0;
  std::uint64_t stray_ends_ = 0;
  std::vector<std::uint32_t> reduction_lines_;
  CallTree call_tree_;
};

}  // namespace depprof
