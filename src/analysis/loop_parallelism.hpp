#pragma once
// Parallelism discovery in loops (Sec. VII-A).
//
// A DiscoPoP-style classifier over the profiler's output, driven entirely
// by the per-level nest attribution the detector records (core/dep.hpp):
// every dependence instance names the innermost *common* loop of its
// endpoints and the carried-distance bucket at that level, so "is this
// dependence carried by loop L" is a lookup, not a heuristic — the old
// source-order guess for cross-loop dependences is gone.
//
// Classification per loop L:
//   - serial             some RAW dependence is carried by L (nonzero
//                        distance bucket at L's level) and is not a marked
//                        reduction update.
//   - reduction-suspect  the only RAW dependences carried by L are
//                        self-updates on lines marked DP_REDUCTION — DOALL
//                        after rewriting the update as a reduction.
//   - DOALL-safe         no RAW dependence is carried by L.  Dependences
//                        carried by inner loops, iteration-local (distance
//                        0) dependences, and cross-loop dependences whose
//                        common loop is not L do not block L.
//
// WAR/WAW dependences carried by L never block — they are removable by
// privatization and are reported as the privatization work list.  Table II
// compares this classification under exact vs signature dependences.

#include <cstdint>
#include <string>
#include <vector>

#include "core/dep.hpp"
#include "trace/control_flow.hpp"

namespace depprof {

enum class LoopVerdictKind {
  kDoallSafe = 0,
  kReductionSuspect = 1,
  kSerial = 2,
};

const char* loop_verdict_name(LoopVerdictKind kind);

struct LoopVerdict {
  LoopRecord loop;
  LoopVerdictKind kind = LoopVerdictKind::kDoallSafe;
  /// Carried RAW dependences (non-reduction) that force kSerial.
  std::vector<DepKey> blockers;
  /// Carried self-RAW updates on marked reduction lines.
  std::vector<DepKey> reductions;
  /// Carried WAR/WAW dependences — removable by privatizing their variable.
  std::vector<DepKey> privatizable;

  /// Table II compatibility: a loop counts as parallelizable unless serial.
  bool parallelizable() const { return kind != LoopVerdictKind::kSerial; }
};

struct LoopAnalysisOptions {
  /// Packed locations of reduction-update lines (Runtime::reduction_lines).
  std::vector<std::uint32_t> reduction_lines;
};

/// Classifies every loop in the control-flow log.
std::vector<LoopVerdict> analyze_loops(const DepMap& deps,
                                       const ControlFlowLog& cf,
                                       const LoopAnalysisOptions& opts = {});

/// Human-readable rendering.
std::string format_loop_verdicts(const std::vector<LoopVerdict>& verdicts);

}  // namespace depprof
