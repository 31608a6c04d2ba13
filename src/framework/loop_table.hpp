#pragma once
// Loop table (Sec. VIII framework representation).
//
// One row per instrumented loop, aggregating the control-flow record with
// the dependences whose endpoints fall inside the loop body: instrumented
// work, carried-RAW count (the parallelization blockers), and the verdict
// of the Sec. VII-A analysis.

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/loop_parallelism.hpp"
#include "core/dep.hpp"
#include "trace/control_flow.hpp"

namespace depprof {

struct LoopRow {
  LoopRecord loop;
  std::uint64_t dep_instances = 0;   ///< dependence instances inside the body
  std::size_t dep_kinds = 0;         ///< merged dependences inside the body
  std::size_t carried_raw = 0;       ///< carried RAW deps attributed to this loop
  /// Smallest carried-RAW distance bucket attributed to this loop: 1 =
  /// adjacent iterations conflict, 2 = a gap of at least one independent
  /// iteration, 0 = no carried RAW.
  std::uint32_t min_carried_bucket = 0;
  LoopVerdictKind verdict = LoopVerdictKind::kDoallSafe;
  bool parallelizable = true;
};

class LoopTable {
 public:
  LoopTable(const DepMap& deps, const ControlFlowLog& cf,
            const std::vector<std::uint32_t>& reduction_lines);

  const std::vector<LoopRow>& rows() const { return rows_; }

  /// Row for the loop whose entry location is `loop_id`; nullptr if absent.
  const LoopRow* find(std::uint32_t loop_id) const;

  /// Column-aligned text rendering.
  std::string render() const;

 private:
  std::vector<LoopRow> rows_;
};

}  // namespace depprof
