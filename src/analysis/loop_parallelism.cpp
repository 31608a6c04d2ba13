#include "analysis/loop_parallelism.hpp"

#include <algorithm>
#include <sstream>

namespace depprof {
namespace {

bool is_reduction_self_dep(const DepKey& key,
                           const std::vector<std::uint32_t>& reduction_lines) {
  if (key.sink_loc != key.src_loc) return false;
  return std::find(reduction_lines.begin(), reduction_lines.end(),
                   key.sink_loc) != reduction_lines.end();
}

}  // namespace

const char* loop_verdict_name(LoopVerdictKind kind) {
  switch (kind) {
    case LoopVerdictKind::kDoallSafe:
      return "DOALL-safe";
    case LoopVerdictKind::kReductionSuspect:
      return "reduction-suspect";
    case LoopVerdictKind::kSerial:
      return "serial";
  }
  return "?";
}

std::vector<LoopVerdict> analyze_loops(const DepMap& deps,
                                       const ControlFlowLog& cf,
                                       const LoopAnalysisOptions& opts) {
  std::vector<LoopVerdict> verdicts;
  verdicts.reserve(cf.loops.size());
  for (const auto& loop : cf.loops) {
    LoopVerdict v;
    v.loop = loop;
    for (const auto& [key, info] : deps) {
      if (key.type == DepType::kInit) continue;
      // Carried by this loop means: at some nest level the innermost
      // common loop of the endpoints was this loop and the carried-distance
      // buckets (1, >=2) are non-empty there.  Inner-loop carries
      // and distance-0 instances leave those buckets untouched.
      if (!info.carried_by(loop.loop_id)) continue;
      if (key.type != DepType::kRaw) {
        v.privatizable.push_back(key);
        continue;
      }
      if (is_reduction_self_dep(key, opts.reduction_lines)) {
        v.reductions.push_back(key);
        continue;
      }
      v.blockers.push_back(key);
    }
    if (!v.blockers.empty())
      v.kind = LoopVerdictKind::kSerial;
    else if (!v.reductions.empty())
      v.kind = LoopVerdictKind::kReductionSuspect;
    else
      v.kind = LoopVerdictKind::kDoallSafe;
    verdicts.push_back(std::move(v));
  }
  return verdicts;
}

std::string format_loop_verdicts(const std::vector<LoopVerdict>& verdicts) {
  std::ostringstream os;
  for (const auto& v : verdicts) {
    os << "loop " << SourceLocation::from_packed(v.loop.begin_loc).str() << "-"
       << SourceLocation::from_packed(v.loop.end_loc).str() << " ("
       << v.loop.iterations << " iterations): " << loop_verdict_name(v.kind)
       << '\n';
    for (const auto& b : v.blockers) {
      os << "    blocked by carried RAW "
         << SourceLocation::from_packed(b.sink_loc).str() << " <- "
         << SourceLocation::from_packed(b.src_loc).str() << " ("
         << var_registry().name(b.var) << ")\n";
    }
    for (const auto& r : v.reductions) {
      os << "    reduction update at "
         << SourceLocation::from_packed(r.sink_loc).str() << " ("
         << var_registry().name(r.var) << ")\n";
    }
    for (const auto& p : v.privatizable) {
      os << "    privatize " << var_registry().name(p.var) << " ("
         << dep_type_name(p.type) << ' '
         << SourceLocation::from_packed(p.sink_loc).str() << " <- "
         << SourceLocation::from_packed(p.src_loc).str() << ")\n";
    }
  }
  return os.str();
}

}  // namespace depprof
