#include "core/formatter.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>
#include <vector>

namespace depprof {
namespace {

/// Output order on equal lines: BGN first, then NOM sinks, then END —
/// matching Fig. 1 where "1:60 BGN loop" precedes "1:60 NOM ..." and
/// "1:74 NOM ..." precedes "1:74 END loop 1200".
enum LineOrder { kBgn = 0, kNom = 1, kEnd = 2 };

/// Fig. 1 lists RAW before WAR before WAW, with INIT always last.
int type_rank(DepType t) {
  return t == DepType::kInit ? 4 : static_cast<int>(t);
}

std::string source_str(const DepKey& k, const DepInfo& info,
                       const FormatOptions& opts) {
  std::ostringstream os;
  os << '{' << dep_type_name(k.type) << ' ';
  if (k.type == DepType::kInit) {
    os << '*';
  } else {
    os << SourceLocation::from_packed(k.src_loc).str();
    if (opts.show_tids) os << '|' << k.src_tid;
    os << '|' << var_registry().name(k.var);
  }
  if (opts.show_counts) os << " x" << info.count;
  if (opts.show_distances) {
    // One term per attributed nest level: L<level>=<d0>|<d1>|<d2p> — the
    // instance counts per carry-distance bucket (0, 1, >=2) at that level's
    // common loop.
    for (std::size_t d = 0; d < kNestLevels; ++d) {
      const DepLevel& lvl = info.levels[d];
      if (lvl.loop == 0 && lvl.d0 == 0 && lvl.d1 == 0 && lvl.d2p == 0)
        continue;
      os << " L" << (d + 1) << '=' << lvl.d0 << '|' << lvl.d1 << '|'
         << lvl.d2p;
    }
  }
  if (opts.mark_races && (info.flags & kReversed)) os << '!';
  os << '}';
  return os.str();
}

}  // namespace

std::string format_deps(const DepMap& deps, const ControlFlowLog* cf,
                        const FormatOptions& opts) {
  struct Line {
    std::uint32_t loc;
    int order;
    std::uint32_t tid;
    std::string text;
  };
  std::vector<Line> lines;

  // Dependences grouped by aggregated sink (location + thread id).
  auto sorted = deps.sorted();
  std::size_t i = 0;
  while (i < sorted.size()) {
    const std::uint32_t sink_loc = sorted[i].first.sink_loc;
    const std::uint16_t sink_tid = sorted[i].first.sink_tid;
    std::size_t j = i;
    while (j < sorted.size() && sorted[j].first.sink_loc == sink_loc &&
           sorted[j].first.sink_tid == sink_tid)
      ++j;
    std::stable_sort(sorted.begin() + static_cast<std::ptrdiff_t>(i),
                     sorted.begin() + static_cast<std::ptrdiff_t>(j),
                     [](const auto& a, const auto& b) {
                       return type_rank(a.first.type) < type_rank(b.first.type);
                     });
    std::ostringstream os;
    os << SourceLocation::from_packed(sink_loc).str();
    if (opts.show_tids) os << '|' << sink_tid;
    os << " NOM";
    for (std::size_t k = i; k < j; ++k)
      os << ' ' << source_str(sorted[k].first, sorted[k].second, opts);
    lines.push_back({sink_loc, kNom, sink_tid, os.str()});
    i = j;
  }

  // Control regions (loops) from the control-flow log.
  if (cf != nullptr) {
    for (const auto& loop : cf->loops) {
      lines.push_back({loop.begin_loc, kBgn, 0,
                       SourceLocation::from_packed(loop.begin_loc).str() +
                           " BGN loop"});
      lines.push_back({loop.end_loc, kEnd, 0,
                       SourceLocation::from_packed(loop.end_loc).str() +
                           " END loop " + std::to_string(loop.iterations)});
    }
  }

  std::stable_sort(lines.begin(), lines.end(), [](const Line& a, const Line& b) {
    return std::tie(a.loc, a.order, a.tid) < std::tie(b.loc, b.order, b.tid);
  });

  std::string out;
  for (const auto& line : lines) {
    out += line.text;
    out += '\n';
  }
  return out;
}

std::string deps_csv(const DepMap& deps) {
  std::ostringstream os;
  os << "type,sink,sink_tid,source,src_tid,var,count,carried,cross_thread,"
        "reversed,locked,carried_level,carried_loop,d0,d1,d2p\n";
  for (const auto& [key, info] : deps.sorted()) {
    os << dep_type_name(key.type) << ','
       << SourceLocation::from_packed(key.sink_loc).str() << ',' << key.sink_tid
       << ',';
    if (key.type == DepType::kInit)
      os << '*';
    else
      os << SourceLocation::from_packed(key.src_loc).str();
    std::uint64_t d0 = 0, d1 = 0, d2p = 0;
    for (std::size_t d = 0; d < kNestLevels; ++d) {
      d0 += info.levels[d].d0;
      d1 += info.levels[d].d1;
      d2p += info.levels[d].d2p;
    }
    const std::uint32_t clevel = info.carried_level();
    os << ',' << key.src_tid << ',' << var_registry().name(key.var) << ','
       << info.count << ',' << ((info.flags & kLoopCarried) ? 1 : 0) << ','
       << ((info.flags & kCrossThread) ? 1 : 0) << ','
       // Race evidence as instance counts, not flags: how many instances
       // arrived timestamp-reversed / fully lock-protected (Sec. V-B).
       << info.reversed << ',' << info.locked << ',' << clevel << ',';
    if (clevel != 0)
      os << SourceLocation::from_packed(info.carried_loop()).str();
    os << ',' << d0 << ',' << d1 << ',' << d2p << '\n';
  }
  return os.str();
}

}  // namespace depprof
