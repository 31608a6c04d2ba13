#pragma once
// On-disk repro format for differential-harness findings.
//
// A repro is one minimized (trace, config) pair in a line-oriented text
// format so it diffs and reviews like source.  Every repro committed under
// tests/corpus/ is replayed by the corpus regression test on each CI run,
// turning yesterday's fuzz finding into tomorrow's regression gate.
//
//   depfuzz-repro v8
//   # free-form provenance comment
//   note <one-line description>
//   config storage=packed slots=1048576 sighash=modulo mt=1 workers=4
//          ... queue=lock-free-spsc wait=park chunk=7 qcap=64 modulo_routing=0
//          ... dedup=1 pack=1 budget=1 burst=8 skip=0 races=1
//   lb enabled=1 sample_shift=0 interval=200 threshold=1.25 top_k=10
//          ... max_rounds=64
//   sched seed=7 algo=pct
//   sstep w0 queue.pop
//   sstep main produce.stage
//   nest id=1 parent=0 loop=16777276
//   nest id=2 parent=1 loop=16777280
//   ev W addr=0x2000 loc=16777226 var=0 tid=0 ts=0 flags=0
//          ... ctx=2 iters=3,1,0,0,0,0,0
//
// (`config` and `lb` are single lines; they are wrapped here for the
// comment only.)  There is one grammar, v8; a file with any other version
// line is rejected.  The config, lb and sched lines are driven by one key
// table each: format_repro writes every key and parse_repro requires every
// key, so a repro never replays under whatever the defaults have since
// become.  The config and lb lines are required; the sched section is
// optional.
//
// `sched` (exploration seed and algorithm) plus zero or more
// `sstep <thread> <site>` lines record the schedule a failing parallel run
// took; the controller (src/sched/) replays it verbatim.  The worker count
// and queue kind a schedule is only meaningful against are on the config
// line.  `nest` directives intern the loop-nest contexts (file-local ids,
// parents declared before children) that each event references with ctx=,
// next to its root-anchored iteration window iters=; parsing re-interns the
// table into the process nest forest.  `ev` kinds are R / W / F.
//
// Strictness: unknown directives or keys, duplicate keys within a line,
// duplicate config/lb/sched lines, a missing key, and any directive other
// than `note` appearing before the config line are hard parse errors with
// the offending line number — the corpus lint relies on strictness, so a
// typo in a committed repro fails CI instead of silently replaying
// something else.  races=1 combined with sampling (budget<1 or skip>0) or
// a sequential target (mt=0) is a parse error too, mirroring
// races_config_ok(): the profiler factories refuse such configs, so a
// repro claiming one could never have been recorded.
//
// MT repros replay order-faithfully from a single thread: the parallel
// pipeline stages events by producing thread, not by event tid, so a
// one-thread replay of a mixed-tid stream delivers the recorded
// cross-thread order regardless of lock-region flags.

#include <string>
#include <string_view>

#include "core/profiler.hpp"
#include "sched/sched.hpp"
#include "trace/trace.hpp"

namespace depprof {

/// One parsed/parseable repro case.
struct ReproCase {
  std::string note;  ///< one-line provenance ("" allowed)
  ProfilerConfig cfg;
  Trace trace;
  /// Deterministic-schedule section.  When sched is true the case is
  /// replayed under the schedule controller: `schedule` non-empty replays
  /// that exact interleaving, empty re-explores from (sched_seed,
  /// sched_algo).
  bool sched = false;
  std::uint64_t sched_seed = 1;
  sched::Algo sched_algo = sched::Algo::kRandomWalk;
  sched::ScheduleTrace schedule;
};

/// Renders `repro` in the v8 grammar (the sched section is present only
/// when the case carries one).
std::string format_repro(const ReproCase& repro);

/// Strict parser: returns false and sets `error` (when non-null, prefixed
/// with the offending line number) on a version line other than v8, any
/// unknown directive, unknown or duplicate key, malformed value, missing
/// key, duplicate config/lb/sched line, directive before the config line,
/// or missing config/lb line.
bool parse_repro(ReproCase& out, std::string_view text,
                 std::string* error = nullptr);

/// File round-trip helpers.
bool write_repro(const ReproCase& repro, const std::string& path);
bool read_repro(ReproCase& out, const std::string& path,
                std::string* error = nullptr);

}  // namespace depprof
