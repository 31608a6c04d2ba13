#pragma once
// Rendering of pipeline stage snapshots: human-readable table for terminal
// output, CSV and JSON for the `depprof --stats` report and the bench
// binaries' BENCH_*.json stage breakdowns.

#include <string>

#include "obs/stage_stats.hpp"

namespace depprof::obs {

/// CSV, one row per stage: a `stage` column, then one column per table row,
/// in table order (obs::kCounters); nanosecond counters print as seconds.
std::string snapshot_csv(const PipelineSnapshot& snap);

/// JSON array of stage objects (same keys and values as the CSV).
std::string snapshot_json(const PipelineSnapshot& snap);

/// Aligned human-readable table, one column per table row.
std::string snapshot_text(const PipelineSnapshot& snap);

}  // namespace depprof::obs
