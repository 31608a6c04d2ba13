#pragma once
// Binary trace file I/O (capture on one run, replay into any profiler
// configuration later — the examples/profile_trace workflow).

#include <string>

#include "trace/trace.hpp"

namespace depprof {

/// Writes a trace to `path`.  Returns false on I/O failure.
bool write_trace(const Trace& trace, const std::string& path);

/// Reads a trace from `path`.  Returns false on I/O failure, a malformed
/// header or table, or an event with an unknown kind or an undeclared nest
/// or variable id, and then says why in `*error` when it is non-null;
/// `out` is untouched on failure.
bool read_trace(Trace& out, const std::string& path,
                std::string* error = nullptr);

}  // namespace depprof
