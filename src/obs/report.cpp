#include "obs/report.hpp"

#include <cstdio>
#include <sstream>

namespace depprof::obs {
namespace {

/// One counter's value as CSV and JSON print it: nanoseconds as seconds
/// with six decimals, everything else as the integer.
void put_value(std::ostream& os, const StageSnapshot& s, const CounterSpec& c) {
  const std::uint64_t v = s.*c.value;
  if (c.kind != CounterKind::kNanos) {
    os << v;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", static_cast<double>(v) * 1e-9);
  os << buf;
}

}  // namespace

std::string snapshot_csv(const PipelineSnapshot& snap) {
  std::ostringstream os;
  os << "stage";
  for (const CounterSpec& c : kCounters) os << ',' << c.key;
  os << '\n';
  for (const auto& s : snap.stages) {
    os << s.stage;
    for (const CounterSpec& c : kCounters) {
      os << ',';
      put_value(os, s, c);
    }
    os << '\n';
  }
  return os.str();
}

std::string snapshot_json(const PipelineSnapshot& snap) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < snap.stages.size(); ++i) {
    const StageSnapshot& s = snap.stages[i];
    os << (i == 0 ? "" : ",") << "{\"stage\":\"" << s.stage << '"';
    for (const CounterSpec& c : kCounters) {
      os << ",\"" << c.key << "\":";
      put_value(os, s, c);
    }
    os << '}';
  }
  os << ']';
  return os.str();
}

std::string snapshot_text(const PipelineSnapshot& snap) {
  std::ostringstream os;
  char cell[64];
  std::snprintf(cell, sizeof(cell), "%-11s", "stage");
  os << cell;
  for (const CounterSpec& c : kCounters) {
    std::snprintf(cell, sizeof(cell), " %*s", c.width, c.label);
    os << cell;
  }
  os << '\n';
  for (const auto& s : snap.stages) {
    std::snprintf(cell, sizeof(cell), "%-11s", s.stage.c_str());
    os << cell;
    for (const CounterSpec& c : kCounters) {
      const std::uint64_t v = s.*c.value;
      if (c.kind == CounterKind::kNanos)
        std::snprintf(cell, sizeof(cell), " %*.4f", c.width,
                      static_cast<double>(v) * 1e-9);
      else
        std::snprintf(cell, sizeof(cell), " %*llu", c.width,
                      static_cast<unsigned long long>(v));
      os << cell;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace depprof::obs
