#include "trace/trace_io.hpp"

#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace/nest.hpp"

namespace depprof {
namespace {

// v03: events carry interned nest-context ids, which are process-local, so
// the file embeds a nest node table (file-local ids, parents before
// children, each with the parent iteration it began in) and the reader
// re-interns it.  Older files are rejected rather than silently
// misattributed: v01 records embed ids from a dead forest, and v02 nodes
// lack the parent iteration the detector reads enclosing counters from.
constexpr char kMagic[8] = {'D', 'E', 'P', 'T', 'R', 'C', '0', '3'};

/// One serialized nest node: file-local parent id, static loop id and the
/// parent's iteration when the entry began.  The file-local id of a node is
/// its index + 1 (0 = root, never written).
struct WireNestNode {
  std::uint32_t parent = 0;
  std::uint32_t loop = 0;
  std::uint32_t parent_iter = 0;
};

}  // namespace

bool write_trace(const Trace& trace, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  os.write(kMagic, sizeof(kMagic));

  // Collect every forest node reachable from an event context.  Ascending
  // forest-id order is a valid parents-first declaration order (forest ids
  // grow child-after-parent), so a std::map doubles as the emit order.
  NestForest& forest = nest_forest();
  std::map<std::uint32_t, std::uint32_t> local_id;  // forest id -> file id
  local_id[NestForest::kRoot] = 0;
  for (const AccessEvent& ev : trace.events)
    for (std::uint32_t c = ev.ctx;
         c != NestForest::kRoot && !local_id.count(c); c = forest.parent(c))
      local_id[c] = 1;  // mark; numbered below
  std::vector<WireNestNode> nodes;
  nodes.reserve(local_id.size() - 1);
  for (auto& [fid, lid] : local_id) {
    if (fid == NestForest::kRoot) continue;
    lid = static_cast<std::uint32_t>(nodes.size() + 1);
    nodes.push_back({local_id[forest.parent(fid)], forest.loop(fid),
                     forest.parent_iter(fid)});
  }
  const std::uint64_t node_count = nodes.size();
  os.write(reinterpret_cast<const char*>(&node_count), sizeof(node_count));
  os.write(reinterpret_cast<const char*>(nodes.data()),
           static_cast<std::streamsize>(node_count * sizeof(WireNestNode)));

  const std::uint64_t count = trace.events.size();
  os.write(reinterpret_cast<const char*>(&count), sizeof(count));
  // Events are written with the context id translated to its file-local id
  // so the file is self-contained across processes.
  for (AccessEvent ev : trace.events) {
    ev.ctx = local_id[ev.ctx];
    os.write(reinterpret_cast<const char*>(&ev), sizeof(ev));
  }
  return static_cast<bool>(os);
}

bool read_trace(Trace& out, const std::string& path, std::string* error) {
  const auto fail = [error](std::string what) {
    if (error != nullptr) *error = std::move(what);
    return false;
  };
  std::ifstream is(path, std::ios::binary);
  if (!is) return fail("cannot open file");
  is.seekg(0, std::ios::end);
  const std::streamoff end = is.tellg();
  is.seekg(0, std::ios::beg);
  if (!is || end < 0) return fail("cannot read file");
  const auto file_size = static_cast<std::uint64_t>(end);
  char magic[8];
  is.read(magic, sizeof(magic));
  // Rejects v01 and v02 files along with garbage (see kMagic).
  if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    return fail("not a DEPTRC03 trace");

  // All counts below are untrusted: the payload a count claims must be
  // present in the file before anything is allocated for it.
  std::uint64_t remaining = file_size - sizeof(kMagic);
  std::uint64_t node_count = 0;
  if (remaining < sizeof(node_count)) return fail("truncated nest table");
  is.read(reinterpret_cast<char*>(&node_count), sizeof(node_count));
  remaining -= sizeof(node_count);
  if (!is || node_count > remaining / sizeof(WireNestNode))
    return fail("truncated nest table");
  std::vector<WireNestNode> nodes(node_count);
  is.read(reinterpret_cast<char*>(nodes.data()),
          static_cast<std::streamsize>(node_count * sizeof(WireNestNode)));
  remaining -= node_count * sizeof(WireNestNode);
  if (!is) return fail("truncated nest table");

  // Re-intern the table.  File-local ids are positional (index + 1) and
  // parents must precede children, i.e. parent < own id.
  NestForest& forest = nest_forest();
  std::vector<std::uint32_t> id_map(node_count + 1, NestForest::kRoot);
  for (std::uint64_t i = 0; i < node_count; ++i) {
    if (nodes[i].parent > i)  // forward/self reference
      return fail("nest node " + std::to_string(i + 1) +
                  " names a later parent");
    id_map[i + 1] = forest.enter(id_map[nodes[i].parent], nodes[i].loop,
                                 nodes[i].parent_iter);
  }

  std::uint64_t count = 0;
  if (remaining < sizeof(count)) return fail("truncated event table");
  is.read(reinterpret_cast<char*>(&count), sizeof(count));
  remaining -= sizeof(count);
  if (!is || count > remaining / sizeof(AccessEvent))
    return fail("truncated event table");
  Trace t;
  t.events.resize(count);
  is.read(reinterpret_cast<char*>(t.events.data()),
          static_cast<std::streamsize>(count * sizeof(AccessEvent)));
  if (!is) return fail("truncated event table");
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    AccessEvent& ev = t.events[i];
    if (ev.ctx > node_count)
      return fail("event " + std::to_string(i) + " names undeclared nest " +
                  std::to_string(ev.ctx));
    ev.ctx = id_map[ev.ctx];
    if (!window_matches_context(ev))
      return fail("event " + std::to_string(i) +
                  ": iteration window does not match its nest context");
  }
  out = std::move(t);
  return true;
}

}  // namespace depprof
