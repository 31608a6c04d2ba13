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

// v04: events carry interned nest-context ids and variable-name ids, both
// process-local, so the file embeds a nest node table (file-local ids,
// parents before children, each with the parent iteration it began in) and
// a variable table (the names, ascending by recorded id), and the reader
// re-interns both.  Each event carries its context's own iteration; the
// enclosing counters are the nest table's parent iterations.  Older files
// are rejected rather than silently misattributed: v01 records embed ids
// from a dead forest, v02 nodes lack the parent iteration, and v03 events
// carry a 64-byte record with an iteration window and no variable names.
constexpr char kMagic[8] = {'D', 'E', 'P', 'T', 'R', 'C', '0', '4'};

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

  // Variable table: every named var id an event uses, ascending by
  // recorded id, so re-interning them in a fresh process keeps their
  // relative order (DepMap::sorted() breaks ties on it).  File-local id =
  // index + 1; id 0, the unnamed variable, is never written.
  std::map<std::uint32_t, std::uint32_t> var_id;  // recorded id -> file id
  var_id[0] = 0;
  for (const AccessEvent& ev : trace.events) var_id.try_emplace(ev.var, 0);
  const std::uint64_t var_count = var_id.size() - 1;
  os.write(reinterpret_cast<const char*>(&var_count), sizeof(var_count));
  std::uint32_t next_var = 1;
  for (auto& [rid, lid] : var_id) {
    if (rid == 0) continue;
    lid = next_var++;
    const std::string name = var_registry().name(rid);
    const auto len = static_cast<std::uint32_t>(name.size());
    os.write(reinterpret_cast<const char*>(&len), sizeof(len));
    os.write(name.data(), len);
  }

  const std::uint64_t count = trace.events.size();
  os.write(reinterpret_cast<const char*>(&count), sizeof(count));
  // Events are written with their context and variable ids translated to
  // file-local ids so the file is self-contained across processes.
  for (AccessEvent ev : trace.events) {
    ev.ctx = local_id[ev.ctx];
    ev.var = var_id[ev.var];
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
  // Rejects v01 to v03 files along with garbage (see kMagic).
  if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    return fail("not a DEPTRC04 trace");

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

  // Re-intern the variable names; file-local id 0 stays the unnamed one.
  std::uint64_t var_count = 0;
  if (remaining < sizeof(var_count)) return fail("truncated var table");
  is.read(reinterpret_cast<char*>(&var_count), sizeof(var_count));
  remaining -= sizeof(var_count);
  if (!is || var_count > remaining / sizeof(std::uint32_t))
    return fail("truncated var table");
  std::vector<std::uint32_t> var_map(var_count + 1, 0);
  for (std::uint64_t i = 0; i < var_count; ++i) {
    std::uint32_t len = 0;
    if (remaining < sizeof(len)) return fail("truncated var table");
    is.read(reinterpret_cast<char*>(&len), sizeof(len));
    remaining -= sizeof(len);
    if (!is || len > remaining) return fail("truncated var table");
    std::string name(len, '\0');
    is.read(name.data(), len);
    remaining -= len;
    if (!is) return fail("truncated var table");
    var_map[i + 1] = var_registry().intern(name);
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
    const std::string at = "event " + std::to_string(i);
    if (ev.kind > AccessKind::kBurstMark)
      return fail(at + " has unknown kind " +
                  std::to_string(static_cast<unsigned>(ev.kind)));
    if (ev.ctx > node_count)
      return fail(at + " names undeclared nest " + std::to_string(ev.ctx));
    if (ev.var > var_count)
      return fail(at + " names undeclared var " + std::to_string(ev.var));
    ev.ctx = id_map[ev.ctx];
    ev.var = var_map[ev.var];
  }
  out = std::move(t);
  return true;
}

}  // namespace depprof
