#include "oracle/corpus.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "queue/queues.hpp"
#include "trace/nest.hpp"

namespace depprof {
namespace {

// The one grammar.  There is no version ladder: a file in any other version
// is rejected rather than replayed under reinterpreted semantics.
constexpr std::string_view kVersionLine = "depfuzz-repro v10";

const char* sig_hash_name(SigHash h) {
  return h == SigHash::kModulo ? "modulo" : "mix";
}

bool parse_queue(std::string_view v, QueueKind& out) {
  if (v == "lock-free-spsc") out = QueueKind::kLockFreeSpsc;
  else if (v == "lock-free-mpmc") out = QueueKind::kLockFreeMpmc;
  else if (v == "mutex") out = QueueKind::kMutex;
  else return false;
  return true;
}

bool parse_sig_hash(std::string_view v, SigHash& out) {
  if (v == "modulo") out = SigHash::kModulo;
  else if (v == "mix") out = SigHash::kMix;
  else return false;
  return true;
}

bool parse_u64(std::string_view v, std::uint64_t& out) {
  if (v.empty()) return false;
  char* end = nullptr;
  const std::string s(v);
  out = std::strtoull(s.c_str(), &end, 0);  // base 0: accepts 0x...
  return end != nullptr && *end == '\0';
}

bool parse_double(std::string_view v, double& out) {
  if (v.empty()) return false;
  char* end = nullptr;
  const std::string s(v);
  out = std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0';
}

bool parse_bool(std::string_view v, bool& out) {
  if (v == "0") out = false;
  else if (v == "1") out = true;
  else return false;
  return true;
}

/// One key of a keyed directive line (config, lb, sched): how format_repro
/// writes the field of `Target` and how parse_repro reads it back.
template <typename Target>
struct KeySpec {
  std::string_view name;
  void (*write)(std::ostream&, const Target&);
  bool (*read)(std::string_view, Target&);
};

/// KeySpec for a bool or numeric member; bools are written 0/1.
template <typename Target, auto Field>
constexpr KeySpec<Target> field(std::string_view name) {
  using T = std::remove_cvref_t<decltype(std::declval<Target&>().*Field)>;
  return {
      name,
      [](std::ostream& os, const Target& t) {
        if constexpr (std::is_same_v<T, bool>) os << (t.*Field ? 1 : 0);
        else os << t.*Field;
      },
      [](std::string_view v, Target& t) {
        if constexpr (std::is_same_v<T, bool>) {
          return parse_bool(v, t.*Field);
        } else if constexpr (std::is_floating_point_v<T>) {
          return parse_double(v, t.*Field);
        } else {
          std::uint64_t u = 0;
          if (!parse_u64(v, u)) return false;
          t.*Field = static_cast<T>(u);
          return true;
        }
      }};
}

using Cfg = ProfilerConfig;

// Every key is written by format_repro and required by parse_repro: a
// repro that could omit one would replay under whatever that default later
// becomes.  Table order is the on-disk key order.
constexpr KeySpec<Cfg> kConfigKeys[] = {
    {"storage",
     [](std::ostream& os, const Cfg& c) { os << storage_kind_name(c.storage); },
     [](std::string_view v, Cfg& c) { return parse_storage_kind(v, c.storage); }},
    field<Cfg, &Cfg::slots>("slots"),
    {"sighash",
     [](std::ostream& os, const Cfg& c) { os << sig_hash_name(c.sig_hash); },
     [](std::string_view v, Cfg& c) { return parse_sig_hash(v, c.sig_hash); }},
    field<Cfg, &Cfg::mt_targets>("mt"),
    field<Cfg, &Cfg::workers>("workers"),
    {"queue",
     [](std::ostream& os, const Cfg& c) { os << queue_kind_name(c.queue); },
     [](std::string_view v, Cfg& c) { return parse_queue(v, c.queue); }},
    {"wait",
     [](std::ostream& os, const Cfg& c) { os << wait_kind_name(c.wait); },
     [](std::string_view v, Cfg& c) {
       return parse_wait_kind(std::string(v).c_str(), c.wait);
     }},
    field<Cfg, &Cfg::chunk_size>("chunk"),
    field<Cfg, &Cfg::queue_capacity>("qcap"),
    field<Cfg, &Cfg::modulo_routing>("modulo_routing"),
    field<Cfg, &Cfg::dedup>("dedup"),
    field<Cfg, &Cfg::budget>("budget"),
    field<Cfg, &Cfg::sampling_burst>("burst"),
    field<Cfg, &Cfg::sampling_skip>("skip"),
    field<Cfg, &Cfg::races>("races"),
};

using Lb = LoadBalanceConfig;

constexpr KeySpec<Lb> kLbKeys[] = {
    field<Lb, &Lb::enabled>("enabled"),
    field<Lb, &Lb::sample_shift>("sample_shift"),
    field<Lb, &Lb::eval_interval_chunks>("interval"),
    field<Lb, &Lb::imbalance_threshold>("threshold"),
    field<Lb, &Lb::top_k>("top_k"),
    field<Lb, &Lb::max_rounds>("max_rounds"),
};

constexpr KeySpec<ReproCase> kSchedKeys[] = {
    field<ReproCase, &ReproCase::sched_seed>("seed"),
    {"algo",
     [](std::ostream& os, const ReproCase& r) {
       os << sched::algo_name(r.sched_algo);
     },
     [](std::string_view v, ReproCase& r) {
       return sched::parse_algo(std::string(v).c_str(), r.sched_algo);
     }},
};

template <typename Target, std::size_t N>
void format_keyed_line(std::ostream& os, std::string_view directive,
                       const KeySpec<Target> (&keys)[N], const Target& t) {
  os << directive;
  for (const KeySpec<Target>& k : keys) {
    os << ' ' << k.name << '=';
    k.write(os, t);
  }
  os << '\n';
}

/// Splits one whitespace-separated token into key and value at '='.
bool split_kv(std::string_view token, std::string_view& key,
              std::string_view& value) {
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos || eq == 0) return false;
  key = token.substr(0, eq);
  value = token.substr(eq + 1);
  return true;
}

std::vector<std::string_view> tokens_of(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t') ++j;
    if (j > i) out.push_back(line.substr(i, j - i));
    i = j;
  }
  return out;
}

bool set_error(std::string* error, std::size_t line_no,
               const std::string& what) {
  if (error != nullptr) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "line %zu: ", line_no);
    *error = buf + what;
  }
  return false;
}

/// Rejects a key seen twice on one directive line: a duplicate would
/// silently last-write-win, which is exactly the ambiguity the corpus lint
/// exists to reject.
bool note_key(std::vector<std::string_view>& seen, std::string_view key,
              std::string& err) {
  if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
    err = "duplicate key '" + std::string(key) + "'";
    return false;
  }
  seen.push_back(key);
  return true;
}

/// Parses `toks` (toks[0] is the directive) against `keys`: every token is
/// a known key with a well-formed value, no key repeats, and every key of
/// the table is present.
template <typename Target, std::size_t N>
bool parse_keyed_line(const std::vector<std::string_view>& toks,
                      const KeySpec<Target> (&keys)[N], Target& t,
                      std::string& err) {
  const std::string directive(toks[0]);
  std::vector<std::string_view> seen;
  for (std::size_t i = 1; i < toks.size(); ++i) {
    std::string_view key, value;
    const bool split = split_kv(toks[i], key, value);
    if (split && !note_key(seen, key, err)) return false;
    const auto spec = std::find_if(
        std::begin(keys), std::end(keys),
        [&](const KeySpec<Target>& k) { return k.name == key; });
    if (!split || spec == std::end(keys) || !spec->read(value, t)) {
      err = "bad " + directive + " token '" + std::string(toks[i]) + "'";
      return false;
    }
  }
  for (const KeySpec<Target>& k : keys) {
    if (std::find(seen.begin(), seen.end(), k.name) == seen.end()) {
      err = directive + " line missing key '" + std::string(k.name) + "='";
      return false;
    }
  }
  return true;
}

/// File-local nest id -> process forest id (id 0 is the root).
using NestIds = std::unordered_map<std::uint32_t, std::uint32_t>;

/// `nest id=N parent=P loop=L iter=I` directive: interns one dynamic entry
/// of loop L, begun in iteration I of entry P.  Parents must be declared (or
/// 0) before their children; all four keys are required — a defaulted
/// parent, loop or iteration would silently re-shape the nest.
bool parse_nest_line(const std::vector<std::string_view>& toks,
                     NestIds& id_map, std::string& err) {
  std::uint64_t id = 0, parent = 0, loop = 0, iter = 0;
  bool saw_id = false, saw_parent = false, saw_loop = false, saw_iter = false;
  std::vector<std::string_view> keys;
  for (std::size_t i = 1; i < toks.size(); ++i) {
    std::string_view key, value;
    if (!split_kv(toks[i], key, value)) {
      err = "bad nest token '" + std::string(toks[i]) + "'";
      return false;
    }
    if (!note_key(keys, key, err)) return false;
    bool ok;
    if (key == "id") ok = parse_u64(value, id), saw_id = true;
    else if (key == "parent") ok = parse_u64(value, parent), saw_parent = true;
    else if (key == "loop") ok = parse_u64(value, loop), saw_loop = true;
    else if (key == "iter") ok = parse_u64(value, iter), saw_iter = true;
    else ok = false;
    if (!ok) {
      err = "bad nest token '" + std::string(toks[i]) + "'";
      return false;
    }
  }
  if (!saw_parent || !saw_loop || !saw_iter) {
    err = std::string("nest directive missing ") +
          (!saw_parent ? "parent=" : !saw_loop ? "loop=" : "iter=") + " key";
    return false;
  }
  if (!saw_id || id == 0 || id_map.count(static_cast<std::uint32_t>(id))) {
    err = "bad nest token 'id'";
    return false;
  }
  const auto pit = id_map.find(static_cast<std::uint32_t>(parent));
  if (pit == id_map.end()) {
    err = "bad nest token 'parent'";
    return false;
  }
  id_map[static_cast<std::uint32_t>(id)] =
      nest_forest().enter(pit->second, static_cast<std::uint32_t>(loop),
                          static_cast<std::uint32_t>(iter));
  return true;
}

bool parse_event_line(const std::vector<std::string_view>& toks,
                      AccessEvent& ev, const NestIds& id_map,
                      std::string& err) {
  if (toks.size() < 2) {
    err = "bad event token 'missing event kind'";
    return false;
  }
  if (toks[1] == "R") ev.kind = AccessKind::kRead;
  else if (toks[1] == "W") ev.kind = AccessKind::kWrite;
  else if (toks[1] == "F") ev.kind = AccessKind::kFree;
  else {
    err = "bad event token '" + std::string(toks[1]) + "'";
    return false;
  }
  std::vector<std::string_view> keys;
  for (std::size_t i = 2; i < toks.size(); ++i) {
    std::string_view key, value;
    if (!split_kv(toks[i], key, value)) {
      err = "bad event token '" + std::string(toks[i]) + "'";
      return false;
    }
    if (!note_key(keys, key, err)) return false;
    std::uint64_t u = 0;
    bool ok = true;
    if (key == "addr") ok = parse_u64(value, ev.addr);
    else if (key == "loc")
      ok = parse_u64(value, u), ev.loc = static_cast<std::uint32_t>(u);
    else if (key == "var")
      ok = parse_u64(value, u), ev.var = static_cast<std::uint32_t>(u);
    else if (key == "tid")
      ok = parse_u64(value, u), ev.tid = static_cast<std::uint16_t>(u);
    else if (key == "ts") ok = parse_u64(value, ev.ts);
    else if (key == "flags")
      ok = parse_u64(value, u), ev.flags = static_cast<std::uint8_t>(u);
    else if (key == "ctx") {
      ok = parse_u64(value, u);
      if (ok) {
        const auto it = id_map.find(static_cast<std::uint32_t>(u));
        ok = it != id_map.end();
        if (ok) ev.ctx = it->second;
      }
    } else if (key == "iters") {
      const std::string s(value);
      std::size_t idx = 0;
      const char* p = s.c_str();
      char* end = nullptr;
      while (*p != '\0' && idx < kNestIters) {
        ev.iters[idx++] = static_cast<std::uint32_t>(std::strtoul(p, &end, 0));
        if (end == p) break;
        p = *end == ',' ? end + 1 : end;
      }
      ok = end != nullptr && *end == '\0';
    } else ok = false;
    if (!ok) {
      err = "bad event token '" + std::string(toks[i]) + "'";
      return false;
    }
  }
  return true;
}

}  // namespace

std::string format_repro(const ReproCase& repro) {
  std::ostringstream os;
  os << kVersionLine << '\n';
  if (!repro.note.empty()) os << "note " << repro.note << '\n';
  format_keyed_line(os, "config", kConfigKeys, repro.cfg);
  format_keyed_line(os, "lb", kLbKeys, repro.cfg.load_balance);
  if (repro.sched) {
    format_keyed_line(os, "sched", kSchedKeys, repro);
    for (const sched::ScheduleStep& s : repro.schedule.steps)
      os << "sstep " << s.thread << ' ' << s.site << '\n';
  }
  // Nest table: every forest node reachable from an event context, written
  // ancestors-first (forest ids grow child-after-parent, so ascending
  // forest-id order is a valid declaration order) with dense file-local
  // ids.  Parsing re-interns them, so repros stay self-contained across
  // processes.
  NestForest& forest = nest_forest();
  std::map<std::uint32_t, std::uint32_t> local_id;  // forest id -> file id
  local_id[NestForest::kRoot] = 0;
  for (const AccessEvent& ev : repro.trace.events)
    for (std::uint32_t c = ev.ctx;
         c != NestForest::kRoot && !local_id.count(c); c = forest.parent(c))
      local_id[c] = 1;  // mark; numbered below in ascending order
  std::uint32_t next_id = 1;
  for (auto& [fid, lid] : local_id) {
    if (fid == NestForest::kRoot) continue;
    lid = next_id++;
    os << "nest id=" << lid << " parent=" << local_id[forest.parent(fid)]
       << " loop=" << forest.loop(fid)
       << " iter=" << forest.parent_iter(fid) << '\n';
  }
  static_assert(kNestIters == 7, "update the iters= format below");
  for (const AccessEvent& ev : repro.trace.events) {
    const char kind = ev.is_free() ? 'F' : ev.is_write() ? 'W' : 'R';
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "ev %c addr=0x%llx loc=%u var=%u tid=%u ts=%llu flags=%u "
                  "ctx=%u iters=%u,%u,%u,%u,%u,%u,%u\n",
                  kind, static_cast<unsigned long long>(ev.addr), ev.loc,
                  ev.var, ev.tid, static_cast<unsigned long long>(ev.ts),
                  ev.flags, local_id[ev.ctx], ev.iters[0], ev.iters[1],
                  ev.iters[2], ev.iters[3], ev.iters[4], ev.iters[5],
                  ev.iters[6]);
    os << buf;
  }
  return os.str();
}

bool parse_repro(ReproCase& out, std::string_view text, std::string* error) {
  ReproCase repro;
  bool saw_version = false;
  bool saw_config = false;
  bool saw_lb = false;
  NestIds nest_ids{{0, 0}};
  std::size_t line_no = 0;
  std::size_t pos = 0;
  // Every directive except the provenance note needs the config line first:
  // a directive parsed before the config could be reinterpreted (or a
  // second config could retroactively invalidate it), so ordering is part
  // of the strictness contract rather than a formatting convention.
  auto after_config = [&](const char* directive) {
    return saw_config ||
           set_error(error, line_no,
                     std::string(directive) +
                         " directive before the config line");
  };
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    if (line.empty()) continue;
    if (!saw_version) {
      if (line != kVersionLine)
        return set_error(error, line_no,
                         "expected version line '" +
                             std::string(kVersionLine) + "', got '" +
                             std::string(line) + "'");
      saw_version = true;
      continue;
    }
    if (line[0] == '#') continue;
    const std::vector<std::string_view> toks = tokens_of(line);
    if (toks.empty()) continue;
    std::string err;
    if (toks[0] == "note") {
      const std::size_t at = line.find("note ");
      repro.note = at == std::string_view::npos
                       ? ""
                       : std::string(line.substr(at + 5));
    } else if (toks[0] == "config") {
      if (saw_config)
        return set_error(error, line_no, "duplicate config line");
      if (!parse_keyed_line(toks, kConfigKeys, repro.cfg, err))
        return set_error(error, line_no, err);
      // Semantic rule, not just grammar: the profiler factories refuse a
      // race-mode config that samples or targets a sequential program, so
      // a repro claiming one could never have been recorded.
      if (!races_config_ok(repro.cfg))
        return set_error(error, line_no,
                         "races=1 requires mt=1 and no sampling "
                         "(budget=1, skip=0)");
      saw_config = true;
    } else if (toks[0] == "lb") {
      if (!after_config("lb")) return false;
      if (saw_lb) return set_error(error, line_no, "duplicate lb line");
      if (!parse_keyed_line(toks, kLbKeys, repro.cfg.load_balance, err))
        return set_error(error, line_no, err);
      saw_lb = true;
    } else if (toks[0] == "sched") {
      if (!after_config("sched")) return false;
      if (repro.sched)
        return set_error(error, line_no, "duplicate sched line");
      if (!parse_keyed_line(toks, kSchedKeys, repro, err))
        return set_error(error, line_no, err);
      repro.sched = true;
    } else if (toks[0] == "sstep") {
      if (!repro.sched)
        return set_error(error, line_no, "sstep before sched directive");
      if (toks.size() != 3)
        return set_error(error, line_no, "sstep wants '<thread> <site>'");
      repro.schedule.steps.push_back(
          {std::string(toks[1]), std::string(toks[2])});
    } else if (toks[0] == "nest") {
      if (!after_config("nest")) return false;
      if (!parse_nest_line(toks, nest_ids, err))
        return set_error(error, line_no, err);
    } else if (toks[0] == "ev") {
      if (!after_config("ev")) return false;
      AccessEvent ev;
      if (!parse_event_line(toks, ev, nest_ids, err))
        return set_error(error, line_no, err);
      if (!window_matches_context(ev))
        return set_error(error, line_no,
                         "event " + std::to_string(repro.trace.events.size()) +
                             ": iteration window does not match its nest "
                             "context");
      repro.trace.events.push_back(ev);
    } else {
      return set_error(error, line_no,
                       "unknown directive '" + std::string(toks[0]) + "'");
    }
  }
  if (!saw_version) return set_error(error, 0, "empty file");
  if (!saw_config) return set_error(error, line_no, "missing config line");
  if (!saw_lb) return set_error(error, line_no, "missing lb line");
  out = std::move(repro);
  return true;
}

bool write_repro(const ReproCase& repro, const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  os << format_repro(repro);
  return static_cast<bool>(os);
}

bool read_repro(ReproCase& out, const std::string& path, std::string* error) {
  std::ifstream is(path);
  if (!is) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  return parse_repro(out, buf.str(), error);
}

}  // namespace depprof
