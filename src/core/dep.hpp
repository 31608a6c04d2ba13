#pragma once
// Dependence representation (Sec. III-A) and the merged dependence map.
//
// A dependence is the triple <sink, type, source>: `type` is RAW/WAR/WAW
// plus the special INIT marking the first write to an address; sink and
// source are source-code locations (with thread ids for parallel targets,
// Fig. 3) and the variable name involved.  Identical dependences are merged
// online — the paper reports this shrinks NAS output from 6.1 GB to 53 KB
// (factor ~1e5); the map also counts raw instances so the merge_factor bench
// can reproduce that ratio.

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/location.hpp"
#include "common/mem_stats.hpp"

namespace depprof {

enum class DepType : std::uint8_t {
  kInit = 0,  ///< first write to an address ("{INIT *}" in Fig. 1)
  kRaw = 1,
  kWar = 2,
  kWaw = 3,
};

const char* dep_type_name(DepType t);

/// Per-instance qualifiers, OR-ed together when instances merge.
enum DepFlags : std::uint8_t {
  /// Source and sink share an enclosing dynamic loop entry and executed in
  /// different iterations of it — a loop-carried dependence (input to
  /// Sec. VII-A).  The carrier is the innermost *common* loop; the per-level
  /// buckets in DepInfo say which level and at what distance.
  kLoopCarried = 1u << 0,
  /// Source and sink lie in different innermost dynamic loop entries (they
  /// may still share an outer loop — see the level buckets).
  kCrossLoop = 1u << 1,
  /// Source and sink executed on different target threads (Sec. V) — the
  /// raw material of communication patterns (Sec. VII-B).
  kCrossThread = 1u << 2,
  /// Timestamp order violated when the worker processed the accesses: the
  /// push did not happen atomically with the access, exposing a potential
  /// data race (Sec. V-B).
  kReversed = 1u << 3,
  /// Both conflicting accesses of this instance executed inside lock
  /// regions (Sec. V-B): the pair was mutually excluded by the target's own
  /// synchronization, so it is never a race candidate.  Map-side only —
  /// derived by the detector from the two events' in-lock-region bits, never
  /// present on AccessEvent::flags or the wire format.
  kLockProtected = 1u << 4,
};

/// Identity of a merged dependence.
struct DepKey {
  std::uint32_t sink_loc = 0;  ///< packed SourceLocation of the later access
  std::uint32_t src_loc = 0;   ///< packed SourceLocation of the earlier access (0 for INIT)
  std::uint32_t var = 0;       ///< variable-name id
  std::uint16_t sink_tid = 0;
  std::uint16_t src_tid = 0;
  DepType type = DepType::kInit;

  friend bool operator==(const DepKey&, const DepKey&) = default;
};

struct DepKeyHash {
  std::size_t operator()(const DepKey& k) const;
};

/// Nest levels DepInfo keeps per-level carry buckets for; common levels
/// deeper than this fold into the last level, with their measured distance.
inline constexpr std::size_t kNestLevels = 7;

/// Per-instance nest attribution of one dependence: the innermost loop
/// entry common to source and sink, resolved by the detector (and,
/// independently, the oracle) from the two context ids.
struct DepAttribution {
  std::uint32_t loop = 0;      ///< static loop id of the common loop; 0 = none
  std::uint32_t level = 0;     ///< 1-based nest depth of that loop; 0 = none
  std::uint32_t distance = 0;  ///< |sink iter - src iter| at that level
};

/// One nest level's aggregated carry evidence: how many instances had their
/// innermost common loop at this depth, bucketed by carried distance
/// (0 = same iteration, 1 = adjacent iterations, >= 2 = farther), plus the
/// max-join of the common-loop ids seen here.
struct DepLevel {
  std::uint32_t loop = 0;  ///< max static loop id attributed at this depth
  std::uint64_t d0 = 0;    ///< instances at distance 0 (not carried)
  std::uint64_t d1 = 0;    ///< instances at distance exactly 1
  std::uint64_t d2p = 0;   ///< instances at distance >= 2

  std::uint64_t carried() const { return d1 + d2p; }
};

/// Aggregated facts about one merged dependence.  Every field is a
/// commutative, associative join (count sum, flags OR, per-level loop max
/// and bucket sums), so the merged map is independent of the order in which
/// instances of different addresses reach the map.  That order freedom is
/// what lets the front-end dedup cache reorder events across words while
/// provably preserving the map (see DESIGN.md "Front-end event reduction").
struct DepInfo {
  std::uint64_t count = 0;  ///< dynamic instances merged into this record
  /// Instances whose timestamps arrived reversed (kReversed set) — the OR in
  /// `flags` says *whether* a reversal happened, this says *how often*, which
  /// is what a race report must quote (one reversal among N instances does
  /// not make all N racy).
  std::uint64_t reversed = 0;
  /// Instances whose both endpoints were inside lock regions (kLockProtected
  /// set); when locked == count, every observed conflict was mutually
  /// excluded and the key is suppressed as a race candidate.
  std::uint64_t locked = 0;
  std::uint8_t flags = 0;  ///< OR of instance DepFlags
  /// levels[d] aggregates the instances whose innermost common loop sits at
  /// nest depth d+1 (levels[kNestLevels-1] also absorbs deeper ones).
  DepLevel levels[kNestLevels];

  /// Deepest level with carried instances; 0 when never carried.
  std::uint32_t carried_level() const {
    for (std::size_t d = kNestLevels; d > 0; --d)
      if (levels[d - 1].carried() != 0) return static_cast<std::uint32_t>(d);
    return 0;
  }
  /// Loop id recorded at the deepest carried level (0 when never carried).
  std::uint32_t carried_loop() const {
    const std::uint32_t lvl = carried_level();
    return lvl == 0 ? 0 : levels[lvl - 1].loop;
  }
  /// True when some carried instance was attributed to `loop` (any level).
  bool carried_by(std::uint32_t loop) const {
    for (const DepLevel& l : levels)
      if (l.loop == loop && l.carried() != 0) return true;
    return false;
  }
  /// Smallest carried-distance bucket floor over all levels: 1, 2 (= ">=2"),
  /// or 0 when never carried.
  std::uint32_t min_carried_bucket() const {
    std::uint32_t best = 0;
    for (const DepLevel& l : levels) {
      if (l.d1 != 0) return 1;
      if (l.d2p != 0) best = 2;
    }
    return best;
  }
};

/// The per-instance update rule: count, flags, and the level bucket of the
/// instance's attribution, applied for `n` identical instances at once.
/// Shared by DepMap::add (n = 1) and the detect kernel's record table,
/// which folds a dedup run's repeats with one call, so the two paths cannot
/// drift apart.  Note the level buckets key on *depth*: two different
/// static loops at the same depth under one DepKey share a row (the loop id
/// max-joins) — rare in practice, and the oracle aggregates identically, so
/// the differential contract is unaffected.
inline void apply_dep_instance(DepInfo& info, std::uint8_t flags,
                               const DepAttribution& at, std::uint64_t n) {
  info.count += n;
  info.flags |= flags;
  if (flags & kReversed) info.reversed += n;
  if (flags & kLockProtected) info.locked += n;
  if (at.loop != 0 && at.level != 0) {
    const std::size_t d =
        at.level <= kNestLevels ? at.level - 1 : kNestLevels - 1;
    DepLevel& lvl = info.levels[d];
    lvl.loop = std::max(lvl.loop, at.loop);
    if (at.distance >= 2)
      lvl.d2p += n;
    else if (at.distance == 1)
      lvl.d1 += n;
    else
      lvl.d0 += n;
  }
}

/// Sec. V-B race triage of one merged dependence.  Shared by the profilers'
/// per-run counter publication and by find_races() so snapshot counters and
/// the rendered report agree by construction.
enum class RaceCandidate : std::uint8_t {
  kNone = 0,            ///< not a cross-thread conflict (or INIT)
  kConfirmed,           ///< >= 1 timestamp reversal: no mutual exclusion
  kUnconfirmed,         ///< cross-thread, never reversed, not fully locked
  kSuppressedByLock,    ///< every observed instance was inside lock regions
};

inline RaceCandidate classify_race_candidate(const DepKey& key,
                                             const DepInfo& info) {
  // INIT records the first write to an address — no conflicting pair.
  if (key.type == DepType::kInit) return RaceCandidate::kNone;
  if (info.reversed != 0) return RaceCandidate::kConfirmed;
  if ((info.flags & kCrossThread) == 0) return RaceCandidate::kNone;
  if (info.locked == info.count) return RaceCandidate::kSuppressedByLock;
  return RaceCandidate::kUnconfirmed;
}

/// Merged dependence storage ("local dependence storage" / "global
/// dependence storage" of Fig. 2).  Not thread-safe; the pipeline keeps one
/// per worker and merges at the end.
class DepMap {
 public:
  DepMap() = default;
  ~DepMap();
  DepMap(DepMap&&) noexcept;
  DepMap& operator=(DepMap&&) noexcept;
  DepMap(const DepMap&) = delete;
  DepMap& operator=(const DepMap&) = delete;

  /// Records one dependence instance.  `at` is the instance's nest
  /// attribution (at.loop == 0 when the endpoints share no loop).
  void add(const DepKey& key, std::uint8_t flags,
           const DepAttribution& at = {});

  /// Folds a pre-aggregated record (`info.count` instances) into the map in
  /// one probe, with exactly the result of add()ing those instances one at a
  /// time.  The detect kernel accumulates each batch's records in a
  /// small local table and folds one entry per distinct key.
  void fold(const DepKey& key, const DepInfo& info);

  /// Merges all entries of `other` into this map, leaving `other` intact.
  /// Every entry newly inserted here is *additional* live memory, so prefer
  /// merge_from() when `other` is being retired.
  void merge(const DepMap& other);

  /// Transfer merge (end-of-run global merge): folds `other` into this map
  /// and empties it as it goes.  MemStats-wise each entry either moves
  /// (ownership transfer, no net change) or collapses into an existing entry
  /// (net release), so peak kDepMaps never exceeds the live entry count —
  /// the non-destructive merge() double-counted every transferred entry for
  /// the duration of the merge window.
  void merge_from(DepMap& other);

  const DepInfo* find(const DepKey& key) const;
  std::size_t size() const { return map_.size(); }

  /// Total dependence instances recorded, merged or not — the numerator of
  /// the paper's output-size reduction factor.
  std::uint64_t instances() const { return instances_; }

  /// Bytes an unmerged record stream would occupy (one fixed-size record per
  /// instance), vs bytes() of the merged map.
  static constexpr std::size_t kRawRecordBytes = sizeof(DepKey) + sizeof(std::uint8_t);
  std::size_t bytes() const { return map_.size() * kEntryBytes; }

  /// Stable snapshot for iteration/output (sorted by sink, then type/source).
  std::vector<std::pair<DepKey, DepInfo>> sorted() const;

  auto begin() const { return map_.begin(); }
  auto end() const { return map_.end(); }

  void clear();

 private:
  static constexpr std::size_t kEntryBytes = sizeof(DepKey) + sizeof(DepInfo) + 16;
  std::unordered_map<DepKey, DepInfo, DepKeyHash> map_;
  std::uint64_t instances_ = 0;
};

}  // namespace depprof
