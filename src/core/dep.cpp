#include "core/dep.hpp"

#include <algorithm>
#include <tuple>

#include "common/hash.hpp"

namespace depprof {

const char* dep_type_name(DepType t) {
  switch (t) {
    case DepType::kInit: return "INIT";
    case DepType::kRaw: return "RAW";
    case DepType::kWar: return "WAR";
    case DepType::kWaw: return "WAW";
  }
  return "?";
}

std::size_t DepKeyHash::operator()(const DepKey& k) const {
  std::uint64_t h = k.sink_loc;
  h = mix64(h ^ (static_cast<std::uint64_t>(k.src_loc) << 32));
  h = mix64(h ^ k.var ^ (static_cast<std::uint64_t>(k.sink_tid) << 32) ^
            (static_cast<std::uint64_t>(k.src_tid) << 48) ^
            (static_cast<std::uint64_t>(k.type) << 60));
  return static_cast<std::size_t>(h);
}

DepMap::~DepMap() { clear(); }

DepMap::DepMap(DepMap&& o) noexcept
    : map_(std::move(o.map_)), instances_(o.instances_) {
  o.map_.clear();
  o.instances_ = 0;
}

DepMap& DepMap::operator=(DepMap&& o) noexcept {
  if (this != &o) {
    clear();
    map_ = std::move(o.map_);
    instances_ = o.instances_;
    o.map_.clear();
    o.instances_ = 0;
  }
  return *this;
}

void DepMap::add(const DepKey& key, std::uint8_t flags,
                 const DepAttribution& at) {
  ++instances_;
  auto [it, inserted] = map_.try_emplace(key);
  if (inserted)
    MemStats::instance().add(MemComponent::kDepMaps,
                             static_cast<std::int64_t>(kEntryBytes));
  apply_dep_instance(it->second, flags, at);
}

namespace {

void fold_info(DepInfo& into, const DepInfo& info) {
  into.count += info.count;
  into.reversed += info.reversed;
  into.locked += info.locked;
  into.flags |= info.flags;
  for (std::size_t d = 0; d < kNestLevels; ++d) {
    into.levels[d].loop = std::max(into.levels[d].loop, info.levels[d].loop);
    into.levels[d].d0 += info.levels[d].d0;
    into.levels[d].d1 += info.levels[d].d1;
    into.levels[d].d2p += info.levels[d].d2p;
  }
}

}  // namespace

void DepMap::fold(const DepKey& key, const DepInfo& info) {
  if (info.count == 0) return;
  instances_ += info.count;
  auto [it, inserted] = map_.try_emplace(key);
  if (inserted)
    MemStats::instance().add(MemComponent::kDepMaps,
                             static_cast<std::int64_t>(kEntryBytes));
  fold_info(it->second, info);
}

void DepMap::merge(const DepMap& other) {
  for (const auto& [key, info] : other.map_) {
    auto [it, inserted] = map_.try_emplace(key);
    if (inserted)
      MemStats::instance().add(MemComponent::kDepMaps,
                               static_cast<std::int64_t>(kEntryBytes));
    fold_info(it->second, info);
  }
  instances_ += other.instances_;
}

void DepMap::merge_from(DepMap& other) {
  if (this == &other) return;
  for (auto src = other.map_.begin(); src != other.map_.end();
       src = other.map_.erase(src)) {
    auto [it, inserted] = map_.try_emplace(src->first);
    fold_info(it->second, src->second);
    // A transferred entry keeps its existing kDepMaps credit; a collapsed
    // duplicate releases it.  Erasing incrementally keeps the accounting
    // exact at every step of the merge window.
    if (!inserted)
      MemStats::instance().add(MemComponent::kDepMaps,
                               -static_cast<std::int64_t>(kEntryBytes));
  }
  instances_ += other.instances_;
  other.instances_ = 0;
}

const DepInfo* DepMap::find(const DepKey& key) const {
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second;
}

std::vector<std::pair<DepKey, DepInfo>> DepMap::sorted() const {
  std::vector<std::pair<DepKey, DepInfo>> out(map_.begin(), map_.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    const DepKey& x = a.first;
    const DepKey& y = b.first;
    return std::tie(x.sink_loc, x.sink_tid, x.type, x.src_loc, x.src_tid, x.var) <
           std::tie(y.sink_loc, y.sink_tid, y.type, y.src_loc, y.src_tid, y.var);
  });
  return out;
}

void DepMap::clear() {
  MemStats::instance().add(
      MemComponent::kDepMaps,
      -static_cast<std::int64_t>(kEntryBytes * map_.size()));
  map_.clear();
  instances_ = 0;
}

}  // namespace depprof
