#include "src/solver/query_cache.h"

#include <algorithm>

namespace esd::solver {

SharedSolverCache::SharedSolverCache(size_t max_bytes)
    : max_bytes_(max_bytes) {
  // Every shard can hold at least one model-less entry, so Insert never
  // evicts the entry it just added (a budget below kEntryOverhead would).
  shard_budget_ = std::max(max_bytes_ / kShards, kEntryOverhead);
}

size_t SharedSolverCache::EntryFootprint(const Model& model, bool has_model) {
  size_t bytes = kEntryOverhead;
  if (!has_model) {
    return bytes;
  }
  // One fixed-size slot per value pair plus the name payload. 3 words per
  // map node is the stable stand-in for the node overhead.
  bytes += model.values.size() * 3 * sizeof(uint64_t);
  for (const auto& [id, name] : model.names) {
    bytes += 3 * sizeof(uint64_t) + name.size();
  }
  return bytes;
}

void SharedSolverCache::EvictToBudget(Shard& shard) {
  while (!shard.order.empty() &&
         (shard.map.size() > kShardCap || shard.bytes > shard_budget_)) {
    auto it = shard.map.find(shard.order.front());
    shard.order.pop_front();
    if (it == shard.map.end()) {
      continue;  // Already displaced (should not happen; be safe).
    }
    shard.bytes -= EntryFootprint(it->second.model, it->second.has_model);
    shard.map.erase(it);
    ++shard.evictions;
  }
}

std::optional<SharedSolverCache::Hit> SharedSolverCache::Lookup(
    size_t key, const void* self) const {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    return std::nullopt;
  }
  Hit hit;
  hit.sat = it->second.sat;
  hit.has_model = it->second.has_model;
  if (hit.has_model) {
    hit.model = it->second.model;  // Copied under the lock.
  }
  hit.cross_worker = it->second.owner != self;
  return hit;
}

void SharedSolverCache::Insert(size_t key, bool sat, const Model* model,
                               const void* self) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.map.try_emplace(key);
  if (!inserted) {
    // First writer wins; only upgrade a model-less sat entry with values so
    // later model requests can be served cross-worker too.
    if (it->second.sat && !it->second.has_model && sat && model != nullptr) {
      shard.bytes -= EntryFootprint(it->second.model, false);
      it->second.model = *model;
      it->second.has_model = true;
      shard.bytes += EntryFootprint(it->second.model, true);
      EvictToBudget(shard);
    }
    return;
  }
  it->second.sat = sat;
  it->second.owner = self;
  if (model != nullptr) {
    // A model too large for the whole shard budget is stripped rather than
    // cycling the entire shard through eviction; the sat verdict alone is
    // still worth sharing.
    if (EntryFootprint(*model, true) <= shard_budget_) {
      it->second.model = *model;
      it->second.has_model = true;
    }
  }
  shard.bytes += EntryFootprint(it->second.model, it->second.has_model);
  shard.order.push_back(key);
  EvictToBudget(shard);
}

size_t SharedSolverCache::size() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.map.size();
  }
  return n;
}

size_t SharedSolverCache::bytes() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.bytes;
  }
  return n;
}

SharedSolverCache::Stats SharedSolverCache::stats() const {
  Stats stats;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    stats.evictions += shard.evictions;
  }
  return stats;
}

}  // namespace esd::solver
