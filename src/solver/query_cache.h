// ESD solver: the shared portfolio query/counterexample cache (stage 2).
//
// Portfolio workers (`--jobs N`) explore the same program toward the same
// goal, so they keep asking the same component-level satisfiability
// questions. This cache lets an answer computed by one worker short-circuit
// the SAT call in every other worker, mirroring the `--dedup` shared
// fingerprint table: sharded, mutex-striped (one lock per shard, never held
// across a solve), bounded FIFO per shard.
//
// Entries record the inserting solver so a lookup can tell a *cross-worker*
// hit (the interesting, portfolio-only win) from a worker re-finding its own
// answer after local eviction. Satisfiable entries carry the model, which a
// consumer must re-validate by evaluation against its own constraint set
// before trusting — re-validation makes sharing safe even across the rare
// 64-bit key collision.
//
// Eviction is byte-accounted, not entry-counted: a long-lived process (the
// esdserved daemon keeps one cache alive across thousands of jobs) retaining
// large models would otherwise grow without bound even while the entry count
// sat under the cap. Each shard tracks the footprint of its entries
// (EntryFootprint) and evicts FIFO until both the entry cap and its byte
// budget hold.
//
// The cache is also the first persisted cache of the synthesis service:
// Snapshot() exports every entry in deterministic (key-sorted) order and
// Preload() seeds a fresh cache from a parsed snapshot. Preloaded entries
// have no owning solver, so every hit on them counts as a cross-run hit.
#ifndef ESD_SRC_SOLVER_QUERY_CACHE_H_
#define ESD_SRC_SOLVER_QUERY_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/solver/solver.h"  // For Model; solver.h only forward-declares us.

namespace esd::solver {

class SharedSolverCache {
 public:
  struct Hit {
    bool sat = false;
    bool has_model = false;
    Model model;
    bool cross_worker = false;  // Inserted by a different solver than `self`.
  };

  // `max_bytes` bounds the summed EntryFootprint across all shards (split
  // evenly; the FIFO evicts per shard). The entry cap kShards * kShardCap
  // applies independently, whichever bites first.
  explicit SharedSolverCache(size_t max_bytes = kDefaultMaxBytes);

  // `self` identifies the asking solver (any stable pointer).
  std::optional<Hit> Lookup(size_t key, const void* self) const;

  // Records an answer. `model` may be null (unsat, or sat answers found
  // without materializing values). First writer wins; re-inserting an
  // existing key only upgrades a model-less sat entry with a model (byte
  // accounting follows the upgrade).
  void Insert(size_t key, bool sat, const Model* model, const void* self);

  size_t size() const;
  // Current summed EntryFootprint across shards (always <= max_bytes()).
  size_t bytes() const;
  size_t max_bytes() const { return max_bytes_; }

  struct Stats {
    uint64_t evictions = 0;       // FIFO evictions (entry cap or byte budget).
    uint64_t preloaded = 0;       // Entries seeded by Preload().
    uint64_t preloaded_hits = 0;  // Lookups answered by a preloaded entry.
  };
  Stats stats() const;

  // One persisted cache entry. `values`/`names` flatten the model maps in
  // key order, so a Snapshot of a given cache state is deterministic.
  struct SnapshotEntry {
    uint64_t key = 0;
    bool sat = false;
    bool has_model = false;
    std::vector<std::pair<uint64_t, uint64_t>> values;     // id -> value.
    std::vector<std::pair<uint64_t, std::string>> names;   // id -> name.
  };

  // Exports every entry, sorted by key (deterministic across shard layouts:
  // serialize -> Preload -> Snapshot is byte-stable).
  std::vector<SnapshotEntry> Snapshot() const;

  // Seeds the cache from a parsed snapshot. Entries carry a null owner, so
  // any solver's hit on them is a cross-worker (cross-run) hit. Respects
  // the entry cap and byte budget like Insert.
  void Preload(const std::vector<SnapshotEntry>& entries);

  // The deterministic footprint formula byte accounting uses: fixed entry
  // overhead plus the model payload (one slot per value pair, plus name
  // bytes). Deliberately a model of the cost, not malloc truth — it must be
  // identical across platforms so the byte-eviction regression tests and
  // the persisted snapshots behave the same everywhere.
  static size_t EntryFootprint(const Model& model, bool has_model);

  static constexpr size_t kShards = 16;
  // Per-shard FIFO bound: kShards * kShardCap entries total, matching the
  // order of magnitude of the per-worker query cache.
  static constexpr size_t kShardCap = 1 << 12;
  // Default byte budget: 64 MiB across shards. Generous for one run,
  // bounded for a daemon holding the cache across thousands.
  static constexpr size_t kDefaultMaxBytes = 64u << 20;
  // Fixed per-entry overhead EntryFootprint charges: key + FIFO slot +
  // entry header, rounded to a stable 64.
  static constexpr size_t kEntryOverhead = 64;

 private:
  struct Entry {
    bool sat = false;
    bool has_model = false;
    bool preloaded = false;
    Model model;
    const void* owner = nullptr;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<size_t, Entry> map;
    std::deque<size_t> order;  // Insertion order, for FIFO eviction.
    size_t bytes = 0;
    uint64_t evictions = 0;
    uint64_t preloaded = 0;
    uint64_t preloaded_hits = 0;
  };

  // Evicts FIFO until `shard` honors both the entry cap and the byte
  // budget. Caller holds the shard lock.
  void EvictToBudget(Shard& shard);

  Shard& ShardFor(size_t key) const { return shards_[key % kShards]; }

  size_t max_bytes_;
  size_t shard_budget_;  // max_bytes_ / kShards, at least one entry.
  mutable Shard shards_[kShards];
};

}  // namespace esd::solver

#endif  // ESD_SRC_SOLVER_QUERY_CACHE_H_
