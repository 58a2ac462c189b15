// ESD solver: the shared portfolio query/counterexample cache (stage 2).
//
// Portfolio workers (`--jobs N`) explore the same program toward the same
// goal, so they keep asking the same component-level satisfiability
// questions. This cache lets an answer computed by one worker short-circuit
// the SAT call in every other worker, mirroring the `--dedup` shared
// fingerprint table: sharded, mutex-striped (one lock per shard, never held
// across a solve), bounded FIFO per shard. One search owns it and drops it
// when the search ends; nothing persists it.
//
// Entries record the inserting solver so a lookup can tell a *cross-worker*
// hit (the interesting, portfolio-only win) from a worker re-finding its own
// answer after local eviction. Satisfiable entries carry the model, which a
// consumer must re-validate by evaluation against its own constraint set
// before trusting — re-validation makes sharing safe even across the rare
// 64-bit key collision.
//
// Eviction is byte-accounted, not entry-counted: one `--jobs N` search can
// run for minutes, and retaining large models would otherwise grow the
// cache without bound even while the entry count sat under the cap. Each
// shard tracks the footprint of its entries (EntryFootprint) and evicts
// FIFO until both the entry cap and its byte budget hold.
#ifndef ESD_SRC_SOLVER_QUERY_CACHE_H_
#define ESD_SRC_SOLVER_QUERY_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>

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
    uint64_t evictions = 0;  // FIFO evictions (entry cap or byte budget).
  };
  Stats stats() const;

  // The deterministic footprint formula byte accounting uses: fixed entry
  // overhead plus the model payload (one slot per value pair, plus name
  // bytes). Deliberately a model of the cost, not malloc truth — it must be
  // identical across platforms so the byte-eviction regression tests
  // behave the same everywhere.
  static size_t EntryFootprint(const Model& model, bool has_model);

  static constexpr size_t kShards = 16;
  // Per-shard FIFO bound: kShards * kShardCap entries total, matching the
  // order of magnitude of the per-worker query cache.
  static constexpr size_t kShardCap = 1 << 12;
  // Default byte budget: 64 MiB across shards, generous for one run.
  static constexpr size_t kDefaultMaxBytes = 64u << 20;
  // Fixed per-entry overhead EntryFootprint charges: key + FIFO slot +
  // entry header, rounded to a stable 64.
  static constexpr size_t kEntryOverhead = 64;

 private:
  struct Entry {
    bool sat = false;
    bool has_model = false;
    Model model;
    const void* owner = nullptr;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<size_t, Entry> map;
    std::deque<size_t> order;  // Insertion order, for FIFO eviction.
    size_t bytes = 0;
    uint64_t evictions = 0;
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
