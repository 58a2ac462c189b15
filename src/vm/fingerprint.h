// ESD VM: the visited-fingerprint table for state deduplication.
//
// A set of 64-bit state fingerprints (ExecutionState::Fingerprint) recording
// which states the search has already queued or passed through a
// synchronization point. The engine drops schedule forks and prunes running
// states whose fingerprint is already present — two interleavings of
// independent operations reconverge to the same fingerprint, so only one
// representative keeps exploring.
//
// Each shard is an open-addressing table (linear probing over a power-of-two
// flat array, empty slot = 0, the fingerprint 0 itself tracked by a side
// flag), so an InsertIfAbsent is a cache-friendly probe with no per-element
// node allocation — the only allocation is the amortized table doubling.
// A shard starts at 64 slots on its first insert (see kInitialSlots).
//
// The table is sharded by fingerprint so the workers of a parallel search
// can share one instance: each shard has its own mutex, and InsertIfAbsent
// touches exactly one shard. With `jobs == 1` the mutexes are uncontended.
//
// A table lives as long as one search and is never persisted or seeded:
// visited states carried into another search would unsoundly prune states
// that search has never explored.
#ifndef ESD_SRC_VM_FINGERPRINT_H_
#define ESD_SRC_VM_FINGERPRINT_H_

#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "src/core/event_counters.h"

namespace esd::vm {

// SplitMix64 finalizer: the full-avalanche 64-bit mix every fingerprint
// component goes through. Shared by the state fingerprint (state.cc) and
// the memory content hash (memory.cc) — the two must stay bit-identical,
// since the state fingerprint folds in the hash memory.cc maintains.
inline uint64_t FingerprintMix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

class FingerprintTable {
 public:
  explicit FingerprintTable(size_t shards = 16) : shards_(shards) {}

  // Returns true if `fp` was absent (and is now recorded); false if some
  // state with this fingerprint was already seen.
  bool InsertIfAbsent(uint64_t fp) {
    CountEvent(&EventCounters::fingerprint_probes);
    Shard& shard = shards_[(fp >> 48) % shards_.size()];
    std::lock_guard<std::mutex> lock(shard.mu);
    return shard.Insert(fp);
  }

  size_t Size() const {
    size_t n = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      n += shard.used + (shard.has_zero ? 1 : 0);
    }
    return n;
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    // Flat open-addressing array; 0 marks an empty slot. Sized lazily on
    // first insert, doubled at 3/4 occupancy.
    std::vector<uint64_t> slots;
    size_t used = 0;
    bool has_zero = false;

    bool Insert(uint64_t fp) {
      if (fp == 0) {
        if (has_zero) {
          return false;
        }
        has_zero = true;
        return true;
      }
      if (slots.empty()) {
        slots.assign(kInitialSlots, 0);
      } else if (used * 4 >= slots.size() * 3) {  // Keep load under 3/4.
        Grow();
      }
      uint64_t* slot = Probe(slots, fp);
      if (*slot == fp) {
        return false;
      }
      *slot = fp;
      ++used;
      return true;
    }

    // First slot holding `fp` or the empty slot where it belongs. The
    // fingerprint is already avalanche-mixed, so low bits index directly.
    static uint64_t* Probe(std::vector<uint64_t>& table, uint64_t fp) {
      size_t mask = table.size() - 1;
      size_t i = static_cast<size_t>(fp) & mask;
      while (table[i] != 0 && table[i] != fp) {
        i = (i + 1) & mask;
      }
      return &table[i];
    }

    void Grow() {
      std::vector<uint64_t> bigger(slots.size() * 2, 0);
      for (uint64_t fp : slots) {
        if (fp != 0) {
          *Probe(bigger, fp) = fp;
        }
      }
      slots = std::move(bigger);
    }

    // 64 slots (512 bytes), under glibc's 1 KiB large-request threshold:
    // a typical jobs=1 search probes the table a few hundred times over 16
    // shards, so most shards never grow. Busy shards double from here.
    static constexpr size_t kInitialSlots = 64;
  };
  std::vector<Shard> shards_;
};

}  // namespace esd::vm

#endif  // ESD_SRC_VM_FINGERPRINT_H_
