// ESD VM: Eraser-style lockset data-race detection (§4.2).
//
// Tracks, per shared memory word, the set of locks consistently held across
// accesses. When the candidate set becomes empty and at least two threads
// touched the word with at least one write, the access sites are flagged as
// a potential (harmful) data race; the race schedule strategy then inserts
// preemption points at those sites. Because ESD drives the detector from
// symbolic execution, it observes many paths, not just one workload (§4.2).
//
// One detector may serve several threads: a parallel portfolio shares it
// among the workers that share a fingerprint table (see portfolio.cc), so
// the flagged-site set is guarded by a mutex and only ever grows.
#ifndef ESD_SRC_VM_RACE_DETECTOR_H_
#define ESD_SRC_VM_RACE_DETECTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>

#include "src/ir/instruction.h"
#include "src/vm/state.h"

namespace esd::vm {

struct RaceReport {
  uint64_t addr = 0;
  ir::InstRef first_site;
  ir::InstRef second_site;
  bool second_is_write = false;
};

class RaceDetector {
 public:
  // Reports an access; returns a newly flagged race, if any. `held_locks`
  // are the mutex addresses the accessing thread currently holds.
  std::optional<RaceReport> OnAccess(uint64_t addr, uint32_t tid, bool is_write,
                                     ir::InstRef site,
                                     const std::set<uint64_t>& held_locks);

  // Sites flagged as potential races (preemption points for the strategy).
  // A copy: other threads may flag more sites at any time.
  std::set<ir::InstRef> FlaggedSites() const;
  // The size of the flagged-site set. The set only grows, so a reader whose
  // copy has this many sites holds the current set.
  size_t FlaggedCount() const { return flagged_count_.load(std::memory_order_acquire); }

  // Computes the lock addresses held by `tid` in `state`: mutexes plus
  // write-held rwlocks (both exclude every conflicting access).
  static std::set<uint64_t> HeldLocks(const ExecutionState& state, uint32_t tid);

  // The Eraser rwlock refinement: for the lockset protecting an *access*,
  // a write-held rwlock always counts, while a read-held rwlock counts
  // only for reads — a read lock orders the access against writers (who
  // must hold the write side), but two read-holding writers would still
  // race. Semaphores contribute nothing: they provide ordering, not
  // mutual exclusion over a region.
  static std::set<uint64_t> HeldLocksForAccess(const ExecutionState& state,
                                               uint32_t tid, bool is_write);

 private:
  enum class WordState : uint8_t { kVirgin, kExclusive, kShared, kSharedModified };

  struct WordInfo {
    WordState st = WordState::kVirgin;
    uint32_t first_tid = 0;
    std::set<uint64_t> lockset;  // Candidate lockset C(v).
    ir::InstRef last_site;
    bool reported = false;
  };

  mutable std::mutex mu_;
  std::map<uint64_t, WordInfo> words_;
  std::set<ir::InstRef> flagged_sites_;
  std::atomic<size_t> flagged_count_{0};
};

}  // namespace esd::vm

#endif  // ESD_SRC_VM_RACE_DETECTOR_H_
