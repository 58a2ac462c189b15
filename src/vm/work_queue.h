// ESD VM: the parallel portfolio's shared partitioned frontier.
//
// With jobs > 1 the N portfolio workers drain ONE logical frontier instead
// of searching N copies of the same space. The frontier is partitioned by
// fork-fingerprint ownership hashing: when a worker registers a schedule or
// branch fork, the child's 64-bit state fingerprint mod N names its home
// worker, and children whose home is another worker are handed off through
// that worker's deque. Each worker owns one deque: the owner absorbs it
// wholesale into its prioritized searcher at the hot end (newest first, so
// absorption behaves like a LIFO pop burst), while an idle worker whose own
// partition is empty steals the oldest entry (FIFO, the cold end — the
// shallowest state, hence the largest unexplored subtree) from a random
// victim. Because the shared FingerprintTable admits each interleaving
// class once and the hash routes every class to one home, the portfolio
// explores each class roughly once instead of jobs times.
//
// Termination detection: an atomic in-flight count tracks every state that
// has been registered anywhere (kept locally, handed off, or being stepped)
// and not yet finished. An idle worker that finds every deque empty may
// only exit when the count is zero; a nonzero count with empty deques means
// some peer is mid-step and may still publish forks, so the worker spins
// (AcquireResult::kRetry). The count is incremented before a state becomes
// reachable by any peer and decremented only after its forks were absorbed,
// so it cannot transiently read zero while work remains.
#ifndef ESD_SRC_VM_WORK_QUEUE_H_
#define ESD_SRC_VM_WORK_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <vector>

#include "src/vm/state.h"

namespace esd::vm {

// Cross-worker state-transfer surface: one mutex-protected deque per worker
// plus the atomic in-flight count. Deque mutexes are uncontended in steady
// state (the owner absorbs in bursts; remote pushes touch only the home's
// lock). All methods are thread-safe; `worker` parameters name the calling
// worker.
class SharedFrontier {
 public:
  // Outcome of an idle worker's attempt to acquire more work.
  enum class AcquireResult : uint8_t {
    kGot,      // `out` holds one or more states (own partition or stolen).
    kRetry,    // Every deque is empty but peers still hold in-flight
               // states that may fork: spin and try again.
    kDrained,  // Global frontier empty and nothing in flight: terminate.
    kAbort,    // A peer stopped on a budget limit: stop idling, report
               // kLimitReached instead of spinning until the time cap.
  };

  explicit SharedFrontier(size_t workers, uint64_t seed = 0x9e3779b97f4a7c15ull);

  // Routes a fork to its home worker's deque. Called by the worker that
  // created (and fingerprint-registered) the fork; `home` != the caller.
  // Counts the state in flight.
  void PushRemote(size_t home, StatePtr state);

  // Accounts a fork the creating worker keeps in its own searcher (home ==
  // creator, no deque trip). Counts the state in flight.
  void NoteLocalKeep();

  // Moves every state currently routed to `worker` into `out` (newest
  // last). Returns false without locking when the deque is empty — cheap
  // enough for the engine to poll every iteration.
  bool TryDrainOwn(size_t worker, std::vector<StatePtr>* out);

  // Idle-worker path: drain own deque, else steal the oldest state from a
  // random victim, else report why nothing was acquired (see AcquireResult).
  AcquireResult Acquire(size_t worker, std::vector<StatePtr>* out);

  // A state finished (ran to completion, was pruned at a sync point, or
  // hit a bug): removes it from the in-flight count.
  void FinishOne();

  // The calling worker is exiting on a budget limit with states possibly
  // still queued; idle peers must stop spinning (Acquire returns kAbort).
  void NoteLimit();

  // In-flight count, for tests and diagnostics.
  uint64_t InFlight() const;

 private:
  struct Partition {
    std::mutex mu;
    std::deque<StatePtr> queue;
    // Lock-free emptiness probe for the owner's per-iteration poll.
    std::atomic<size_t> size{0};
    // Victim-order randomization; touched only by the owning worker's
    // Acquire calls, so it needs no lock.
    std::mt19937_64 rng;
  };

  std::vector<std::unique_ptr<Partition>> partitions_;
  std::atomic<uint64_t> in_flight_{0};
  std::atomic<bool> limit_{false};
};

}  // namespace esd::vm

#endif  // ESD_SRC_VM_WORK_QUEUE_H_
