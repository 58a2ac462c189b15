#include "src/vm/work_queue.h"

#include "src/core/event_counters.h"

namespace esd::vm {

SharedFrontier::SharedFrontier(size_t workers, uint64_t seed) {
  partitions_.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    auto p = std::make_unique<Partition>();
    p->rng.seed(seed + w * 0x9e3779b97f4a7c15ull);
    partitions_.push_back(std::move(p));
  }
}

void SharedFrontier::PushRemote(size_t home, StatePtr state) {
  // The increment must precede publication: once the state is in the deque
  // a peer can pop and finish it, and the matching FinishOne must never
  // drive the count below the states still queued.
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  Partition& p = *partitions_[home];
  std::lock_guard<std::mutex> lock(p.mu);
  p.queue.push_back(std::move(state));
  p.size.store(p.queue.size(), std::memory_order_relaxed);
}

void SharedFrontier::NoteLocalKeep() {
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
}

bool SharedFrontier::TryDrainOwn(size_t worker, std::vector<StatePtr>* out) {
  Partition& p = *partitions_[worker];
  if (p.size.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  std::lock_guard<std::mutex> lock(p.mu);
  if (p.queue.empty()) {
    return false;
  }
  for (StatePtr& state : p.queue) {
    out->push_back(std::move(state));
  }
  p.queue.clear();
  p.size.store(0, std::memory_order_relaxed);
  return true;
}

SharedFrontier::AcquireResult SharedFrontier::Acquire(size_t worker,
                                                      std::vector<StatePtr>* out) {
  if (TryDrainOwn(worker, out)) {
    return AcquireResult::kGot;
  }
  const size_t n = partitions_.size();
  if (n > 1) {
    // Steal FIFO from a random victim: scan every peer once starting at a
    // random offset, taking the oldest (shallowest) entry of the first
    // non-empty deque. Shallow states head the largest unexplored
    // subtrees, so one steal feeds the thief for a while.
    Partition& self = *partitions_[worker];
    size_t start = static_cast<size_t>(self.rng() % n);
    for (size_t i = 0; i < n; ++i) {
      size_t victim = (start + i) % n;
      if (victim == worker) {
        continue;
      }
      Partition& v = *partitions_[victim];
      if (v.size.load(std::memory_order_relaxed) == 0) {
        continue;
      }
      std::lock_guard<std::mutex> lock(v.mu);
      if (v.queue.empty()) {
        // Raced with the victim draining its own deque; keep scanning. The
        // single post-loop counter records the failed attempt — counting
        // here too would record N+1 failures for one fully-failed scan.
        continue;
      }
      out->push_back(std::move(v.queue.front()));
      v.queue.pop_front();
      v.size.store(v.queue.size(), std::memory_order_relaxed);
      CountEvent(&EventCounters::steals);
      return AcquireResult::kGot;
    }
    CountEvent(&EventCounters::steal_failures);
  }
  if (limit_.load(std::memory_order_acquire)) {
    return AcquireResult::kAbort;
  }
  if (in_flight_.load(std::memory_order_acquire) == 0) {
    return AcquireResult::kDrained;
  }
  return AcquireResult::kRetry;
}

void SharedFrontier::FinishOne() {
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
}

void SharedFrontier::NoteLimit() {
  limit_.store(true, std::memory_order_release);
}

uint64_t SharedFrontier::InFlight() const {
  return in_flight_.load(std::memory_order_acquire);
}

}  // namespace esd::vm
