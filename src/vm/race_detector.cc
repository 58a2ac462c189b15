#include "src/vm/race_detector.h"

#include <algorithm>

namespace esd::vm {

std::set<uint64_t> RaceDetector::HeldLocks(const ExecutionState& state, uint32_t tid) {
  std::set<uint64_t> held;
  for (const auto& [addr, mutex] : state.mutexes()) {
    if (mutex.locked && mutex.holder == tid) {
      held.insert(addr);
    }
  }
  for (const auto& [addr, rw] : state.rwlocks()) {
    if (rw.writer == tid) {
      held.insert(addr);
    }
  }
  return held;
}

std::set<uint64_t> RaceDetector::HeldLocksForAccess(const ExecutionState& state,
                                                    uint32_t tid, bool is_write) {
  std::set<uint64_t> held = HeldLocks(state, tid);
  if (!is_write) {
    for (const auto& [addr, rw] : state.rwlocks()) {
      if (rw.ReaderCount(tid) > 0) {
        held.insert(addr);
      }
    }
  }
  return held;
}

std::optional<RaceReport> RaceDetector::OnAccess(uint64_t addr, uint32_t tid,
                                                 bool is_write, ir::InstRef site,
                                                 const std::set<uint64_t>& held_locks) {
  std::lock_guard<std::mutex> lock(mu_);
  WordInfo& w = words_[addr];
  if (w.reported) {
    return std::nullopt;  // Nothing below can flag a site for it again.
  }
  switch (w.st) {
    case WordState::kVirgin:
      w.st = WordState::kExclusive;
      w.first_tid = tid;
      w.lockset = held_locks;
      w.last_site = site;
      return std::nullopt;
    case WordState::kExclusive:
      if (tid == w.first_tid) {
        w.last_site = site;
        return std::nullopt;
      }
      w.st = is_write ? WordState::kSharedModified : WordState::kShared;
      break;
    case WordState::kShared:
      if (is_write) {
        w.st = WordState::kSharedModified;
      }
      break;
    case WordState::kSharedModified:
      break;
  }
  // Refine the candidate lockset on every shared access.
  std::set<uint64_t> intersection;
  std::set_intersection(w.lockset.begin(), w.lockset.end(), held_locks.begin(),
                        held_locks.end(),
                        std::inserter(intersection, intersection.begin()));
  ir::InstRef prev_site = w.last_site;
  w.lockset = std::move(intersection);
  w.last_site = site;
  if (w.st == WordState::kSharedModified && w.lockset.empty() && !w.reported) {
    w.reported = true;
    flagged_sites_.insert(prev_site);
    flagged_sites_.insert(site);
    flagged_count_.store(flagged_sites_.size(), std::memory_order_release);
    return RaceReport{addr, prev_site, site, is_write};
  }
  return std::nullopt;
}

std::set<ir::InstRef> RaceDetector::FlaggedSites() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flagged_sites_;
}

}  // namespace esd::vm
