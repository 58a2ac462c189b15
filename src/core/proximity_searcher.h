// ESD core: the proximity-guided searcher (§3.4).
//
// Maintains n "virtual" priority queues, one per goal: the intermediate
// goals inferred by static analysis plus the final goal of each reported
// thread. At every step a queue is chosen uniformly at random and the state
// with the smallest estimated distance to that queue's goal is executed
// next. Priorities are a weighted average of the path-distance estimate
// (Algorithm 1) and the schedule distance, heavily biased toward schedule
// distance so near-deadlock states win (§4.1).
//
// Queues are lazy heaps: entries carry a version stamp and are dropped at
// pop time when stale, which keeps per-step cost logarithmic even though
// the stepped state's distances change every instruction (§6.2).
#ifndef ESD_SRC_CORE_PROXIMITY_SEARCHER_H_
#define ESD_SRC_CORE_PROXIMITY_SEARCHER_H_

#include <cstdint>
#include <memory>
#include <queue>
#include <random>
#include <unordered_map>
#include <vector>

#include "src/analysis/distance.h"
#include "src/core/arena.h"
#include "src/core/goal.h"
#include "src/vm/searcher.h"

namespace esd::core {

class ProximitySearcher : public vm::Searcher {
 public:
  struct Options {
    uint64_t seed = 1;
  };

  // Weight multiplying the schedule distance (heavy bias, §4.1).
  static constexpr double kScheduleWeight = 1e7;

  // Path distances saturate here, strictly below kScheduleWeight, so the
  // schedule-distance bias always dominates.
  static constexpr uint64_t kPathDistanceCap = 1'000'000;

  // Subtracted from the priority when *every* goal thread is blocked at
  // its target (the deadlock has fully manifested; only the remaining
  // threads need driving to blockage). Strictly larger than the
  // path-distance cap so such states always outrank the exploration
  // frontier — without this they tie with it and starve (a frontier of
  // tens of thousands of equal-priority states advances each lineage once
  // per frontier-size selections). Kept below kScheduleWeight so the §4.1
  // schedule-distance bias still dominates.
  static constexpr double kBlockedGoalBonus = 2'000'000.0;

  // Priorities below this are in a "drive to completion" stratum (some
  // goal thread blocked at its target, or schedule-near): see the Entry
  // comparator. States on the plain far frontier sit at kScheduleWeight +
  // path and stay above it. Only tie *order* depends on this constant,
  // never correctness.
  static constexpr double kDriveTieThreshold = kScheduleWeight;

  // `goals`: the final per-thread goals (goal.threads) plus any intermediate
  // goals; each entry is (target instruction, thread id or kAnyThread).
  struct SearchGoal {
    ir::InstRef target;
    uint32_t tid = kAnyThread;  // Distance uses this thread's stack.
    static constexpr uint32_t kAnyThread = 0xffffffffu;
  };

  ProximitySearcher(analysis::DistanceCalculator* distances,
                    std::vector<SearchGoal> goals, Options options);

  void Add(vm::StatePtr state) override;
  void Remove(const vm::StatePtr& state) override;
  vm::StatePtr Select() override;
  void Update(const vm::StatePtr& state) override;
  bool Empty() const override { return live_.empty(); }
  size_t Size() const override { return live_.size(); }

 private:
  struct Entry {
    double priority;
    uint64_t stamp;
    std::weak_ptr<vm::ExecutionState> state;
    // Tie policy. Below kDriveTieThreshold — the schedule-near and
    // blocked-goal strata, where part of the reported deadlock has already
    // manifested — ties break LIFO (largest stamp pops first): the engine
    // restamps a state after every step, so the state just stepped keeps
    // running and the almost-manifest lineage drives to completion instead
    // of round-robining over the whole tied stratum. At or above the
    // threshold (the plain exploration frontier) ties stay unordered:
    // heap-mixed exploration is what escapes the self-replicating
    // schedule-fork families that pruning-off ablations produce, where a
    // strict LIFO would dive into ever-newer clones forever. The flag is a
    // pure function of the priority, so the ordering remains a strict weak
    // order.
    bool operator>(const Entry& other) const {
      if (priority != other.priority) {
        return priority > other.priority;
      }
      return priority < kDriveTieThreshold && stamp < other.stamp;
    }
  };
  using Heap = std::priority_queue<Entry, std::vector<Entry>, std::greater<>>;

  double Priority(const vm::ExecutionState& state, const SearchGoal& goal,
                  double bonus);
  // The kBlockedGoalBonus term: goal-independent, hoisted out of the
  // per-goal Priority loop.
  double BlockedGoalBonus(const vm::ExecutionState& state) const;
  void PushAll(const vm::StatePtr& state);
  // Fills stack_scratch_ with the thread's call-stack InstRefs (outermost
  // first); reused across calls so the per-step Priority loop is
  // allocation-free.
  const std::vector<ir::InstRef>& StackOf(const vm::Thread& thread);

  analysis::DistanceCalculator* distances_;
  std::vector<SearchGoal> goals_;
  Options options_;
  std::vector<Heap> queues_;  // One per goal.
  std::vector<ir::InstRef> stack_scratch_;
  // Hashed by state pointer: probed on every push (stamp read) and every
  // pop (stamp validation), so lookup cost matters more than order; the
  // only full iteration is the rare all-stale rebuild in Select. Its nodes
  // come and go with the states, so they are pooled like them.
  using LiveEntry = std::pair<vm::StatePtr, uint64_t>;
  std::unordered_map<const vm::ExecutionState*, LiveEntry,
                     std::hash<const vm::ExecutionState*>,
                     std::equal_to<const vm::ExecutionState*>,
                     core::ArenaAllocator<std::pair<const vm::ExecutionState* const, LiveEntry>>>
      live_;
  std::mt19937_64 rng_;
  uint64_t next_stamp_ = 1;
};

}  // namespace esd::core

#endif  // ESD_SRC_CORE_PROXIMITY_SEARCHER_H_
