// ESD core: data-race schedule synthesis (§4.2).
//
// Preemption points are inserted before loads/stores flagged as potential
// (harmful) races by the Eraser-style lockset detector, in addition to the
// synchronization operations. To avoid useless schedule forks early in the
// run, the common-prefix heuristic gates fine-grain forking: the longest
// common prefix of the reported threads' call stacks names a procedure p,
// and forking starts only once a thread's call stack contains p.
#ifndef ESD_SRC_CORE_RACE_STRATEGY_H_
#define ESD_SRC_CORE_RACE_STRATEGY_H_

#include <set>

#include "src/core/goal.h"
#include "src/vm/race_detector.h"
#include "src/vm/schedule_policy.h"

namespace esd::core {

class RaceStrategy : public vm::SchedulePolicy {
 public:
  // `preemption_budget` bounds forced preemptions per state lineage, like
  // Chess's iterative context bounding — without it the fine-grain forks
  // at every sync op swamp the search.
  RaceStrategy(Goal goal, vm::RaceDetector* detector, uint32_t preemption_budget = 4);

  bool IsPreemptionAccess(const vm::ExecutionState& state,
                          ir::InstRef site) override;
  void BeforeSyncOp(vm::EngineServices& services, vm::ExecutionState& state,
                    const vm::SyncOp& op) override;

  // The function index of the last common frame of the reported stacks
  // (ir::kInvalidIndex if there is none).
  uint32_t common_prefix_func() const { return common_prefix_func_; }

  struct Stats {
    uint64_t schedule_forks = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  bool StackContainsPrefix(const vm::Thread& thread) const;

  Goal goal_;
  vm::RaceDetector* detector_;
  // This policy's copy of the detector's flagged sites, refreshed when the
  // detector's set grows (it may be shared with other portfolio workers).
  std::set<ir::InstRef> flagged_;
  uint32_t preemption_budget_;
  uint32_t common_prefix_func_ = ir::kInvalidIndex;
  Stats stats_;
};

}  // namespace esd::core

#endif  // ESD_SRC_CORE_RACE_STRATEGY_H_
