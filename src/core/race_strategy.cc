#include "src/core/race_strategy.h"

namespace esd::core {

RaceStrategy::RaceStrategy(Goal goal, vm::RaceDetector* detector,
                           uint32_t preemption_budget)
    : goal_(std::move(goal)), detector_(detector),
      preemption_budget_(preemption_budget) {
  // Longest common prefix of the reported threads' call stacks (§4.2); its
  // last frame's function gates fine-grain schedule forking.
  if (goal_.threads.size() >= 2) {
    size_t prefix_len = 0;
    const std::vector<ir::InstRef>& first = goal_.threads[0].stack;
    for (size_t i = 0; i < first.size(); ++i) {
      bool all_match = true;
      for (const ThreadGoal& tg : goal_.threads) {
        if (i >= tg.stack.size() || tg.stack[i].func != first[i].func) {
          all_match = false;
          break;
        }
      }
      if (!all_match) {
        break;
      }
      prefix_len = i + 1;
    }
    if (prefix_len > 0) {
      common_prefix_func_ = first[prefix_len - 1].func;
    }
  }
  // Single-thread reports (e.g. an assert in main observing racy state) give
  // no cross-thread prefix: leave the gate open so racy accesses anywhere
  // become preemption points.
}

bool RaceStrategy::StackContainsPrefix(const vm::Thread& thread) const {
  if (common_prefix_func_ == ir::kInvalidIndex) {
    return true;
  }
  for (const vm::StackFrame& f : thread.frames) {
    if (f.func == common_prefix_func_) {
      return true;
    }
  }
  return false;
}

bool RaceStrategy::IsPreemptionAccess(const vm::ExecutionState& state,
                                      ir::InstRef site) {
  if (detector_ == nullptr) {
    return false;
  }
  if (detector_->FlaggedCount() != flagged_.size()) {
    flagged_ = detector_->FlaggedSites();
  }
  if (flagged_.count(site) == 0) {
    return false;
  }
  return StackContainsPrefix(state.CurrentThread());
}

void RaceStrategy::BeforeSyncOp(vm::EngineServices& services,
                                vm::ExecutionState& state, const vm::SyncOp& op) {
  // The operation is about to execute; wake sleeping operations it
  // interferes with before the gates below consult the sleep set.
  WakeSleepers(state, op);
  // Fork fine-grain schedule variants at racy accesses and at sync ops once
  // the common-prefix gate opens: one variant per other runnable thread,
  // bounded by the per-lineage preemption budget.
  if (state.preemptions >= preemption_budget_ ||
      !StackContainsPrefix(state.CurrentThread())) {
    return;
  }
  for (const vm::Thread& t : state.threads) {
    if (t.id == state.current_tid || t.status != vm::ThreadStatus::kRunnable ||
        ShouldSkipFork(state, t.id)) {
      continue;
    }
    vm::StatePtr variant = services.ForkState(state);
    variant->current_tid = t.id;
    ++variant->preemptions;
    variant->RecordEvent(vm::SchedEvent::Kind::kSwitch, t.id, 0, t.Pc());
    variant->is_schedule_snapshot = true;
    RecordPreempted(*variant, state.current_tid, op);
    if (!services.AddState(variant)) {
      continue;  // Deduped: an identical variant is already explored.
    }
    ++state.depth;  // The continuing state also descends in the fork tree.
    ++stats_.schedule_forks;
  }
}

}  // namespace esd::core
