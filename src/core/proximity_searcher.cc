#include "src/core/proximity_searcher.h"

#include <algorithm>

#include "src/core/event_counters.h"

namespace esd::core {

const std::vector<ir::InstRef>& ProximitySearcher::StackOf(const vm::Thread& thread) {
  stack_scratch_.clear();
  stack_scratch_.reserve(thread.frames.size());
  for (const vm::StackFrame& f : thread.frames) {
    stack_scratch_.push_back(ir::InstRef{f.func, f.block, f.inst});
  }
  return stack_scratch_;
}

ProximitySearcher::ProximitySearcher(analysis::DistanceCalculator* distances,
                                     std::vector<SearchGoal> goals, Options options)
    : distances_(distances), goals_(std::move(goals)), options_(options),
      rng_(options.seed) {
  if (goals_.empty()) {
    goals_.push_back(SearchGoal{});  // Degenerate: behaves like FIFO by steps.
  }
  queues_.resize(goals_.size());
}

double ProximitySearcher::Priority(const vm::ExecutionState& state,
                                   const SearchGoal& goal, double bonus) {
  uint64_t dist = analysis::kInfDistance;
  if (!goal.target.IsValid()) {
    dist = state.steps;  // Degenerate goal: prefer least-stepped states.
  } else if (goal.tid != SearchGoal::kAnyThread) {
    bool thread_exists = false;
    for (const vm::Thread& t : state.threads) {
      if (t.id == goal.tid && !t.frames.empty() &&
          t.status != vm::ThreadStatus::kExited) {
        thread_exists = true;
        // A thread sitting (blocked) at its goal has arrived: distance 0,
        // even though no forward path to the goal remains.
        dist = t.Pc() == goal.target ? 0
                                     : distances_->ThreadDistance(StackOf(t),
                                                                  goal.target);
      }
    }
    if (!thread_exists) {
      // The goal thread has not been spawned yet: measure how far the
      // existing threads are from spawning it (thread_create sites count as
      // entries into the spawned function).
      for (const vm::Thread& t : state.threads) {
        if (t.frames.empty() || t.status == vm::ThreadStatus::kExited) {
          continue;
        }
        dist = std::min(dist, distances_->ThreadDistance(StackOf(t), goal.target));
      }
    }
  } else {
    for (const vm::Thread& t : state.threads) {
      if (t.frames.empty() || t.status == vm::ThreadStatus::kExited) {
        continue;
      }
      dist = std::min(dist, distances_->ThreadDistance(StackOf(t), goal.target));
    }
  }
  // Weighted average of schedule distance and path distance, biased heavily
  // toward schedule distance (§4.1): the path-distance term is clamped below
  // the schedule weight so a schedule-near state beats every schedule-far
  // state, no matter how lost its path distance looks (a thread that just
  // took its inner lock has "no remaining path" to it, yet is exactly the
  // state to run).
  double path = static_cast<double>(std::min<uint64_t>(dist, kPathDistanceCap));
  return state.schedule_distance * kScheduleWeight + path - bonus;
}

double ProximitySearcher::BlockedGoalBonus(const vm::ExecutionState& state) const {
  // Full-manifestation drive: when *every* reported goal thread is parked
  // (blocked) at its target simultaneously, the deadlock is one scheduling
  // round from detection — drive such states to completion ahead of the
  // frontier (see kBlockedGoalBonus). The all-of-them condition matters: a
  // single parked goal thread is routinely transient (a barrier that will
  // release, a semaphore about to be posted), and rewarding it floods the
  // drive stratum with safe-path states. Only concrete per-thread goals
  // count; intermediate and wildcard goals carry no parked-thread notion.
  // Goal-independent, so PushAll computes it once per state instead of once
  // per (state, goal).
  size_t thread_goals = 0;
  size_t parked = 0;
  for (const SearchGoal& g : goals_) {
    if (!g.target.IsValid() || g.tid == SearchGoal::kAnyThread) {
      continue;
    }
    ++thread_goals;
    for (const vm::Thread& t : state.threads) {
      if (t.id == g.tid && vm::IsBlockedStatus(t.status) && !t.frames.empty() &&
          t.Pc() == g.target) {
        ++parked;
        break;
      }
    }
  }
  return thread_goals > 0 && parked == thread_goals ? kBlockedGoalBonus : 0.0;
}

void ProximitySearcher::PushAll(const vm::StatePtr& state) {
  uint64_t stamp = live_[state.get()].second;
  CountEvent(&EventCounters::frontier_pushes, goals_.size());
  double bonus = BlockedGoalBonus(*state);
  for (size_t q = 0; q < goals_.size(); ++q) {
    queues_[q].push(Entry{Priority(*state, goals_[q], bonus), stamp, state});
  }
}

void ProximitySearcher::Add(vm::StatePtr state) {
  live_[state.get()] = {state, next_stamp_++};
  PushAll(state);
}

void ProximitySearcher::Remove(const vm::StatePtr& state) {
  live_.erase(state.get());  // Heap entries expire lazily.
}

void ProximitySearcher::Update(const vm::StatePtr& state) {
  auto it = live_.find(state.get());
  if (it == live_.end()) {
    return;
  }
  it->second.second = next_stamp_++;
  PushAll(state);
}

vm::StatePtr ProximitySearcher::Select() {
  if (live_.empty()) {
    return nullptr;
  }
  // Uniformly random choice among the virtual queues (§3.4). Modulo draw
  // instead of std::uniform_int_distribution: the distribution's mapping is
  // implementation-defined, and `--jobs 1` synthesis must be
  // bit-reproducible across standard libraries for the same seed.
  size_t start = rng_() % queues_.size();
  for (size_t i = 0; i < queues_.size(); ++i) {
    Heap& heap = queues_[(start + i) % queues_.size()];
    while (!heap.empty()) {
      const Entry& top = heap.top();
      vm::StatePtr state = top.state.lock();
      if (state != nullptr) {
        auto it = live_.find(state.get());
        if (it != live_.end() && it->second.second == top.stamp) {
          CountEvent(&EventCounters::frontier_pops);
          return state;
        }
      }
      heap.pop();
    }
  }
  // All heaps were stale; rebuild from the live set.
  for (auto& [ptr, entry] : live_) {
    PushAll(entry.first);
  }
  Heap& heap = queues_[start];
  while (!heap.empty()) {
    vm::StatePtr state = heap.top().state.lock();
    if (state != nullptr && live_.count(state.get())) {
      return state;
    }
    heap.pop();
  }
  return live_.begin()->second.first;
}

}  // namespace esd::core
