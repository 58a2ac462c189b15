#include "src/vm/engine.h"

#include <algorithm>
#include <thread>

#include "src/core/event_counters.h"

namespace esd::vm {

Engine::Engine(Interpreter* interpreter, Searcher* searcher, Options options)
    : interpreter_(interpreter), searcher_(searcher), options_(options) {
  interpreter_->set_services(this);
}

void Engine::Register(const StatePtr& state) {
  live_.emplace(state.get(), state);
  ++states_created_;
  CountEventMax(&EventCounters::frontier_max_depth, state->depth);
  if (options_.shared_states != nullptr) {
    options_.shared_states->fetch_add(1, std::memory_order_relaxed);
  }
}

void Engine::Unregister(const StatePtr& state) {
  if (live_.erase(state.get()) > 0 && options_.shared_states != nullptr) {
    options_.shared_states->fetch_sub(1, std::memory_order_relaxed);
  }
}

uint64_t Engine::DedupKey(const ExecutionState& state) const {
  uint64_t fp = state.Fingerprint();
  if (options_.dedup_races == nullptr) {
    return fp;
  }
  return fp ^ FingerprintMix64(options_.dedup_races->FlaggedCount());
}

bool Engine::AlreadyVisited(const ExecutionState& state) {
  if (options_.visited == nullptr) {
    return false;
  }
  if (options_.visited->InsertIfAbsent(DedupKey(state))) {
    return false;
  }
  ++states_deduped_;
  return true;
}

void Engine::RestartIfRacesGrew() {
  size_t flagged = options_.dedup_races->FlaggedCount();
  if (flagged != races_seen_) {
    races_seen_ = flagged;
    AddState(ForkState(*root_));
  }
}

void Engine::Start(StatePtr initial) {
  if (options_.visited != nullptr) {
    options_.visited->InsertIfAbsent(DedupKey(*initial));
  }
  if (options_.dedup_races != nullptr) {
    root_ = ForkState(*initial);
    races_seen_ = options_.dedup_races->FlaggedCount();
  }
  if (Cooperative()) {
    options_.frontier->NoteLocalKeep();
  }
  Register(initial);
  searcher_->Add(std::move(initial));
}

StatePtr Engine::ForkState(const ExecutionState& state) {
  return state.Fork(interpreter_->AllocStateId());
}

bool Engine::AddState(StatePtr state) {
  uint64_t fp = 0;
  bool have_fp = false;
  if (options_.visited != nullptr) {
    fp = DedupKey(*state);
    have_fp = true;
    if (!options_.visited->InsertIfAbsent(fp)) {
      ++states_deduped_;
      return false;  // An identical state was already explored: drop the fork.
    }
  }
  if (Cooperative()) {
    // Ownership hashing: the fork's dedup key (its fingerprint when dedup
    // is off) names its home worker, so each interleaving class lands on
    // one worker's frontier. The key was recorded in the shared table above
    // (when dedup is on), so the receiver adopts it without re-probing.
    if (!have_fp) {
      fp = state->Fingerprint();
    }
    const size_t home = static_cast<size_t>(fp % options_.workers);
    if (home != options_.worker) {
      CountEvent(&EventCounters::states_handed_off);
      options_.frontier->PushRemote(home, std::move(state));
      return true;
    }
    options_.frontier->NoteLocalKeep();
  }
  Register(state);
  searcher_->Add(std::move(state));
  return true;
}

void Engine::AdoptIncoming(std::vector<StatePtr>* incoming) {
  // TryDrainOwn yields oldest first; absorb in reverse so the hot end (the
  // most recently forked, deepest states) enters the searcher first — LIFO
  // for the plain queue searchers, irrelevant for the proximity searcher,
  // which re-scores every arrival against its own goal heaps.
  for (auto it = incoming->rbegin(); it != incoming->rend(); ++it) {
    Register(*it);
    searcher_->Add(std::move(*it));
  }
  incoming->clear();
}

void Engine::Reprioritize(const StatePtr& state) { searcher_->Update(state); }

StatePtr Engine::SharedRef(const ExecutionState& state) {
  auto it = live_.find(&state);
  return it == live_.end() ? nullptr : it->second;
}

Engine::Result Engine::Run(const BugMatcher& matcher) {
  Result result;
  auto start_time = std::chrono::steady_clock::now();
  uint64_t instructions = 0;
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time)
        .count();
  };

  // Portfolio bookkeeping: instructions executed since the last flush into
  // the shared counter. Flushing in batches keeps the shared cacheline out
  // of the hot loop, but the batch must stay small relative to the shared
  // budget or the budget is never checked before the workers' local caps —
  // so the period shrinks to ~1/8 of a small budget.
  constexpr uint64_t kFlushPeriod = 256;
  uint64_t flush_period = kFlushPeriod;
  if (options_.shared_max_instructions != 0) {
    flush_period = std::min<uint64_t>(
        kFlushPeriod, std::max<uint64_t>(1, options_.shared_max_instructions / 8));
  }
  uint64_t unflushed = 0;
  bool shared_budget_hit = false;
  auto flush_shared = [&] {
    if (options_.shared_instructions != nullptr && unflushed > 0) {
      uint64_t total = options_.shared_instructions->fetch_add(
                           unflushed, std::memory_order_relaxed) +
                       unflushed;
      unflushed = 0;
      if (options_.shared_max_instructions != 0 &&
          total >= options_.shared_max_instructions) {
        shared_budget_hit = true;
      }
    }
  };
  // The shared budgets, checked after each flush and on the idle path
  // (while a worker spins waiting for peers, `instructions` does not
  // advance, so no flush fires). The state check is strict, like the local
  // live_.size() check, so one worker stops exactly where it would without
  // the shared counters.
  auto shared_budget_exceeded = [&] {
    if (shared_budget_hit) {
      return true;
    }
    if (options_.shared_instructions != nullptr &&
        options_.shared_max_instructions != 0 &&
        options_.shared_instructions->load(std::memory_order_relaxed) >=
            options_.shared_max_instructions) {
      return true;
    }
    return options_.shared_states != nullptr && options_.shared_max_states != 0 &&
           options_.shared_states->load(std::memory_order_relaxed) >
               options_.shared_max_states;
  };

  const bool coop = Cooperative();
  std::vector<StatePtr> incoming;
  uint64_t idle_spins = 0;

  while (true) {
    if (coop && options_.frontier->TryDrainOwn(options_.worker, &incoming)) {
      AdoptIncoming(&incoming);
    }
    if (searcher_->Empty()) {
      if (!coop) {
        break;  // kExhausted: the lone frontier is empty.
      }
      switch (options_.frontier->Acquire(options_.worker, &incoming)) {
        case SharedFrontier::AcquireResult::kGot:
          AdoptIncoming(&incoming);
          idle_spins = 0;
          continue;
        case SharedFrontier::AcquireResult::kDrained:
          // Global frontier empty and nothing in flight anywhere: the
          // search space is exhausted.
          result.status = Result::Status::kExhausted;
          break;
        case SharedFrontier::AcquireResult::kAbort:
          result.status = Result::Status::kLimitReached;
          break;
        case SharedFrontier::AcquireResult::kRetry: {
          // Peers hold in-flight states that may still fork children into
          // our partition: spin, but keep honoring cancellation and the
          // budgets the per-step checks below can no longer reach.
          if (options_.cancel != nullptr &&
              options_.cancel->load(std::memory_order_relaxed)) {
            result.status = Result::Status::kCancelled;
            break;
          }
          flush_shared();
          if (shared_budget_exceeded() || elapsed() > options_.time_cap_seconds) {
            result.status = Result::Status::kLimitReached;
            break;
          }
          if (++idle_spins > 64) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          } else {
            std::this_thread::yield();
          }
          continue;
        }
      }
      break;
    }
    idle_spins = 0;
    if (options_.cancel != nullptr &&
        options_.cancel->load(std::memory_order_relaxed)) {
      result.status = Result::Status::kCancelled;
      break;
    }
    if (instructions >= options_.max_instructions || live_.size() > options_.max_states) {
      result.status = Result::Status::kLimitReached;
      break;
    }
    if (unflushed >= flush_period) {
      flush_shared();
      if (shared_budget_exceeded()) {
        result.status = Result::Status::kLimitReached;
        break;
      }
    }
    if ((instructions & 0x3ff) == 0 && elapsed() > options_.time_cap_seconds) {
      result.status = Result::Status::kLimitReached;
      break;
    }
    StatePtr state = searcher_->Select();
    if (state == nullptr) {
      break;
    }
    StepResult step = interpreter_->Step(*state);
    ++instructions;
    ++unflushed;
    if (options_.dedup_races != nullptr) {
      // Before `state` can finish: while it is in flight, no peer can see
      // the frontier drained ahead of the restart.
      RestartIfRacesGrew();
    }
    for (StatePtr& fork : step.forks) {
      AddState(std::move(fork));
    }
    if (!step.state_done && step.sync_point && AlreadyVisited(*state)) {
      // The state just completed a synchronization operation and landed on a
      // fingerprint some other interleaving already produced: everything it
      // could still do is covered by that state's exploration. Prune it.
      searcher_->Remove(state);
      Unregister(state);
      if (coop) {
        options_.frontier->FinishOne();
      }
      continue;
    }
    if (step.state_done) {
      searcher_->Remove(state);
      Unregister(state);
      if (coop) {
        options_.frontier->FinishOne();
      }
      if (step.bug.IsBug()) {
        if (matcher && matcher(*state, step.bug)) {
          result.status = Result::Status::kGoalFound;
          result.goal_state = state;
          result.bug = step.bug;
          break;
        }
        if (unexpected_cb_) {
          unexpected_cb_(*state, step.bug);
        }
      }
    } else {
      searcher_->Update(state);
    }
  }
  if (coop && result.status == Result::Status::kLimitReached) {
    // States may still sit in this worker's searcher; peers must not spin
    // for them until the time cap.
    options_.frontier->NoteLimit();
  }
  flush_shared();
  result.instructions = instructions;
  result.states_created = states_created_;
  result.states_deduped = states_deduped_;
  result.seconds = elapsed();
  return result;
}

SingleRunResult RunToCompletion(Interpreter& interpreter, ExecutionState& state,
                                uint64_t max_instructions) {
  SingleRunResult result;
  for (uint64_t i = 0; i < max_instructions; ++i) {
    StepResult step = interpreter.Step(state);
    ++result.instructions;
    if (step.state_done) {
      result.completed = true;
      result.bug = step.bug;
      return result;
    }
  }
  return result;
}

}  // namespace esd::vm
