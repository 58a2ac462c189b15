// ESD VM: the exploration engine.
//
// Drives the searcher/interpreter loop of §3.3: pick a state, execute one
// instruction, absorb forks, stop when a state manifests the goal bug (as
// judged by the caller's matcher) or the budget is exhausted. Implements
// EngineServices so schedule strategies can fork snapshot states and
// re-prioritize them (the K_S machinery of §4.1).
#ifndef ESD_SRC_VM_ENGINE_H_
#define ESD_SRC_VM_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "src/core/arena.h"
#include "src/vm/fingerprint.h"
#include "src/vm/interpreter.h"
#include "src/vm/race_detector.h"
#include "src/vm/searcher.h"
#include "src/vm/work_queue.h"

namespace esd::vm {

class Engine : public EngineServices {
 public:
  struct Options {
    uint64_t max_instructions = 100'000'000;
    size_t max_states = 1'000'000;
    double time_cap_seconds = 3600.0;
    // ---- Portfolio controls (all optional) ----
    // Checked every step; when another worker sets it, Run returns
    // kCancelled. Null for standalone (single-engine) runs.
    const std::atomic<bool>* cancel = nullptr;
    // Portfolio-wide budgets shared by all workers. Instruction counts are
    // flushed into `shared_instructions` in batches of up to 256 (shrunk
    // for small budgets, so the hot loop stays contention-free yet the
    // check still fires); when the sum reaches `shared_max_instructions`
    // (0 = unlimited) the run stops with kLimitReached.
    // `shared_states`/`shared_max_states` bound the total number of *live*
    // states across the portfolio the same way: the counter is decremented
    // when a state finishes, and the run stops once it exceeds the budget,
    // mirroring the local live_.size() check. With one worker the shared
    // checks therefore stop exactly where the local ones do.
    std::atomic<uint64_t>* shared_instructions = nullptr;
    uint64_t shared_max_instructions = 0;
    std::atomic<uint64_t>* shared_states = nullptr;
    uint64_t shared_max_states = 0;
    // ---- State deduplication (redundant-interleaving pruning) ----
    // When set, every newly registered state and every state passing a
    // synchronization point is fingerprinted; states whose fingerprint was
    // already seen are dropped and counted in Result::states_deduped. The
    // table may be private to this engine or shared by a portfolio (it is
    // internally sharded + locked). Null disables deduplication.
    FingerprintTable* visited = nullptr;
    // When set, the detector's flagged-site count is mixed into every key
    // the visited table records. Those sites decide where the race strategy
    // forks but are not in the fingerprint, so a state recorded under fewer
    // flagged sites must not prune one that arrives under more. States that
    // ran past a site before it was flagged never forked there, so when the
    // count grows the engine also restarts from the initial state; the
    // table admits one restart per count, whichever worker saw it first. A
    // parallel portfolio sets it to the detector its workers share
    // (portfolio.cc).
    const RaceDetector* dedup_races = nullptr;
    // ---- Work-stealing frontier (src/vm/work_queue.h) ----
    // When set and `workers` > 1, this engine is worker `worker` of
    // `workers` peers draining one logical frontier: a newly registered
    // fork whose fingerprint mod `workers` names another worker is handed
    // off through the frontier instead of kept; an empty local searcher
    // triggers draining/stealing instead of exhaustion; and Run only
    // returns kExhausted once the frontier's global in-flight count is
    // zero. Null, or one worker, keeps the single-frontier behavior.
    SharedFrontier* frontier = nullptr;
    size_t worker = 0;
    size_t workers = 1;
  };

  // Decides whether a bug terminating some state is the goal.
  using BugMatcher = std::function<bool(const ExecutionState&, const BugInfo&)>;
  // Invoked for bugs that do not match the goal ("ESD has discovered a
  // different bug. It records the information ... and resumes the search").
  using BugCallback = std::function<void(const ExecutionState&, const BugInfo&)>;

  Engine(Interpreter* interpreter, Searcher* searcher, Options options);

  void Start(StatePtr initial);

  struct Result {
    // kCancelled: another portfolio worker reached the goal first
    // (Options::cancel).
    enum class Status { kGoalFound, kExhausted, kLimitReached, kCancelled };
    Status status = Status::kExhausted;
    StatePtr goal_state;
    BugInfo bug;
    uint64_t instructions = 0;
    uint64_t states_created = 0;
    // States dropped (at fork registration or at a sync point) because an
    // identical state had already been explored. Zero when dedup is off.
    uint64_t states_deduped = 0;
    double seconds = 0.0;
  };

  Result Run(const BugMatcher& matcher);

  void set_unexpected_bug_callback(BugCallback cb) { unexpected_cb_ = std::move(cb); }

  // EngineServices:
  StatePtr ForkState(const ExecutionState& state) override;
  bool AddState(StatePtr state) override;
  void Reprioritize(const StatePtr& state) override;
  StatePtr SharedRef(const ExecutionState& state) override;

  Interpreter& interpreter() { return *interpreter_; }

 private:
  void Register(const StatePtr& state);
  void Unregister(const StatePtr& state);
  // The key the visited table records for `state`: its fingerprint, mixed
  // with the flagged-site count of Options::dedup_races when set.
  uint64_t DedupKey(const ExecutionState& state) const;
  // True if `state`'s dedup key was already visited (dedup enabled only);
  // records the key otherwise.
  bool AlreadyVisited(const ExecutionState& state);
  // Options::dedup_races only: adds a fork of the initial state if the
  // flagged-site count grew since the last call.
  void RestartIfRacesGrew();
  // True when this engine shares a frontier with peers (jobs > 1).
  bool Cooperative() const {
    return options_.frontier != nullptr && options_.workers > 1;
  }
  // Registers a state that arrived from the shared frontier (handed off or
  // stolen): its fingerprint was recorded by the originating worker, so it
  // is admitted without a dedup probe and re-scored by the local searcher.
  void AdoptIncoming(std::vector<StatePtr>* incoming);

  Interpreter* interpreter_;
  Searcher* searcher_;
  Options options_;
  // Pooled: one node per live state, inserted at its fork and erased at
  // its disposal.
  std::unordered_map<const ExecutionState*, StatePtr, std::hash<const ExecutionState*>,
                     std::equal_to<const ExecutionState*>,
                     core::ArenaAllocator<std::pair<const ExecutionState* const, StatePtr>>>
      live_;
  BugCallback unexpected_cb_;
  uint64_t states_created_ = 0;
  uint64_t states_deduped_ = 0;
  // Options::dedup_races only: an unexecuted copy of the initial state, and
  // the flagged-site count when this engine last restarted from it.
  StatePtr root_;
  size_t races_seen_ = 0;
};

// Runs a single state to completion without a searcher (concrete stress runs
// and playback). Branch forks are not expected (concrete conditions never
// fork); schedule forks require an engine and are likewise absent here.
struct SingleRunResult {
  bool completed = false;  // Ran to state_done within the budget.
  BugInfo bug;
  uint64_t instructions = 0;
};
SingleRunResult RunToCompletion(Interpreter& interpreter, ExecutionState& state,
                                uint64_t max_instructions);

}  // namespace esd::vm

#endif  // ESD_SRC_VM_ENGINE_H_
