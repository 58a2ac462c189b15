// Lightweight always-on event counters for the hot state-engine paths.
//
// Modeled on Rir's code-event-counter scheme: a plain struct of uint64_t
// fields, one thread-local installation pointer, and an inline increment
// that compiles to a single predictable branch plus an add when a sink is
// installed and to nothing observable when none is. Hot paths (COW page
// clones, fingerprint probes, frontier push/pop, solver calls) call
// CountEvent unconditionally; the portfolio installs one sink per worker
// thread and sums them into SynthesisResult::counters, so `esdsynth
// --counters` and the BENCH_*.json emitters can expose the numbers without
// any locked shared state on the fast path.
#ifndef ESD_SRC_CORE_EVENT_COUNTERS_H_
#define ESD_SRC_CORE_EVENT_COUNTERS_H_

#include <cstdint>
#include <functional>
#include <string_view>

namespace esd {

struct EventCounters {
  uint64_t state_forks = 0;         // ExecutionState::Fork calls.
  uint64_t pages_copied = 0;        // COW page materializations + clones.
  uint64_t bytes_hashed = 0;        // Byte hash contributions recomputed.
  uint64_t frontier_pushes = 0;     // Searcher/frontier insertions.
  uint64_t frontier_pops = 0;       // Searcher/frontier selections.
  uint64_t fingerprint_probes = 0;  // FingerprintTable InsertIfAbsent calls.
  uint64_t sync_fold_reuses = 0;    // Fingerprint reused the memoized sync fold.
  uint64_t sync_fold_recomputes = 0;  // Fingerprint rebuilt the sync fold.
  uint64_t solver_calls = 0;        // ConstraintSolver entry points.
  uint64_t expr_allocs = 0;         // Expr nodes constructed.
  uint64_t dataflow_iterations = 0;  // DataflowEngine block applications.
  uint64_t ir_passes_run = 0;        // IR optimization pass invocations.
  // ---- Cooperative work-stealing frontier (src/vm/work_queue.h) ----
  uint64_t steals = 0;            // States taken from another worker's deque.
  uint64_t steal_failures = 0;    // Steal attempts that found nothing.
  uint64_t states_handed_off = 0;  // Forks routed to another worker's deque.
  // Deepest state registered into a frontier (max, not a sum: Add and the
  // portfolio merge keep the maximum across workers).
  uint64_t frontier_max_depth = 0;

  void Add(const EventCounters& other);

  // Field iteration in a fixed order, for printing and serialization.
  static void ForEachField(
      const std::function<void(std::string_view name,
                               uint64_t EventCounters::*field)>& fn);
};

namespace internal {
// constinit on both declarations tells every includer that the variable
// needs no dynamic initialization. Without it gcc routes each access
// through a weak TLS-init wrapper check, which costs a branch per
// CountEvent and which UBSan reports as a store to a null pointer.
extern constinit thread_local EventCounters* g_event_counters;
}  // namespace internal

// Counter sink installed on the current thread, or nullptr.
inline EventCounters* InstalledEventCounters() {
  return internal::g_event_counters;
}

// Adds `n` to `field` of the installed sink; no-op when none is installed.
inline void CountEvent(uint64_t EventCounters::*field, uint64_t n = 1) {
  if (EventCounters* c = internal::g_event_counters; c != nullptr) {
    c->*field += n;
  }
}

// Raises `field` of the installed sink to at least `v` (for high-water-mark
// counters like frontier_max_depth); no-op when none is installed.
inline void CountEventMax(uint64_t EventCounters::*field, uint64_t v) {
  if (EventCounters* c = internal::g_event_counters; c != nullptr && v > c->*field) {
    c->*field = v;
  }
}

// Installs `sink` as the current thread's counter sink for the enclosing
// scope, restoring the previous sink on destruction (scopes nest).
class ScopedEventCounters {
 public:
  explicit ScopedEventCounters(EventCounters* sink)
      : previous_(internal::g_event_counters) {
    internal::g_event_counters = sink;
  }
  ~ScopedEventCounters() { internal::g_event_counters = previous_; }
  ScopedEventCounters(const ScopedEventCounters&) = delete;
  ScopedEventCounters& operator=(const ScopedEventCounters&) = delete;

 private:
  EventCounters* previous_;
};

}  // namespace esd

#endif  // ESD_SRC_CORE_EVENT_COUNTERS_H_
