#include "src/core/event_counters.h"

#include <algorithm>

namespace esd {

namespace internal {
constinit thread_local EventCounters* g_event_counters = nullptr;
}  // namespace internal

void EventCounters::Add(const EventCounters& other) {
  ForEachField([&](std::string_view, uint64_t EventCounters::*field) {
    // High-water marks merge by maximum; event counts merge by sum.
    if (field == &EventCounters::frontier_max_depth) {
      this->*field = std::max(this->*field, other.*field);
    } else {
      this->*field += other.*field;
    }
  });
}

void EventCounters::ForEachField(
    const std::function<void(std::string_view, uint64_t EventCounters::*)>& fn) {
  fn("state_forks", &EventCounters::state_forks);
  fn("pages_copied", &EventCounters::pages_copied);
  fn("bytes_hashed", &EventCounters::bytes_hashed);
  fn("frontier_pushes", &EventCounters::frontier_pushes);
  fn("frontier_pops", &EventCounters::frontier_pops);
  fn("fingerprint_probes", &EventCounters::fingerprint_probes);
  fn("sync_fold_reuses", &EventCounters::sync_fold_reuses);
  fn("sync_fold_recomputes", &EventCounters::sync_fold_recomputes);
  fn("solver_calls", &EventCounters::solver_calls);
  fn("expr_allocs", &EventCounters::expr_allocs);
  fn("dataflow_iterations", &EventCounters::dataflow_iterations);
  fn("ir_passes_run", &EventCounters::ir_passes_run);
  fn("steals", &EventCounters::steals);
  fn("steal_failures", &EventCounters::steal_failures);
  fn("states_handed_off", &EventCounters::states_handed_off);
  fn("frontier_max_depth", &EventCounters::frontier_max_depth);
}

}  // namespace esd
