#include "src/vm/searcher.h"

#include <algorithm>
#include <cmath>

namespace esd::vm {
namespace {

void EraseState(std::vector<StatePtr>* v, const StatePtr& state) {
  v->erase(std::remove(v->begin(), v->end(), state), v->end());
}

// Draws in [0, 1) from the top 53 bits of one engine output. Used instead
// of std::uniform_real_distribution, whose draw sequence is
// implementation-defined — searches must be bit-reproducible across
// standard libraries and platforms for the same seed.
double UnitReal(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

}  // namespace

void DfsSearcher::Remove(const StatePtr& state) { EraseState(&stack_, state); }

void BfsSearcher::Remove(const StatePtr& state) {
  queue_.erase(std::remove(queue_.begin(), queue_.end(), state), queue_.end());
}

void RandomPathSearcher::Remove(const StatePtr& state) { EraseState(&states_, state); }

StatePtr RandomPathSearcher::Select() {
  if (states_.empty()) {
    return nullptr;
  }
  // Weight ~ 2^-depth, clamped so very deep states keep nonzero mass.
  uint64_t min_depth = UINT64_MAX;
  for (const StatePtr& s : states_) {
    min_depth = std::min(min_depth, s->depth);
  }
  double total = 0.0;
  weights_.assign(states_.size(), 0.0);
  for (size_t i = 0; i < states_.size(); ++i) {
    double rel = static_cast<double>(states_[i]->depth - min_depth);
    weights_[i] = std::pow(2.0, -std::min(rel, 48.0));
    total += weights_[i];
  }
  double pick = UnitReal(rng_) * total;
  for (size_t i = 0; i < states_.size(); ++i) {
    pick -= weights_[i];
    if (pick <= 0.0) {
      return states_[i];
    }
  }
  return states_.back();
}

}  // namespace esd::vm
