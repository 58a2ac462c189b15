// ESD VM: search strategies over execution states.
//
// The engine holds live states in a Searcher; every step it asks the
// searcher which state to advance. ESD's proximity-guided searcher lives in
// src/core/; this header provides the interface plus the baseline strategies
// the paper compares against (§7.2): DFS ("equivalent to an exhaustive
// search") and RandomPath ("a quasi-random strategy meant to maximize global
// path coverage"), plus BFS for the proximity ablation and tests.
#ifndef ESD_SRC_VM_SEARCHER_H_
#define ESD_SRC_VM_SEARCHER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <random>
#include <vector>

#include "src/vm/state.h"

namespace esd::vm {

class Searcher {
 public:
  virtual ~Searcher() = default;
  virtual void Add(StatePtr state) = 0;
  virtual void Remove(const StatePtr& state) = 0;
  // Returns the state to step next (without removing it). Null when empty.
  virtual StatePtr Select() = 0;
  virtual bool Empty() const = 0;
  // Notifies that `state`'s position/priority may have changed.
  virtual void Update(const StatePtr& /*state*/) {}
  virtual size_t Size() const = 0;
};

// LIFO: dives down one path until it terminates. With loops this can
// wander forever down a single subtree, which is exactly the pathology the
// paper's evaluation shows.
class DfsSearcher : public Searcher {
 public:
  void Add(StatePtr state) override { stack_.push_back(std::move(state)); }
  void Remove(const StatePtr& state) override;
  StatePtr Select() override { return stack_.empty() ? nullptr : stack_.back(); }
  bool Empty() const override { return stack_.empty(); }
  size_t Size() const override { return stack_.size(); }

 private:
  std::vector<StatePtr> stack_;
};

class BfsSearcher : public Searcher {
 public:
  void Add(StatePtr state) override { queue_.push_back(std::move(state)); }
  void Remove(const StatePtr& state) override;
  StatePtr Select() override { return queue_.empty() ? nullptr : queue_.front(); }
  bool Empty() const override { return queue_.empty(); }
  size_t Size() const override { return queue_.size(); }

 private:
  std::deque<StatePtr> queue_;
};

// KLEE-style RandomPath approximation: leaves are picked with probability
// proportional to 2^-depth, which biases toward shallow, less-explored
// regions of the execution tree (deep chains of forks do not dominate).
class RandomPathSearcher : public Searcher {
 public:
  explicit RandomPathSearcher(uint64_t seed) : rng_(seed) {}

  void Add(StatePtr state) override { states_.push_back(std::move(state)); }
  void Remove(const StatePtr& state) override;
  StatePtr Select() override;
  bool Empty() const override { return states_.empty(); }
  size_t Size() const override { return states_.size(); }

 private:
  std::vector<StatePtr> states_;
  std::vector<double> weights_;  // Select() scratch, reused across calls.
  std::mt19937_64 rng_;
};

}  // namespace esd::vm

#endif  // ESD_SRC_VM_SEARCHER_H_
