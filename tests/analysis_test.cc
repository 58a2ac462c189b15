// Unit tests for the static analyses: CFG, distance heuristic (Algorithm 1),
// critical edges, reaching definitions, and the lock-order checker.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/analysis/cfg.h"
#include "src/analysis/critical_edges.h"
#include "src/analysis/distance.h"
#include "src/analysis/lock_order.h"
#include "src/analysis/reaching_defs.h"
#include "src/ir/parser.h"
#include "src/workloads/workloads.h"

namespace esd::analysis {
namespace {

ir::Module Parse(const std::string& body) {
  ir::Module m;
  ir::ParseResult r =
      ir::ParseModule(std::string(workloads::ExternsPreamble()) + body, &m);
  EXPECT_TRUE(r.ok) << r.error;
  return m;
}

constexpr char kDiamond[] = R"(
func @f(%x: i32) : i32 {
entry:
  %c = icmp eq %x, i32 0
  condbr %c, left, right
left:
  %a = add %x, i32 1
  br join
right:
  %b = add %x, i32 2
  %b2 = add %b, i32 3
  %b3 = add %b2, i32 4
  br join
join:
  ret i32 7
}
)";

TEST(CfgTest, DiamondShape) {
  ir::Module m = Parse(kDiamond);
  uint32_t f = *m.FindFunction("f");
  Cfg cfg(m, f);
  ASSERT_EQ(cfg.NumBlocks(), 4u);
  EXPECT_EQ(cfg.Block(0).succs.size(), 2u);  // entry -> left, right
  EXPECT_EQ(cfg.Block(3).preds.size(), 2u);  // join <- left, right
  EXPECT_TRUE(cfg.Block(3).succs.empty());
}

TEST(DistanceTest, PrefersShorterBranch) {
  ir::Module m = Parse(kDiamond);
  uint32_t f = *m.FindFunction("f");
  DistanceCalculator dc(&m);
  ir::InstRef goal{f, 3, 0};  // join:ret
  // From entry: the left arm (2 insts) is shorter than the right (4 insts).
  uint64_t from_entry = dc.Distance(ir::InstRef{f, 0, 0}, goal);
  uint64_t via_left = dc.Distance(ir::InstRef{f, 1, 0}, goal);
  uint64_t via_right = dc.Distance(ir::InstRef{f, 2, 0}, goal);
  EXPECT_LT(via_left, via_right);
  EXPECT_LE(from_entry, 2 + via_left);
  EXPECT_LT(from_entry, kInfDistance);
}

TEST(DistanceTest, Dist2RetAndFunctionCost) {
  ir::Module m = Parse(kDiamond);
  uint32_t f = *m.FindFunction("f");
  DistanceCalculator dc(&m);
  EXPECT_LT(dc.FunctionCost(f), kInfDistance);
  // dist2ret shrinks as execution advances through a block.
  uint64_t at0 = dc.Dist2Ret(ir::InstRef{f, 2, 0});
  uint64_t at2 = dc.Dist2Ret(ir::InstRef{f, 2, 2});
  EXPECT_GT(at0, at2);
}

TEST(DistanceTest, CallCostsIncludeCalleeBody) {
  ir::Module m = Parse(R"(
func @heavy() : void {
entry:
  %a = add i32 1, i32 2
  %b = add %a, i32 3
  %c = add %b, i32 4
  %d = add %c, i32 5
  %e = add %d, i32 6
  ret
}
func @g() : i32 {
entry:
  call @heavy()
  ret i32 0
}
)");
  uint32_t g = *m.FindFunction("g");
  DistanceCalculator dc(&m);
  ir::InstRef goal{g, 0, 1};  // The ret after the call.
  // From before the call the distance must include heavy()'s body.
  uint64_t d = dc.Distance(ir::InstRef{g, 0, 0}, goal);
  EXPECT_GE(d, 6u);
}

TEST(DistanceTest, RecursionGetsFixedCost) {
  ir::Module m = Parse(R"(
func @rec(%n: i32) : i32 {
entry:
  %z = icmp eq %n, i32 0
  condbr %z, base, down
base:
  ret i32 1
down:
  %m = sub %n, i32 1
  %r = call @rec(%m)
  ret %r
}
)");
  uint32_t f = *m.FindFunction("rec");
  DistanceCalculator dc(&m);
  uint64_t cost = dc.FunctionCost(f);
  EXPECT_LT(cost, kInfDistance);
  // The recursive call contributes roughly kRecursionCost, not infinity.
  EXPECT_LE(cost, 2 * kRecursionCost);
}

TEST(DistanceTest, GoalInCalleeReachableViaCallEntry) {
  ir::Module m = Parse(R"(
func @inner() : void {
entry:
  %x = add i32 1, i32 1
  ret
}
func @outer() : i32 {
entry:
  %y = add i32 2, i32 2
  call @inner()
  ret i32 0
}
)");
  uint32_t inner = *m.FindFunction("inner");
  uint32_t outer = *m.FindFunction("outer");
  DistanceCalculator dc(&m);
  ir::InstRef goal{inner, 0, 0};
  // From outer's entry the goal is reachable by entering the call.
  EXPECT_LT(dc.Distance(ir::InstRef{outer, 0, 0}, goal), kInfDistance);
  // From after the call it is not (inner is never called again).
  EXPECT_EQ(dc.Distance(ir::InstRef{outer, 0, 2}, goal), kInfDistance);
}

TEST(DistanceTest, ThreadCreateCountsAsEntry) {
  ir::Module m = Parse(R"(
func @worker(%a: ptr) : void {
entry:
  %x = add i32 1, i32 1
  ret
}
func @main() : i32 {
entry:
  %t = call @thread_create(@worker, null)
  call @thread_join(%t)
  ret i32 0
}
)");
  uint32_t worker = *m.FindFunction("worker");
  uint32_t main_fn = *m.FindFunction("main");
  DistanceCalculator dc(&m);
  ir::InstRef goal{worker, 0, 0};
  EXPECT_LT(dc.Distance(ir::InstRef{main_fn, 0, 0}, goal), kInfDistance);
}

TEST(DistanceTest, ThreadDistanceLiftsOverCallStack) {
  ir::Module m = Parse(kDiamond);
  uint32_t f = *m.FindFunction("f");
  ir::Module m2 = Parse(R"(
func @callee() : void {
entry:
  %x = add i32 0, i32 0
  ret
}
func @caller() : i32 {
entry:
  call @callee()
  %y = add i32 1, i32 1
  ret %y
}
)");
  uint32_t callee = *m2.FindFunction("callee");
  uint32_t caller = *m2.FindFunction("caller");
  DistanceCalculator dc(&m2);
  // Goal: the add after the call in caller. Current pc: inside callee.
  ir::InstRef goal{caller, 0, 1};
  // Caller frame pc already advanced past the call (return address).
  std::vector<ir::InstRef> stack = {ir::InstRef{caller, 0, 1},
                                    ir::InstRef{callee, 0, 0}};
  uint64_t d = dc.ThreadDistance(stack, goal);
  EXPECT_LT(d, kInfDistance);
  EXPECT_LE(d, 5u);  // ret out of callee + the goal instruction itself.
  (void)f;
}

TEST(DistanceTest, ThreadCanReachGoalUsesActualStack) {
  ir::Module m = Parse(R"(
func @leaf() : void {
entry:
  %x = add i32 0, i32 0
  ret
}
func @a() : void {
entry:
  call @leaf()
  %g = add i32 1, i32 1
  ret
}
func @b() : void {
entry:
  call @leaf()
  ret
}
)");
  uint32_t leaf = *m.FindFunction("leaf");
  uint32_t fa = *m.FindFunction("a");
  uint32_t fb = *m.FindFunction("b");
  DistanceCalculator dc(&m);
  ir::InstRef goal{fa, 0, 1};  // The add in a(), after the call.
  // leaf called from a(): returning reaches the goal.
  EXPECT_TRUE(dc.ThreadCanReachGoal({ir::InstRef{fa, 0, 1}, ir::InstRef{leaf, 0, 0}},
                                    0, goal));
  // leaf called from b(): returning cannot reach a()'s body.
  EXPECT_FALSE(dc.ThreadCanReachGoal({ir::InstRef{fb, 0, 1}, ir::InstRef{leaf, 0, 0}},
                                     0, goal));
}

TEST(CriticalEdgeTest, FindsGuardingBranch) {
  ir::Module m = Parse(R"(
global $flag = zero 4
func @f() : i32 {
entry:
  %v = load i32, $flag
  %c = icmp eq %v, i32 7
  condbr %c, bug, safe
bug:
  %x = add i32 1, i32 1
  ret %x
safe:
  ret i32 0
}
)");
  uint32_t f = *m.FindFunction("f");
  DistanceCalculator dc(&m);
  ir::InstRef goal{f, 1, 0};  // Inside 'bug'.
  auto edges = FindCriticalEdges(m, dc, goal);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].branch.block, 0u);
  EXPECT_TRUE(edges[0].required_value);  // True edge leads to 'bug'.
}

TEST(CriticalEdgeTest, StopsAtMultiplePredecessors) {
  ir::Module m = Parse(kDiamond);
  uint32_t f = *m.FindFunction("f");
  DistanceCalculator dc(&m);
  ir::InstRef goal{f, 3, 0};  // 'join' has two predecessors.
  auto edges = FindCriticalEdges(m, dc, goal);
  EXPECT_TRUE(edges.empty());
}

TEST(ReachingDefsTest, FindsConstStoreIntermediateGoal) {
  ir::Module m = Parse(R"(
global $mode = zero 4
func @setup_y() : void {
entry:
  store i32 1, $mode
  ret
}
func @setup_z() : void {
entry:
  store i32 2, $mode
  ret
}
func @f() : i32 {
entry:
  %v = load i32, $mode
  %c = icmp eq %v, i32 1
  condbr %c, bug, safe
bug:
  %x = add i32 9, i32 9
  ret %x
safe:
  ret i32 0
}
)");
  uint32_t f = *m.FindFunction("f");
  uint32_t setup_y = *m.FindFunction("setup_y");
  DistanceCalculator dc(&m);
  ir::InstRef goal{f, 1, 0};
  auto sets = DeriveIntermediateGoals(m, dc, goal);
  ASSERT_EQ(sets.size(), 1u);
  // Only the store of 1 (setup_y) makes mode==1 true.
  ASSERT_EQ(sets[0].stores.size(), 1u);
  EXPECT_EQ(sets[0].stores[0].func, setup_y);
}

TEST(ReachingDefsTest, ConjunctionYieldsGoalsPerConjunct) {
  // The Listing 1 shape: mode==MOD_Y && idx==1 where only mode has constant
  // stores.
  workloads::Workload w = workloads::MakeWorkload("listing1");
  uint32_t cs = *w.module->FindFunction("critical_section");
  const ir::Function& fn = w.module->Func(cs);
  auto swap_block = fn.FindBlock("swap");
  ASSERT_TRUE(swap_block.has_value());
  DistanceCalculator dc(w.module.get());
  ir::InstRef goal{cs, *swap_block, 1};
  auto sets = DeriveIntermediateGoals(*w.module, dc, goal);
  ASSERT_GE(sets.size(), 1u);
  // The mode conjunct resolves to the single mod_y store.
  uint32_t main_fn = *w.module->FindFunction("main");
  bool found_mod_y_store = false;
  for (const auto& set : sets) {
    for (const ir::InstRef& store : set.stores) {
      if (store.func == main_fn) {
        found_mod_y_store = true;
      }
    }
  }
  EXPECT_TRUE(found_mod_y_store);
}

TEST(LockOrderTest, DetectsInversion) {
  ir::Module m = Parse(R"(
global $a = zero 8
global $b = zero 8
func @fwd(%x: ptr) : void {
entry:
  call @mutex_lock($a)
  call @mutex_lock($b)
  call @mutex_unlock($b)
  call @mutex_unlock($a)
  ret
}
func @rev(%x: ptr) : void {
entry:
  call @mutex_lock($b)
  call @mutex_lock($a)
  call @mutex_unlock($a)
  call @mutex_unlock($b)
  ret
}
func @main() : i32 {
entry:
  %t1 = call @thread_create(@fwd, null)
  %t2 = call @thread_create(@rev, null)
  call @thread_join(%t1)
  call @thread_join(%t2)
  ret i32 0
}
)");
  auto warnings = FindLockOrderWarnings(m);
  ASSERT_EQ(warnings.size(), 1u);
}

TEST(LockOrderTest, ConsistentOrderIsQuiet) {
  ir::Module m = Parse(R"(
global $a = zero 8
global $b = zero 8
func @one(%x: ptr) : void {
entry:
  call @mutex_lock($a)
  call @mutex_lock($b)
  call @mutex_unlock($b)
  call @mutex_unlock($a)
  ret
}
func @two(%x: ptr) : void {
entry:
  call @mutex_lock($a)
  call @mutex_lock($b)
  call @mutex_unlock($b)
  call @mutex_unlock($a)
  ret
}
func @main() : i32 {
entry:
  %t1 = call @thread_create(@one, null)
  %t2 = call @thread_create(@two, null)
  call @thread_join(%t1)
  call @thread_join(%t2)
  ret i32 0
}
)");
  EXPECT_TRUE(FindLockOrderWarnings(m).empty());
}

TEST(LockOrderTest, SeesThroughCalls) {
  ir::Module m = Parse(R"(
global $a = zero 8
global $b = zero 8
func @take_b() : void {
entry:
  call @mutex_lock($b)
  call @mutex_unlock($b)
  ret
}
func @outer(%x: ptr) : void {
entry:
  call @mutex_lock($a)
  call @take_b()
  call @mutex_unlock($a)
  ret
}
func @main() : i32 {
entry:
  %t = call @thread_create(@outer, null)
  call @thread_join(%t)
  ret i32 0
}
)");
  auto edges = CollectLockOrderEdges(m);
  bool found = false;
  for (const auto& e : edges) {
    if (e.first_mutex_global != e.second_mutex_global) {
      found = true;  // a -> b edge through the call.
    }
  }
  EXPECT_TRUE(found);
}

TEST(LockOrderTest, FindsRealWorkloadInversions) {
  // The sqlite and hawknl miniatures are genuine AB-BA bugs; the checker
  // must flag both.
  for (const char* name : {"sqlite", "hawknl"}) {
    workloads::Workload w = workloads::MakeWorkload(name);
    EXPECT_GE(FindLockOrderWarnings(*w.module).size(), 1u) << name;
  }
}

// Regression test for the portfolio data race: queries for goals that were
// *not* passed to Prewarm fill the lazy caches, and under a portfolio those
// queries arrive from several workers at once. The caches are now guarded
// by an internal mutex, so concurrent un-prewarmed queries must be safe.
// Run under ThreadSanitizer (the CI tsan job does) to exercise the guard.
TEST(DistanceTest, ConcurrentLazyFillIsThreadSafe) {
  ir::Module m = Parse(R"(
func @leaf(%x: i32) : i32 {
entry:
  %r = add %x, i32 1
  ret %r
}
func @mid(%x: i32) : i32 {
entry:
  %a = call @leaf(%x)
  %b = call @leaf(%a)
  ret %b
}
func @main() : i32 {
entry:
  %v = call @mid(i32 3)
  %w = call @mid(%v)
  ret i32 0
}
)");
  uint32_t leaf = *m.FindFunction("leaf");
  uint32_t mid = *m.FindFunction("mid");
  uint32_t main_fn = *m.FindFunction("main");
  DistanceCalculator dc(&m);
  // Prewarm only one goal; the threads below all query a different one,
  // racing on the lazy per-goal tables.
  dc.Prewarm({ir::InstRef{leaf, 0, 0}});
  ir::InstRef cold_goal{mid, 0, 1};
  std::vector<std::thread> threads;
  std::atomic<uint64_t> sink{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&dc, &sink, cold_goal, main_fn, mid] {
      for (int i = 0; i < 200; ++i) {
        sink += dc.Distance(ir::InstRef{main_fn, 0, 0}, cold_goal);
        std::vector<ir::InstRef> stack{ir::InstRef{main_fn, 0, 1},
                                       ir::InstRef{mid, 0, 0}};
        sink += dc.ThreadDistance(stack, cold_goal);
        sink += dc.ThreadCanReachGoal(stack, 0, cold_goal) ? 1 : 0;
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // All threads computed the same (cached) answers; spot-check one.
  EXPECT_LT(dc.Distance(ir::InstRef{main_fn, 0, 0}, cold_goal),
            analysis::kInfDistance);
}

}  // namespace
}  // namespace esd::analysis
