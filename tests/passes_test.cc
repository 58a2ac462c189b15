// Directed unit tests for the pre-synthesis IR pass pipeline
// (src/ir/passes): per-pass rewrite behavior, the protection that keeps
// goal sites intact, and the pass manager's fixed sequence and
// coordinate-stability check.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/cfg.h"
#include "src/analysis/range_analysis.h"
#include "src/core/event_counters.h"
#include "src/ir/parser.h"
#include "src/ir/passes/passes.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/workloads/workloads.h"

namespace esd::ir::passes {
namespace {

Module Parse(const std::string& body) {
  Module m;
  ParseResult r =
      ParseModule(std::string(workloads::ExternsPreamble()) + body, &m);
  EXPECT_TRUE(r.ok) << r.error;
  return m;
}

TEST(RangeAnalysisTest, ConstChainsArePoints) {
  Module m = Parse(R"(
global $g = zero 4
func @f() : i32 {
entry:
  %a = add i32 2, i32 3
  %b = mul %a, i32 4
  %v = load i32, $g
  %c = add %v, i32 1
  ret %b
}
)");
  uint32_t f = *m.FindFunction("f");
  analysis::Cfg cfg(m, f);
  analysis::RangeAnalysis ranges(m.Func(f), cfg);
  // %a = 5 at its use in %b (instruction 1, operand register 0).
  EXPECT_EQ(ranges.RegRange(0, 0, 1), (analysis::Interval{5, 5}));
  // %b = 20 at the ret.
  EXPECT_EQ(ranges.RegRange(1, 0, 4), (analysis::Interval{20, 20}));
  // %v comes from memory, and %c = %v + 1 can wrap: both unconstrained.
  EXPECT_TRUE(analysis::IsFullInterval(ranges.RegRange(2, 0, 3), 64));
  EXPECT_TRUE(analysis::IsFullInterval(ranges.RegRange(3, 0, 4), 64));
}

TEST(BranchElideTest, PinnedConditionBecomesBr) {
  Module m = Parse(R"(
global $g = zero 4
func @f() : i32 {
entry:
  %c = icmp eq i32 1, i32 1
  condbr %c, taken, dead
taken:
  ret i32 1
dead:
  %v = load i32, $g
  %u = icmp ult %v, i32 7
  condbr %u, taken, dead2
dead2:
  ret i32 0
}
)");
  uint32_t f = *m.FindFunction("f");
  PassStats stats;
  uint64_t n = BranchElidePass(&m, ProtectedSites{}, &stats);
  EXPECT_EQ(n, 1u);
  const Instruction& term = m.Func(f).blocks[0].insts[1];
  EXPECT_EQ(term.op, Opcode::kBr);
  EXPECT_EQ(term.succ_true, 1u);  // 'taken'.
  EXPECT_TRUE(term.operands.empty());
  // The load-dependent branch in 'dead' is NOT elidable: its condition is
  // unknown (the pass is range-driven, not reachability-driven).
  EXPECT_EQ(m.Func(f).blocks[2].insts.back().op, Opcode::kCondBr);
  EXPECT_TRUE(Verify(m).empty());
}

TEST(BranchElideTest, ProtectedBranchIsKept) {
  // The same pinned condbr as above, but it is a goal site: an execution
  // file may name it, so it must stay a condbr.
  Module m = Parse(R"(
func @f() : i32 {
entry:
  %c = icmp eq i32 1, i32 1
  condbr %c, taken, other
taken:
  ret i32 1
other:
  ret i32 0
}
)");
  uint32_t f = *m.FindFunction("f");
  ProtectedSites prot;
  prot.sites.insert(InstRef{f, 0, 1});
  PassStats stats;
  EXPECT_EQ(BranchElidePass(&m, prot, &stats), 0u);
  EXPECT_EQ(stats.elided_branches, 0u);
  const Instruction& term = m.Func(f).blocks[0].insts[1];
  EXPECT_EQ(term.op, Opcode::kCondBr);
  EXPECT_EQ(term.operands.size(), 1u);
}

TEST(DceTest, NeutralizesDeadArithmeticInPlace) {
  Module m = Parse(R"(
global $in = zero 4
func @f() : i32 {
entry:
  %v = load i32, $in
  %dead = mul %v, i32 99
  %live = add %v, i32 1
  ret %live
}
)");
  uint32_t f = *m.FindFunction("f");
  ProtectedSites prot;
  PassStats stats;
  uint64_t n = DcePass(&m, prot, &stats);
  EXPECT_EQ(stats.neutralized_insts, 1u);
  EXPECT_EQ(n, 1u);
  const Instruction& dead = m.Func(f).blocks[0].insts[1];
  // Slot still executes, but no longer references %v.
  ASSERT_EQ(dead.operands[0].kind, Value::Kind::kConst);
  EXPECT_EQ(dead.operands[0].imm, 0u);
  // The live add keeps its register operand.
  EXPECT_EQ(m.Func(f).blocks[0].insts[2].operands[0].kind, Value::Kind::kReg);
  EXPECT_TRUE(Verify(m).empty());
  // Idempotent: a second run finds nothing new (convergence for the
  // pass-manager fixpoint).
  EXPECT_EQ(DcePass(&m, prot, &stats), 0u);
}

TEST(PassManagerTest, PipelineConvergesAndPreservesCoordinates) {
  Module m = Parse(R"(
func @f(%x: i32) : i32 {
entry:
  %five = add i32 2, i32 3
  %c = icmp eq %five, i32 5
  condbr %c, yes, no
yes:
  %r = add %x, %five
  ret %r
no:
  %d = add %x, i32 7
  ret %d
}
func @main() : i32 {
entry:
  %v = call @f(i32 1)
  ret i32 0
}
)");
  uint32_t f = *m.FindFunction("f");
  std::vector<size_t> sizes;
  for (const BasicBlock& bb : m.Func(f).blocks) {
    sizes.push_back(bb.insts.size());
  }
  EventCounters counters;
  PassStats stats;
  {
    ScopedEventCounters scope(&counters);
    ASSERT_TRUE(PassManager().Run(&m, ProtectedSites{}, &stats));
  }
  EXPECT_EQ(stats.elided_branches, 1u);  // The pinned condbr.
  // Elision left %c without a user, so it is neutralized.
  const Instruction& icmp = m.Func(f).blocks[0].insts[1];
  EXPECT_EQ(stats.neutralized_insts, 1u);
  ASSERT_EQ(icmp.operands[0].kind, Value::Kind::kConst);
  EXPECT_EQ(icmp.operands[0].imm, 0u);
  // One elision run, then neutralization runs until one rewrites nothing:
  // here one that neutralizes %c and one that finds nothing left.
  EXPECT_EQ(counters.ir_passes_run, 1u + 2u);
  // Every block kept every instruction slot.
  for (uint32_t b = 0; b < sizes.size(); ++b) {
    EXPECT_EQ(m.Func(f).blocks[b].insts.size(), sizes[b]) << "block " << b;
  }
  EXPECT_EQ(m.Func(f).blocks[0].insts.back().op, Opcode::kBr);
  EXPECT_EQ(m.Func(f).blocks[1].insts[0].operands[1].kind, Value::Kind::kReg);
  EXPECT_TRUE(Verify(m).empty());
  // The optimized module still prints and re-parses.
  Module reparsed;
  ParseResult r = ParseModule(PrintModule(m), &reparsed);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(PassManagerTest, NeutralizesDeadChainInOneRun) {
  // %c has no user; neutralizing it leaves %b without one, and then %a.
  Module m = Parse(R"(
global $in = zero 4
func @f() : i32 {
entry:
  %v = load i32, $in
  %a = add %v, i32 1
  %b = mul %a, i32 3
  %c = xor %b, i32 5
  ret i32 0
}
)");
  uint32_t f = *m.FindFunction("f");
  PassStats stats;
  ASSERT_TRUE(PassManager().Run(&m, ProtectedSites{}, &stats));
  EXPECT_EQ(stats.neutralized_insts, 3u);
  for (uint32_t i = 1; i <= 3; ++i) {
    const Instruction& inst = m.Func(f).blocks[0].insts[i];
    EXPECT_EQ(inst.operands[0].kind, Value::Kind::kConst) << "inst " << i;
    EXPECT_EQ(inst.operands[0].imm, 0u) << "inst " << i;
  }
  EXPECT_TRUE(Verify(m).empty());
}

TEST(PassManagerTest, ProtectedDeadSiteKeepsItsOperands) {
  Module m = Parse(R"(
func @goal_fn() : void {
entry:
  %a = add i32 1, i32 1
  ret
}
func @main() : i32 {
entry:
  ret i32 0
}
)");
  uint32_t goal_fn = *m.FindFunction("goal_fn");
  ProtectedSites prot;
  prot.sites.insert(InstRef{goal_fn, 0, 0});
  PassStats stats;
  ASSERT_TRUE(PassManager().Run(&m, prot, &stats));
  // %a is dead, but the goal site still names its operands.
  EXPECT_EQ(stats.neutralized_insts, 0u);
  const Instruction& add = m.Func(goal_fn).blocks[0].insts[0];
  ASSERT_EQ(add.operands.size(), 2u);
  EXPECT_EQ(add.operands[0].imm, 1u);
  EXPECT_EQ(add.operands[1].imm, 1u);
}

}  // namespace
}  // namespace esd::ir::passes
