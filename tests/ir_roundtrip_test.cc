// Printer/parser round-trip property test over pass-optimized modules.
//
// The synthesizer's IR copy is optimized in place and occasionally printed
// (--print-passes, repro dumps), so the textual form of a post-pass module
// must survive print -> parse -> re-print byte-identically. The passes
// manufacture shapes the front-end never emits — Const operands where a
// register stood, operand-less kCondBr rewritten to kBr, tombstone blocks
// holding a single kUnreachable, stubbed function bodies — and constant
// folding materializes immediates with the top bit set, which is what
// historically broke the parser's integer scan.
//
// The digest tests pin ir::ModuleDigest to FNV-1a of the printed text: the
// persistent caches (.esdc files, results.index) are keyed by it.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/bpf/generator.h"
#include "src/fuzz/generator.h"
#include "src/ir/parser.h"
#include "src/ir/passes/passes.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/workloads/workloads.h"

namespace esd {
namespace {

// print -> parse -> re-print must be a fixpoint after one hop.
void CheckRoundTrip(const ir::Module& m, const std::string& tag) {
  std::string first = ir::PrintModule(m);
  ir::Module reparsed;
  ir::ParseResult r = ir::ParseModule(first, &reparsed);
  ASSERT_TRUE(r.ok) << tag << ": " << r.error;
  EXPECT_TRUE(ir::Verify(reparsed).empty()) << tag;
  std::string second = ir::PrintModule(reparsed);
  EXPECT_EQ(first, second) << tag;
}

void OptimizeAndCheck(ir::Module* m, const std::string& tag) {
  ir::passes::PassManager pm;
  ir::passes::PassStats stats;
  ASSERT_TRUE(pm.Run(m, ir::passes::ProtectedSites{}, &stats))
      << tag << ": " << pm.log();
  CheckRoundTrip(*m, tag);
}

TEST(IrRoundTripTest, GeneratedCorpusAfterPasses) {
  for (uint64_t seed = 1; seed <= 210; ++seed) {
    fuzz::GeneratorParams params;
    params.seed = seed;
    params.kind = static_cast<fuzz::BugKind>(seed % fuzz::kNumBugKinds);
    fuzz::GeneratedProgram program = fuzz::Generate(params);
    OptimizeAndCheck(program.module.get(),
                     "seed " + std::to_string(seed));
  }
}

TEST(IrRoundTripTest, Table1WorkloadsAfterPasses) {
  for (const char* name : {"listing1", "sqlite", "hawknl"}) {
    workloads::Workload w = workloads::MakeWorkload(name);
    OptimizeAndCheck(w.module.get(), name);
  }
}

TEST(IrRoundTripTest, SemicolonInsideStringLiteral) {
  // ';' starts a comment only outside a string literal, so a str global
  // holding one prints as it was written and parses back.
  ir::Module m;
  ir::ParseResult r = ir::ParseModule(
      "global $msg = str \"a;b\"  ; the comment starts here\n"
      "global $esc = str \"x\\\";y\" ; an escaped quote does not close it\n",
      &m);
  ASSERT_TRUE(r.ok) << r.error;
  const std::vector<uint8_t> msg = {'a', ';', 'b', 0};
  const std::vector<uint8_t> esc = {'x', '"', ';', 'y', 0};
  EXPECT_EQ(m.GlobalAt(0).init, msg);
  EXPECT_EQ(m.GlobalAt(1).init, esc);
  EXPECT_NE(ir::PrintModule(m).find("global $msg = str \"a;b\"\n"), std::string::npos);
  CheckRoundTrip(m, "semicolon in string");
}

TEST(IrRoundTripTest, HighBitImmediatesSurvive) {
  // 2^63 + (2^63 - 1) = 2^64 - 1 without wrapping, so the fold pins %a to
  // 0xFFFF...FF and the optimized text carries a u64 immediate >= 2^63 —
  // the exact shape that used to overflow the parser's signed integer scan.
  ir::Module m;
  ir::ParseResult r = ir::ParseModule(
      std::string(workloads::ExternsPreamble()) + R"(
func @main() : i32 {
entry:
  %a = add i64 9223372036854775808, i64 9223372036854775807
  %hi = and %a, i64 9223372036854775808
  %low = trunc i32, %hi
  ret %low
}
)",
      &m);
  ASSERT_TRUE(r.ok) << r.error;
  ir::passes::PassManager pm;
  ir::passes::PassStats stats;
  ASSERT_TRUE(pm.Run(&m, ir::passes::ProtectedSites{}, &stats));
  EXPECT_GE(stats.folded_operands, 1u);
  std::string text = ir::PrintModule(m);
  EXPECT_NE(text.find("18446744073709551615"), std::string::npos) << text;
  CheckRoundTrip(m, "high-bit immediates");
}

// A Fig. 3/4 BPF program as the benchmark builds it: two workers, every
// branch input-dependent.
bpf::BpfProgram BpfModule(uint32_t branches, uint64_t seed) {
  bpf::BpfParams params;
  params.num_branches = branches;
  params.input_dependent = branches;
  params.num_inputs = std::max<uint32_t>(4, branches / 16);
  params.seed = seed;
  return bpf::Generate(params);
}

TEST(IrRoundTripTest, Bpf8192BranchesResolveEveryTarget) {
  bpf::BpfProgram program = BpfModule(8192, 7);
  const std::string first = ir::PrintModule(*program.module);
  ir::Module reparsed;
  ir::ParseResult r = ir::ParseModule(first, &reparsed);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(first, ir::PrintModule(reparsed));
  // Every branch names a block that exists; Verify also rejects the empty
  // block a label typo would leave behind.
  ASSERT_TRUE(ir::Verify(reparsed).empty());
  size_t condbrs = 0;
  for (uint32_t f = 0; f < reparsed.NumFunctions(); ++f) {
    const ir::Function& fn = reparsed.Func(f);
    for (const ir::BasicBlock& bb : fn.blocks) {
      const ir::Instruction& term = bb.insts.back();
      if (term.op == ir::Opcode::kBr || term.op == ir::Opcode::kCondBr) {
        EXPECT_LT(term.succ_true, fn.blocks.size()) << fn.name << ":" << bb.label;
      }
      if (term.op == ir::Opcode::kCondBr) {
        EXPECT_LT(term.succ_false, fn.blocks.size()) << fn.name << ":" << bb.label;
        ++condbrs;
      }
    }
  }
  EXPECT_EQ(condbrs, 8192u);
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h = (h ^ c) * 0x100000001b3ull;
  }
  return h;
}

void CheckDigest(const ir::Module& m, const std::string& tag) {
  EXPECT_EQ(ir::ModuleDigest(m), Fnv1a(ir::PrintModule(m))) << tag;
}

TEST(IrDigestTest, DigestIsFnv1aOfPrintedText) {
  for (uint64_t seed = 1; seed <= 210; ++seed) {
    fuzz::GeneratorParams params;
    params.seed = seed;
    params.kind = static_cast<fuzz::BugKind>(seed % fuzz::kNumBugKinds);
    fuzz::GeneratedProgram program = fuzz::Generate(params);
    const std::string tag = "seed " + std::to_string(seed);
    CheckDigest(*program.module, tag);
    ir::passes::PassManager pm;
    ir::passes::PassStats stats;
    ASSERT_TRUE(pm.Run(program.module.get(), ir::passes::ProtectedSites{}, &stats));
    CheckDigest(*program.module, tag + " after passes");
  }
  std::vector<std::string> names = {"listing1"};
  for (const std::vector<std::string>& group :
       {workloads::Table1Names(), workloads::LsNames(), workloads::SyncNames(),
        workloads::AtomicNames()}) {
    names.insert(names.end(), group.begin(), group.end());
  }
  for (const std::string& name : names) {
    CheckDigest(*workloads::MakeWorkload(name).module, name);
  }
  for (uint32_t branches = 256; branches <= 8192; branches *= 2) {
    CheckDigest(*BpfModule(branches, 7).module, "bpf " + std::to_string(branches));
  }
}

TEST(IrDigestTest, DigestsMatchRecordedValues) {
  // Recorded from the implementation that hashed the built text. These pin
  // the printed text as well as the hash: if either changes, every cache
  // file and results.index record keyed by a digest goes stale.
  workloads::Workload listing1 = workloads::MakeWorkload("listing1");
  EXPECT_EQ(ir::ModuleDigest(*listing1.module), 0x49d06da827febfc8ull);
  EXPECT_EQ(ir::ModuleDigestHex(*listing1.module), "49d06da827febfc8");
  EXPECT_EQ(ir::ModuleDigest(*BpfModule(1024, 7).module), 0x3a99db2c440056dbull);
}

}  // namespace
}  // namespace esd
