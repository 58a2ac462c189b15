// Unit tests for the IR: builder, parser, printer round-trip, verifier.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "src/ir/builder.h"
#include "src/ir/module.h"
#include "src/ir/parser.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"

namespace esd::ir {
namespace {

constexpr char kSimpleProgram[] = R"(
; a tiny program exercising most of the surface syntax
global $greeting = str "hello"
global $counter = zero 8
extern @getchar() : i32
extern @print_str(ptr)

func @add3(%x: i32) : i32 {
entry:
  %r = add %x, i32 3
  ret %r
}

func @main() : i32 {
entry:
  %c = call @getchar()
  %v = call @add3(%c)
  %is = icmp eq %v, i32 112
  condbr %is, yes, no
yes:
  call @print_str($greeting)
  ret i32 1
no:
  ret i32 0
}
)";

TEST(ParserTest, ParsesSimpleProgram) {
  Module m;
  ParseResult r = ParseModule(kSimpleProgram, &m);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(m.NumGlobals(), 2u);
  EXPECT_EQ(m.NumFunctions(), 4u);
  auto main_index = m.FindFunction("main");
  ASSERT_TRUE(main_index.has_value());
  const Function& main_fn = m.Func(*main_index);
  EXPECT_EQ(main_fn.blocks.size(), 3u);
  EXPECT_EQ(main_fn.blocks[0].label, "entry");
  EXPECT_TRUE(Verify(m).empty());
}

TEST(ParserTest, RoundTripsThroughPrinter) {
  Module m1;
  ASSERT_TRUE(ParseModule(kSimpleProgram, &m1).ok);
  std::string text1 = PrintModule(m1);
  Module m2;
  ParseResult r = ParseModule(text1, &m2);
  ASSERT_TRUE(r.ok) << r.error;
  // A second round trip must be a fixed point.
  EXPECT_EQ(text1, PrintModule(m2));
}

TEST(ParserTest, ReportsUndefinedRegister) {
  Module m;
  ParseResult r = ParseModule(R"(
func @f() : i32 {
entry:
  %x = add %nope, i32 1
  ret %x
}
)", &m);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("nope"), std::string::npos);
}

TEST(ParserTest, ReportsBadOpcode) {
  Module m;
  ParseResult r = ParseModule("func @f() : void {\nentry:\n  frobnicate\n}\n", &m);
  EXPECT_FALSE(r.ok);
}

TEST(ParserTest, ForwardBranchTargets) {
  Module m;
  ParseResult r = ParseModule(R"(
func @f(%n: i32) : i32 {
entry:
  %z = icmp eq %n, i32 0
  condbr %z, done, loop
loop:
  br done
done:
  ret i32 7
}
)", &m);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(Verify(m).empty());
}

TEST(ParserTest, GlobalKinds) {
  Module m;
  ParseResult r = ParseModule(R"(
global $a = zero 16
global $b = str "x\n"
global $c = bytes 4 [1 2 3 4]
)", &m);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(m.GlobalAt(0).size, 16u);
  EXPECT_TRUE(m.GlobalAt(0).init.empty());
  ASSERT_EQ(m.GlobalAt(1).init.size(), 3u);  // 'x', '\n', NUL
  EXPECT_EQ(m.GlobalAt(1).init[1], uint8_t{'\n'});
  EXPECT_EQ(m.GlobalAt(2).init.size(), 4u);
}

// Parses `text` and expects one error line, "line <line>: ...", that
// mentions `what`.
void ExpectParseError(const std::string& text, int line, const std::string& what) {
  Module m;
  ParseResult r = ParseModule(text, &m);
  ASSERT_FALSE(r.ok) << text;
  EXPECT_EQ(r.error.rfind("line " + std::to_string(line) + ": ", 0), 0u) << r.error;
  EXPECT_EQ(r.error.find('\n'), std::string::npos) << r.error;
  EXPECT_NE(r.error.find(what), std::string::npos) << r.error;
}

TEST(ParserTest, RejectsOutOfRangeIntegers) {
  // A literal that does not fit is an error, never a saturated or
  // truncated value.
  ExpectParseError("func @f() : i64 {\nentry:\n  ret i64 99999999999999999999\n}\n", 3,
                   "integer literal 99999999999999999999 out of range");
  ExpectParseError("func @f() : i64 {\nentry:\n  ret i64 -9223372036854775809\n}\n", 3,
                   "out of range");
  ExpectParseError("func @f() : ptr {\nentry:\n  %p = alloca 99999999999\n  ret %p\n}\n",
                   3, "alloca size 99999999999 out of range");
  ExpectParseError("global $g = zero 4294967297\n", 1, "global size 4294967297 out of range");
  ExpectParseError("global $g = bytes 4294967297 [1]\n", 1, "bytes size 4294967297 out of range");
  ExpectParseError(
      "func @f(%p: ptr) : ptr {\nentry:\n  %q = gep %p, i64 1, 4294967296\n  ret %q\n}\n", 3,
      "gep scale 4294967296 out of range");
  ExpectParseError("global $g = bytes 2 [1 256]\n", 1, "bad byte value");
  ExpectParseError("func @f() : ptr {\nentry:\n  %p = alloca -4\n  ret %p\n}\n", 3,
                   "bad alloca size");
}

TEST(ParserTest, AcceptsIntegersAtTheirLimits) {
  Module m;
  ParseResult r = ParseModule(R"(
global $g = zero 4294967295
global $b = bytes 4294967295 [0 255]
func @big() : i64 {
entry:
  ret i64 18446744073709551615
}
func @small() : i64 {
entry:
  ret i64 -9223372036854775808
}
func @mem(%p: ptr) : ptr {
entry:
  %a = alloca 4294967295
  %q = gep %p, i64 1, 4294967295
  ret %q
}
)", &m);
  ASSERT_TRUE(r.ok) << r.error;
  constexpr uint32_t kMax32 = std::numeric_limits<uint32_t>::max();
  EXPECT_EQ(m.GlobalAt(0).size, kMax32);
  EXPECT_EQ(m.GlobalAt(1).size, kMax32);
  EXPECT_EQ(m.Func(*m.FindFunction("big")).blocks[0].insts[0].operands[0].imm,
            std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(m.Func(*m.FindFunction("small")).blocks[0].insts[0].operands[0].imm,
            uint64_t{1} << 63);
  const Function& mem = m.Func(*m.FindFunction("mem"));
  EXPECT_EQ(mem.blocks[0].insts[0].imm, kMax32);
  EXPECT_EQ(mem.blocks[0].insts[1].imm, kMax32);
}

TEST(ParserTest, DuplicateLabelResolvesToFirstBlock) {
  Module m;
  ParseResult r = ParseModule(R"(
func @f() : i32 {
entry:
  br a
a:
  %x = add i32 1, i32 2
a:
  ret %x
}
)", &m);
  ASSERT_TRUE(r.ok) << r.error;
  const Function& fn = m.Func(0);
  ASSERT_EQ(fn.blocks.size(), 2u);
  EXPECT_EQ(fn.blocks[1].label, "a");
  EXPECT_EQ(fn.blocks[1].insts.size(), 2u);  // The second "a:" resumes the first.
  EXPECT_EQ(fn.blocks[0].insts[0].succ_true, 1u);
  EXPECT_TRUE(Verify(m).empty());
}

// Text that breaks a FunctionBuilder precondition gets an error line; it
// must never reach the builder, whose asserts abort a Debug build.
TEST(ParserTest, ReportsWhatTheBuilderWouldAssert) {
  // A label may resume an open block (above), not one a terminator ended.
  ExpectParseError(
      "func @main() : i32 {\nentry:\n  br b0\nb0:\n  ret i32 0\nb0:\n  ret i32 1\n}\n", 7,
      "terminator");
  ExpectParseError(
      "func @f() : void {\nentry:\n  %v = add i32 1, i32 2\n  store i32 1, %v\n  ret\n}\n", 4,
      "store address must be ptr");
  const std::string head = "func @f(%a: i32, %b: i8, %p: ptr) : void {\nentry:\n";
  const std::pair<const char*, const char*> cases[] = {
      {"%c = icmp eq %a, %b", "icmp operand type mismatch"},
      {"%c = zext i8, %a", "extension narrows"},
      {"%c = sext i16, %a", "extension narrows"},
      {"%c = trunc i64, %a", "truncation widens"},
      {"%c = select %a, %b, %b", "select condition must be i1"},
      {"%c = select i1 1, %a, %b", "select arm type mismatch"},
      {"%c = load i32, %a", "load address must be ptr"},
      {"%c = gep %a, i64 1, 4", "gep base must be ptr"},
      {"condbr %a, entry, entry", "condbr condition must be i1"},
      {"calli void %a()", "indirect callee must be ptr"},
  };
  for (const auto& [inst, what] : cases) {
    ExpectParseError(head + "  " + inst + "\n  ret\n}\n", 3, what);
  }
}

TEST(ParserTest, BlockLabelledEntryAfterRenamedEntry) {
  // The first label renames the entry block, so a later "entry:" is a block
  // of its own, not the entry block under its old name.
  Module m;
  ParseResult r = ParseModule(R"(
func @f() : void {
start:
  br entry
entry:
  ret
}
)", &m);
  ASSERT_TRUE(r.ok) << r.error;
  const Function& fn = m.Func(0);
  ASSERT_EQ(fn.blocks.size(), 2u);
  EXPECT_EQ(fn.blocks[0].label, "start");
  EXPECT_EQ(fn.blocks[1].label, "entry");
  EXPECT_EQ(fn.blocks[0].insts[0].succ_true, 1u);
  EXPECT_TRUE(Verify(m).empty());
}

TEST(BuilderTest, LabelIndexFollowsRenamedEntry) {
  Module m;
  ModuleBuilder mb(&m);
  FunctionBuilder fb = mb.BeginFunction("f", Type::kVoid, {});
  EXPECT_EQ(fb.Block("entry"), 0u);
  const uint32_t a = fb.Block("a");
  EXPECT_EQ(fb.Block("a"), a);
  // RenameEntry followed by a block labelled "entry": two distinct blocks.
  fb.RenameEntry("start");
  const uint32_t entry = fb.Block("entry");
  EXPECT_NE(entry, 0u);
  EXPECT_NE(entry, a);
  EXPECT_EQ(fb.Block("start"), 0u);
  // Renaming the entry block onto a taken label gives two blocks that label;
  // the first one, the entry block, wins until it is renamed again.
  fb.RenameEntry("a");
  EXPECT_EQ(fb.Block("a"), 0u);
  EXPECT_EQ(fb.Block("entry"), entry);
  fb.RenameEntry("top");
  EXPECT_EQ(fb.Block("a"), a);
  EXPECT_EQ(fb.Block("top"), 0u);
  const uint32_t start = fb.Block("start");
  EXPECT_EQ(start, 3u);  // "start" was freed, so this is a new block.
  for (uint32_t b : {0u, a, entry}) {
    fb.SetBlock(b);
    fb.Br(start);
  }
  fb.SetBlock(start);
  fb.Ret();
  fb.Finish();
  EXPECT_EQ(m.Func(0).blocks.size(), 4u);
  EXPECT_TRUE(Verify(m).empty());
}

TEST(BuilderTest, BuildsCallGraphWithForwardRefs) {
  Module m;
  ModuleBuilder mb(&m);
  // main calls worker before worker is defined; the forward declaration
  // provides the signature.
  mb.DeclareFunction("worker", Type::kI32, {Type::kI32});
  FunctionBuilder main_fb = mb.BeginFunction("main", Type::kI32, {});
  Value v = main_fb.Call("worker", {FunctionBuilder::ConstI32(4)});
  main_fb.Ret(v);
  main_fb.Finish();
  FunctionBuilder w = mb.BeginFunction("worker", Type::kI32, {Type::kI32});
  w.Ret(w.Add(w.Param(0), FunctionBuilder::ConstI32(1)));
  w.Finish();
  ASSERT_TRUE(Verify(m).empty());
}

TEST(BuilderTest, CallBeforeDefinitionUsesPlaceholderReturnType) {
  // A forward-referenced callee has an unknown (void) return type, so calls
  // that need the result must declare or define the callee first.
  Module m;
  ModuleBuilder mb(&m);
  mb.DeclareExternal("get", Type::kI32, {});
  FunctionBuilder fb = mb.BeginFunction("main", Type::kI32, {});
  Value v = fb.Call("get", {});
  EXPECT_TRUE(v.IsValid());
  fb.Ret(v);
  fb.Finish();
  EXPECT_TRUE(Verify(m).empty());
}

TEST(VerifierTest, CatchesMissingTerminator) {
  Module m;
  Function f;
  f.name = "broken";
  f.ret_type = Type::kVoid;
  BasicBlock bb;
  bb.label = "entry";
  Instruction add;
  add.op = Opcode::kAdd;
  add.type = Type::kI32;
  add.result = 0;
  add.operands = {Value::Const(Type::kI32, 1), Value::Const(Type::kI32, 2)};
  bb.insts.push_back(add);
  f.blocks.push_back(bb);
  f.num_regs = 1;
  m.AddFunction(f);
  auto errors = Verify(m);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("terminator"), std::string::npos);
}

TEST(VerifierTest, CatchesTypeMismatch) {
  Module m;
  ModuleBuilder mb(&m);
  FunctionBuilder fb = mb.BeginFunction("f", Type::kI32, {});
  fb.Ret(FunctionBuilder::ConstI32(0));
  fb.Finish();
  // Manually corrupt: binary with mismatched operand types.
  Instruction bad;
  bad.op = Opcode::kAdd;
  bad.type = Type::kI32;
  bad.result = 0;
  bad.operands = {Value::Const(Type::kI32, 1), Value::Const(Type::kI64, 2)};
  m.Func(0).num_regs = 1;
  m.Func(0).blocks[0].insts.insert(m.Func(0).blocks[0].insts.begin(), bad);
  EXPECT_FALSE(Verify(m).empty());
}

TEST(VerifierTest, CatchesCallArityMismatch) {
  Module m;
  ModuleBuilder mb(&m);
  mb.DeclareExternal("two_args", Type::kVoid, {Type::kI32, Type::kI32});
  FunctionBuilder fb = mb.BeginFunction("f", Type::kVoid, {});
  fb.Call("two_args", {FunctionBuilder::ConstI32(1)});  // Wrong arity.
  fb.Ret();
  fb.Finish();
  auto errors = Verify(m);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("arity"), std::string::npos);
}

TEST(ModuleTest, DescribeAndLookups) {
  Module m;
  ASSERT_TRUE(ParseModule(kSimpleProgram, &m).ok);
  auto f = m.FindFunction("main");
  ASSERT_TRUE(f.has_value());
  InstRef ref{*f, 0, 0};
  EXPECT_EQ(m.Describe(ref), "main:entry:0");
  EXPECT_FALSE(m.FindFunction("nothere").has_value());
  EXPECT_TRUE(m.FindGlobal("greeting").has_value());
  EXPECT_GT(m.TotalInstructions(), 5u);
}

TEST(ParserTest, IndirectCallSyntax) {
  Module m;
  ParseResult r = ParseModule(R"(
func @target(%x: i32) : i32 {
entry:
  ret %x
}
func @main() : i32 {
entry:
  %r = calli i32 @target(i32 9)
  ret %r
}
)", &m);
  ASSERT_TRUE(r.ok) << r.error;
  const Function& main_fn = m.Func(*m.FindFunction("main"));
  const Instruction& call = main_fn.blocks[0].insts[0];
  EXPECT_EQ(call.op, Opcode::kCall);
  EXPECT_EQ(call.callee, kInvalidIndex);  // Indirect.
  EXPECT_EQ(call.operands.size(), 2u);    // fn ptr + 1 arg.
}

}  // namespace
}  // namespace esd::ir
