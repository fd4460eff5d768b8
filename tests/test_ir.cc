#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/diag.h"
#include "common/error.h"
#include "ir/module.h"
#include "ir/print.h"
#include "ir/region.h"
#include "ir/verify.h"

namespace lopass::ir {
namespace {

// Runs the verifier and returns the codes it reported (in order).
std::vector<std::string> VerifyCodes(const Module& m) {
  DiagnosticSink sink;
  Verify(m, sink);
  std::vector<std::string> codes;
  for (const Diagnostic& d : sink.diagnostics()) codes.push_back(d.code);
  return codes;
}

bool HasCode(const std::vector<std::string>& codes, const std::string& want) {
  return std::find(codes.begin(), codes.end(), want) != codes.end();
}

Module MakeMinimalModule() {
  Module m;
  const FunctionId f = m.AddFunction("main");
  FunctionBuilder fb(m, f);
  const BlockId b = fb.NewBlock();
  fb.SetBlock(b);
  fb.EmitRet(Operand::Imm(0));
  m.AssignAddresses();
  return m;
}

TEST(IrModule, SymbolTable) {
  Module m;
  const SymbolId g = m.AddScalar("g");
  const SymbolId a = m.AddArray("arr", 10);
  EXPECT_EQ(m.symbol(g).kind, SymbolKind::kScalar);
  EXPECT_EQ(m.symbol(a).kind, SymbolKind::kArray);
  EXPECT_EQ(m.symbol(a).length, 10u);
  EXPECT_TRUE(m.FindSymbol("g", -1).has_value());
  EXPECT_FALSE(m.FindSymbol("nope", -1).has_value());
  EXPECT_THROW(m.AddArray("zero", 0), Error);
}

TEST(IrModule, EntryFunctionIsAFunctionOrAUserError) {
  const Module m = MakeMinimalModule();
  EXPECT_EQ(m.EntryFunction("main"), *m.FindFunction("main"));
  try {
    (void)m.EntryFunction("nope");
    FAIL() << "no error for a missing entry";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "no function named 'nope'");
  }
}

TEST(IrModule, CalleeOfResolvesOnlyFunctionSymbols) {
  Module m = MakeMinimalModule();
  const FunctionId main_fn = *m.FindFunction("main");
  Instr call;
  call.op = Opcode::kCall;
  call.sym = m.function(main_fn).symbol;
  EXPECT_EQ(CalleeOf(m, call), main_fn);
  call.sym = m.AddScalar("g");
  EXPECT_FALSE(CalleeOf(m, call).has_value());
  call.sym = 999;  // out of range
  EXPECT_FALSE(CalleeOf(m, call).has_value());
}

TEST(IrModule, LocalSymbolsShadowGlobals) {
  Module m;
  const SymbolId g = m.AddScalar("x");
  m.AddFunction("f");
  const SymbolId l = m.AddScalar("x", 0);
  EXPECT_EQ(m.FindSymbol("x", 0).value(), l);
  EXPECT_EQ(m.FindSymbol("x", -1).value(), g);
  // A different function falls back to the global.
  m.AddFunction("h");
  EXPECT_EQ(m.FindSymbol("x", 1).value(), g);
}

TEST(IrModule, AddressAssignment) {
  Module m;
  const SymbolId a = m.AddScalar("a");
  const SymbolId b = m.AddArray("b", 3);
  const SymbolId c = m.AddScalar("c");
  const std::uint32_t total = m.AssignAddresses();
  EXPECT_EQ(total, 4u + 12u + 4u);
  EXPECT_EQ(m.symbol(a).address, 0u);
  EXPECT_EQ(m.symbol(b).address, 4u);
  EXPECT_EQ(m.symbol(c).address, 16u);
}

TEST(IrModule, BlockSuccessors) {
  Module m;
  const FunctionId f = m.AddFunction("f");
  FunctionBuilder fb(m, f);
  const BlockId b0 = fb.NewBlock();
  const BlockId b1 = fb.NewBlock();
  const BlockId b2 = fb.NewBlock();
  fb.SetBlock(b0);
  const VregId c = fb.Emit(Opcode::kConst, {Operand::Imm(1)});
  fb.EmitCondBr(Operand::Vreg(c), b1, b2);
  fb.SetBlock(b1);
  fb.EmitBr(b2);
  fb.SetBlock(b2);
  fb.EmitRet();

  const Function& fn = m.function(f);
  EXPECT_EQ(fn.block(b0).successors(), (std::vector<BlockId>{b1, b2}));
  EXPECT_EQ(fn.block(b1).successors(), (std::vector<BlockId>{b2}));
  EXPECT_TRUE(fn.block(b2).successors().empty());
}

TEST(IrVerify, AcceptsMinimalModule) {
  const Module m = MakeMinimalModule();
  DiagnosticSink sink;
  EXPECT_TRUE(Verify(m, sink));
  EXPECT_FALSE(sink.has_errors());
  EXPECT_NO_THROW(VerifyOrThrow(m));
}

TEST(IrVerify, RejectsEmptyModule) {
  Module m;
  EXPECT_TRUE(HasCode(VerifyCodes(m), "L100"));
  EXPECT_THROW(VerifyOrThrow(m), Error);
}

TEST(IrVerify, RejectsMissingTerminator) {
  Module m;
  const FunctionId f = m.AddFunction("f");
  FunctionBuilder fb(m, f);
  const BlockId b = fb.NewBlock();
  fb.SetBlock(b);
  fb.Emit(Opcode::kConst, {Operand::Imm(1)});  // no terminator
  EXPECT_TRUE(HasCode(VerifyCodes(m), "L102"));
}

TEST(IrVerify, RejectsUseBeforeDef) {
  Module m;
  const FunctionId f = m.AddFunction("f");
  FunctionBuilder fb(m, f);
  const BlockId b = fb.NewBlock();
  fb.SetBlock(b);
  // Manufacture an instruction reading an undefined vreg.
  Instr in;
  in.op = Opcode::kMov;
  in.result = 5;
  in.args = {Operand::Vreg(3)};
  m.function(f).block(b).instrs.push_back(in);
  Instr ret;
  ret.op = Opcode::kRet;
  m.function(f).block(b).instrs.push_back(ret);
  m.function(f).next_vreg = 10;
  EXPECT_TRUE(HasCode(VerifyCodes(m), "L106"));
}

TEST(IrVerify, RejectsBranchOutOfRange) {
  Module m;
  const FunctionId f = m.AddFunction("f");
  FunctionBuilder fb(m, f);
  const BlockId b = fb.NewBlock();
  fb.SetBlock(b);
  Instr br;
  br.op = Opcode::kBr;
  br.target0 = 99;
  m.function(f).block(b).instrs.push_back(br);
  EXPECT_TRUE(HasCode(VerifyCodes(m), "L107"));
}

TEST(IrVerify, RejectsCallArityMismatch) {
  Module m;
  const FunctionId callee = m.AddFunction("callee");
  {
    FunctionBuilder fb(m, callee);
    const BlockId b = fb.NewBlock();
    fb.SetBlock(b);
    fb.EmitRet(Operand::Imm(0));
    m.function(callee).params.push_back(m.AddScalar("p", callee));
  }
  const FunctionId caller = m.AddFunction("caller");
  {
    FunctionBuilder fb(m, caller);
    const BlockId b = fb.NewBlock();
    fb.SetBlock(b);
    fb.EmitCall(m.function(callee).symbol, {});  // 0 args vs 1 param
    fb.EmitRet();
  }
  EXPECT_TRUE(HasCode(VerifyCodes(m), "L111"));
}

// Storage is static, so every call on a call-graph cycle is an L112
// finding naming its callee; a call into the cycle from outside is not.
TEST(IrVerify, RejectsMutualRecursionAtEachCallOnTheCycle) {
  Module m;
  const FunctionId ping = m.AddFunction("ping");
  const FunctionId pong = m.AddFunction("pong");
  const FunctionId main = m.AddFunction("main");
  const auto calls = [&](FunctionId fn, FunctionId callee, int line) {
    FunctionBuilder fb(m, fn);
    const BlockId b = fb.NewBlock();
    fb.SetBlock(b);
    fb.SetLine(line);
    fb.EmitCall(m.function(callee).symbol, {});
    fb.EmitRet();
  };
  calls(ping, pong, 3);
  calls(pong, ping, 7);
  calls(main, ping, 11);

  DiagnosticSink sink;
  EXPECT_FALSE(Verify(m, sink));
  ASSERT_EQ(sink.diagnostics().size(), 2u) << sink.ToString();
  const Diagnostic& first = sink.diagnostics()[0];
  EXPECT_EQ(first.code, "L112");
  EXPECT_EQ(first.loc.line, 3);
  EXPECT_NE(first.message.find("function 'ping'"), std::string::npos) << first.message;
  EXPECT_NE(first.message.find("recursive call to 'pong'"), std::string::npos)
      << first.message;
  const Diagnostic& second = sink.diagnostics()[1];
  EXPECT_EQ(second.code, "L112");
  EXPECT_EQ(second.loc.line, 7);
  EXPECT_NE(second.message.find("recursive call to 'ping'"), std::string::npos)
      << second.message;
}

// One pass over a module with several independent defects reports each
// of them — the verifier no longer stops at the first violation.
TEST(IrVerify, AccumulatesMultipleFindings) {
  Module m;
  const FunctionId f = m.AddFunction("f");
  FunctionBuilder fb(m, f);
  const BlockId b0 = fb.NewBlock();
  const BlockId b1 = fb.NewBlock();
  fb.SetBlock(b0);
  Instr use;  // use-before-def (L106)
  use.op = Opcode::kMov;
  use.result = 7;
  use.args = {Operand::Vreg(3)};
  m.function(f).block(b0).instrs.push_back(use);
  Instr br;  // branch out of range (L107)
  br.op = Opcode::kBr;
  br.target0 = 42;
  m.function(f).block(b0).instrs.push_back(br);
  // b1 left without a terminator (L102).
  (void)b1;
  m.function(f).next_vreg = 10;

  const auto codes = VerifyCodes(m);
  EXPECT_TRUE(HasCode(codes, "L106"));
  EXPECT_TRUE(HasCode(codes, "L107"));
  EXPECT_TRUE(HasCode(codes, "L102"));
}

// A corrupt symbol id used to trip an internal check mid-verify; it is
// now an ordinary finding so later references are still examined.
TEST(IrVerify, ReportsCorruptSymbolIdsAsFindings) {
  Module m;
  const FunctionId f = m.AddFunction("f");
  FunctionBuilder fb(m, f);
  const BlockId b = fb.NewBlock();
  fb.SetBlock(b);
  Instr rd;
  rd.op = Opcode::kReadVar;
  rd.result = 0;
  rd.sym = 999;  // out of range
  m.function(f).block(b).instrs.push_back(rd);
  Instr br;  // also out of range: both must be reported
  br.op = Opcode::kBr;
  br.target0 = 5;
  m.function(f).block(b).instrs.push_back(br);
  m.function(f).next_vreg = 1;

  const auto codes = VerifyCodes(m);
  EXPECT_TRUE(HasCode(codes, "L108"));
  EXPECT_TRUE(HasCode(codes, "L107"));
}

TEST(IrPrint, ContainsSymbolsAndOpcodes) {
  Module m;
  const SymbolId g = m.AddScalar("counter");
  const FunctionId f = m.AddFunction("main");
  FunctionBuilder fb(m, f);
  const BlockId b = fb.NewBlock();
  fb.SetBlock(b);
  const VregId v = fb.EmitReadVar(g);
  const VregId w = fb.EmitBinary(Opcode::kAdd, Operand::Vreg(v), Operand::Imm(1));
  fb.EmitWriteVar(g, Operand::Vreg(w));
  fb.EmitRet();
  m.AssignAddresses();
  const std::string text = ToString(m);
  EXPECT_NE(text.find("counter"), std::string::npos);
  EXPECT_NE(text.find("readvar"), std::string::npos);
  EXPECT_NE(text.find("add"), std::string::npos);
  EXPECT_NE(text.find("func main"), std::string::npos);
}

TEST(Region, CoveredBlocksIsRecursive) {
  RegionTree tree;
  const RegionId root = tree.AddNode(RegionKind::kFunction, 0, kNoRegion, "f");
  tree.SetFunctionRoot(0, root);
  const RegionId loop = tree.AddNode(RegionKind::kLoop, 0, root, "loop");
  const RegionId leaf = tree.AddNode(RegionKind::kLeaf, 0, loop, "leaf");
  tree.AddBlock(loop, 1);
  tree.AddBlock(leaf, 2);
  tree.AddBlock(root, 0);
  const auto blocks = tree.CoveredBlocks(root);
  EXPECT_EQ(blocks.size(), 3u);
  const auto loop_blocks = tree.CoveredBlocks(loop);
  EXPECT_EQ(loop_blocks, (std::vector<BlockId>{1, 2}));
}

TEST(Region, LoopDepths) {
  RegionTree tree;
  const RegionId root = tree.AddNode(RegionKind::kFunction, 0, kNoRegion, "f");
  const RegionId l1 = tree.AddNode(RegionKind::kLoop, 0, root, "outer");
  const RegionId seq = tree.AddNode(RegionKind::kSequence, 0, l1, "body");
  const RegionId l2 = tree.AddNode(RegionKind::kLoop, 0, seq, "inner");
  tree.ComputeLoopDepths();
  EXPECT_EQ(tree.node(root).loop_depth, 0);
  EXPECT_EQ(tree.node(l1).loop_depth, 1);
  EXPECT_EQ(tree.node(seq).loop_depth, 1);
  EXPECT_EQ(tree.node(l2).loop_depth, 2);
}

TEST(Opcode, Metadata) {
  EXPECT_TRUE(IsTerminator(Opcode::kRet));
  EXPECT_TRUE(IsTerminator(Opcode::kCondBr));
  EXPECT_FALSE(IsTerminator(Opcode::kAdd));
  EXPECT_TRUE(IsBinaryArith(Opcode::kXor));
  EXPECT_FALSE(IsBinaryArith(Opcode::kCmpLt));
  EXPECT_TRUE(IsComparison(Opcode::kCmpLt));
  EXPECT_TRUE(ProducesResult(Opcode::kLoadElem));
  EXPECT_FALSE(ProducesResult(Opcode::kStoreElem));
  EXPECT_EQ(OpcodeArity(Opcode::kAdd), 2);
  EXPECT_EQ(OpcodeArity(Opcode::kNeg), 1);
  EXPECT_EQ(OpcodeArity(Opcode::kReadVar), 0);
  EXPECT_STREQ(OpcodeName(Opcode::kStoreElem), "storeelem");
}

}  // namespace
}  // namespace lopass::ir
