//===- tests/AnalysisTest.cpp - Liveness, loops, derivations ---------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "Programs.h"
#include "analysis/Derivations.h"
#include "analysis/Liveness.h"
#include "analysis/Loops.h"
#include "driver/Compiler.h"
#include "frontend/Lower.h"
#include "fuzz/Generator.h"
#include "opt/Passes.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

#include <set>

using namespace mgc;
using namespace mgc::ir;
using namespace mgc::analysis;

namespace {

std::unique_ptr<IRModule> lower(const std::string &Src) {
  Diagnostics D;
  auto AST = parseModule(Src, D);
  EXPECT_TRUE(AST != nullptr) << D.str();
  if (!AST)
    return nullptr;
  EXPECT_TRUE(checkModule(*AST, D)) << D.str();
  auto M = lowerModule(*AST);
  EXPECT_TRUE(isValid(*M)) << toString(*M);
  return M;
}

Function *findFunc(IRModule &M, const std::string &Name) {
  for (auto &F : M.Functions)
    if (F->Name == Name)
      return F.get();
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Hand-built IR helpers
//===----------------------------------------------------------------------===//

/// func(p: Tidy): derived d = p + 8; gc-point; use d.
std::unique_ptr<Function> makeDerivedFunction() {
  auto F = std::make_unique<Function>();
  F->Name = "test";
  F->Params.push_back({"p", PtrKind::Tidy, false});
  VReg P = F->newVReg(PtrKind::Tidy, "p", true);
  (void)P;
  BasicBlock *BB = F->newBlock();
  VReg D = F->newVReg(PtrKind::Derived, "d");
  VReg V = F->newVReg(PtrKind::NonPtr, "v");
  BB->Instrs.push_back(
      Instr::bin(Opcode::DeriveAdd, D, Operand::reg(0), Operand::imm(8)));
  Instr Poll;
  Poll.Op = Opcode::GcPoll;
  BB->Instrs.push_back(Poll);
  BB->Instrs.push_back(Instr::load(V, D, 0));
  BB->Instrs.push_back(Instr::ret(Operand::reg(V)));
  F->HasRet = true;
  return F;
}

TEST(Liveness, DerivedValueKeepsBaseAliveAtGcPoint) {
  auto F = makeDerivedFunction();
  // Without the dead-base extension the base p (vreg 0) is dead after the
  // DeriveAdd...
  Liveness Plain(*F);
  DynBitset AtPoll = Plain.liveBefore(0, 1);
  EXPECT_FALSE(AtPoll.test(0));
  EXPECT_TRUE(AtPoll.test(1)); // d is live.

  // ...but with it, the use of d at the load also uses p (§4's dead base
  // solution).
  DerivationAnalysis DA(*F);
  auto Extra = DA.computeExtraUses();
  EXPECT_FALSE(Extra.empty());
  Liveness Extended(*F, &Extra);
  DynBitset AtPoll2 = Extended.liveBefore(0, 1);
  EXPECT_TRUE(AtPoll2.test(0)) << "base must stay live while d lives";
}

TEST(Derivations, SimpleBase) {
  auto F = makeDerivedFunction();
  DerivationAnalysis DA(*F);
  DerivMap S = DA.stateBefore(0, 1);
  ASSERT_TRUE(S.count(1));
  EXPECT_EQ(S[1].K, DerivState::Kind::Single);
  ASSERT_EQ(S[1].D.Bases.size(), 1u);
  EXPECT_EQ(S[1].D.Bases[0].first, 0);
  EXPECT_EQ(S[1].D.Bases[0].second, 1);
}

TEST(Derivations, SelfUpdateKeepsUltimateBase) {
  // p' = p + 8; loop { p' = p' + 8 }: bases stay {+p} (the strength
  // reduction shape).
  auto F = std::make_unique<Function>();
  F->Params.push_back({"p", PtrKind::Tidy, false});
  F->newVReg(PtrKind::Tidy, "p", true);
  VReg D = F->newVReg(PtrKind::Derived, "d");
  BasicBlock *Entry = F->newBlock();
  BasicBlock *Loop = F->newBlock();
  BasicBlock *Exit = F->newBlock();
  Entry->Instrs.push_back(
      Instr::bin(Opcode::DeriveAdd, D, Operand::reg(0), Operand::imm(8)));
  Entry->Instrs.push_back(Instr::jump(Loop->Id));
  Loop->Instrs.push_back(
      Instr::bin(Opcode::DeriveAdd, D, Operand::reg(D), Operand::imm(8)));
  VReg C = F->newVReg(PtrKind::NonPtr, "c");
  Loop->Instrs.push_back(
      Instr::bin(Opcode::CmpLt, C, Operand::reg(D), Operand::reg(D)));
  Loop->Instrs.push_back(Instr::branch(C, Loop->Id, Exit->Id));
  Exit->Instrs.push_back(Instr::ret(Operand()));

  DerivationAnalysis DA(*F);
  DerivMap S = DA.blockIn(Loop->Id);
  ASSERT_TRUE(S.count(D));
  EXPECT_EQ(S[D].K, DerivState::Kind::Single);
  ASSERT_EQ(S[D].D.Bases.size(), 1u);
  EXPECT_EQ(S[D].D.Bases[0].first, 0) << "base collapses to the original p";
}

TEST(Derivations, DeriveDiffUnionsNegatedBases) {
  // t = p - q (double indexing): bases {+p, -q}.
  auto F = std::make_unique<Function>();
  F->Params.push_back({"p", PtrKind::Tidy, false});
  F->Params.push_back({"q", PtrKind::Tidy, false});
  F->newVReg(PtrKind::Tidy, "p", true);
  F->newVReg(PtrKind::Tidy, "q", true);
  VReg D = F->newVReg(PtrKind::Derived, "t");
  BasicBlock *BB = F->newBlock();
  BB->Instrs.push_back(
      Instr::bin(Opcode::DeriveDiff, D, Operand::reg(0), Operand::reg(1)));
  BB->Instrs.push_back(Instr::ret(Operand()));

  DerivationAnalysis DA(*F);
  DerivMap S = DA.stateBefore(0, 1);
  ASSERT_TRUE(S.count(D));
  EXPECT_EQ(S[D].K, DerivState::Kind::Single);
  ASSERT_EQ(S[D].D.Bases.size(), 2u);
  EXPECT_EQ(S[D].D.Bases[0], (std::pair<VReg, int>{0, 1}));
  EXPECT_EQ(S[D].D.Bases[1], (std::pair<VReg, int>{1, -1}));
}

TEST(Derivations, CancellationWhenBasesCoincide) {
  // d1 = p + 8, d2 = p + 16, t = d1 - d2: the +p and -p cancel; t is pure E
  // and needs no adjustment.
  auto F = std::make_unique<Function>();
  F->Params.push_back({"p", PtrKind::Tidy, false});
  F->newVReg(PtrKind::Tidy, "p", true);
  VReg D1 = F->newVReg(PtrKind::Derived, "d1");
  VReg D2 = F->newVReg(PtrKind::Derived, "d2");
  VReg T = F->newVReg(PtrKind::Derived, "t");
  BasicBlock *BB = F->newBlock();
  BB->Instrs.push_back(
      Instr::bin(Opcode::DeriveAdd, D1, Operand::reg(0), Operand::imm(8)));
  BB->Instrs.push_back(
      Instr::bin(Opcode::DeriveAdd, D2, Operand::reg(0), Operand::imm(16)));
  BB->Instrs.push_back(
      Instr::bin(Opcode::DeriveDiff, T, Operand::reg(D1), Operand::reg(D2)));
  BB->Instrs.push_back(Instr::ret(Operand()));

  DerivationAnalysis DA(*F);
  DerivMap S = DA.stateBefore(0, 3);
  ASSERT_TRUE(S.count(T));
  EXPECT_EQ(S[T].K, DerivState::Kind::Single);
  EXPECT_TRUE(S[T].D.Bases.empty());
}

TEST(Derivations, JoinOfDifferentDerivationsIsAmbiguous) {
  // if c: t = Mov d_p else t = Mov d_q; join: Ambiguous{{+p},{+q}}.
  auto F = std::make_unique<Function>();
  F->Params.push_back({"p", PtrKind::Tidy, false});
  F->Params.push_back({"q", PtrKind::Tidy, false});
  F->Params.push_back({"c", PtrKind::NonPtr, false});
  F->newVReg(PtrKind::Tidy, "p", true);
  F->newVReg(PtrKind::Tidy, "q", true);
  F->newVReg(PtrKind::NonPtr, "c", true);
  VReg DP = F->newVReg(PtrKind::Derived, "dp");
  VReg DQ = F->newVReg(PtrKind::Derived, "dq");
  VReg T = F->newVReg(PtrKind::Derived, "t");
  BasicBlock *Entry = F->newBlock();
  BasicBlock *A1 = F->newBlock();
  BasicBlock *A2 = F->newBlock();
  BasicBlock *J = F->newBlock();
  Entry->Instrs.push_back(
      Instr::bin(Opcode::DeriveAdd, DP, Operand::reg(0), Operand::imm(8)));
  Entry->Instrs.push_back(
      Instr::bin(Opcode::DeriveAdd, DQ, Operand::reg(1), Operand::imm(8)));
  Entry->Instrs.push_back(Instr::branch(2, A1->Id, A2->Id));
  A1->Instrs.push_back(Instr::mov(T, Operand::reg(DP)));
  A1->Instrs.push_back(Instr::jump(J->Id));
  A2->Instrs.push_back(Instr::mov(T, Operand::reg(DQ)));
  A2->Instrs.push_back(Instr::jump(J->Id));
  J->Instrs.push_back(Instr::ret(Operand()));

  DerivationAnalysis DA(*F);
  DerivMap S = DA.blockIn(J->Id);
  ASSERT_TRUE(S.count(T));
  EXPECT_EQ(S[T].K, DerivState::Kind::Ambiguous);
  EXPECT_EQ(S[T].Alts.size(), 2u);
  std::vector<VReg> Bases = S[T].baseVRegs();
  EXPECT_EQ(Bases, (std::vector<VReg>{0, 1}));
}

//===----------------------------------------------------------------------===//
// Liveness against a per-instruction reference
//===----------------------------------------------------------------------===//

/// Reference liveness: one set per program point, iterated to a fixpoint
/// instruction by instruction (no block summaries, no bitsets).  P[B][I]
/// is the set live before instruction I of block B; P[B][N] is the set
/// live after the block's last instruction.
std::vector<std::vector<std::set<VReg>>>
referenceLiveness(const Function &F, const ExtraUses *Extra) {
  std::vector<std::vector<std::set<VReg>>> P(F.Blocks.size());
  for (const auto &BB : F.Blocks)
    P[BB->Id].resize(BB->Instrs.size() + 1);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const auto &BB : F.Blocks) {
      std::vector<std::set<VReg>> &Pts = P[BB->Id];
      std::set<VReg> Out;
      for (unsigned S : BB->successors())
        Out.insert(P[S][0].begin(), P[S][0].end());
      Changed |= Out != Pts.back();
      Pts.back() = std::move(Out);
      for (size_t I = BB->Instrs.size(); I-- > 0;) {
        const Instr &Ins = BB->Instrs[I];
        std::set<VReg> L = Pts[I + 1];
        if (Ins.Dst != NoVReg)
          L.erase(Ins.Dst);
        std::vector<VReg> Uses;
        Ins.collectUses(Uses);
        L.insert(Uses.begin(), Uses.end());
        if (Extra)
          for (VReg R : Extra->at(BB->Id, static_cast<unsigned>(I)))
            L.insert(R);
        Changed |= L != Pts[I];
        Pts[I] = std::move(L);
      }
    }
  }
  return P;
}

std::set<VReg> toSet(const DynBitset &B) {
  std::set<VReg> S;
  B.forEach([&](size_t R) { S.insert(static_cast<VReg>(R)); });
  return S;
}

/// Compares Liveness with the reference on every block boundary and
/// before every instruction; returns a description of the first mismatch.
std::string compareWithReference(const Function &F, const ExtraUses *Extra) {
  Liveness LV(F, Extra);
  auto Ref = referenceLiveness(F, Extra);
  for (const auto &BB : F.Blocks) {
    unsigned B = BB->Id;
    std::string Where = F.Name + " block " + std::to_string(B);
    if (toSet(LV.liveIn(B)) != Ref[B][0])
      return Where + ": liveIn";
    if (toSet(LV.liveOut(B)) != Ref[B].back())
      return Where + ": liveOut";
    for (unsigned I = 0; I != BB->Instrs.size(); ++I)
      if (toSet(LV.liveBefore(B, I)) != Ref[B][I])
        return Where + ": liveBefore " + std::to_string(I);
  }
  return "";
}

/// The §6 programs, the corpus and 40 seeded fuzz programs.
std::vector<std::pair<std::string, std::string>> oracleSources() {
  std::vector<std::pair<std::string, std::string>> Sources;
  for (const programs::NamedProgram &P : programs::All)
    Sources.emplace_back(P.Name, P.Source);
  for (const test::CorpusProgram &P : test::corpus())
    Sources.emplace_back(P.Name, P.Source);
  for (uint64_t Seed = 1; Seed <= 40; ++Seed)
    Sources.emplace_back("fuzz seed " + std::to_string(Seed),
                         fuzz::generateProgram(Seed).render());
  return Sources;
}

TEST(LivenessOracle, AgreesWithPerInstructionReference) {
  unsigned Functions = 0, WithExtra = 0;
  for (const auto &[Name, Source] : oracleSources()) {
    auto M = lower(Source);
    ASSERT_TRUE(M != nullptr) << Name;
    for (int Optimized = 0; Optimized != 2; ++Optimized) {
      for (auto &F : M->Functions) {
        if (Optimized)
          driver::optimizeFunction(*F, driver::CompilerOptions());
        ExtraUses Extra = DerivationAnalysis(*F).computeExtraUses();
        WithExtra += !Extra.empty();
        ++Functions;
        const ExtraUses *Variants[] = {nullptr, &Extra};
        for (const ExtraUses *X : Variants) {
          std::string Mismatch = compareWithReference(*F, X);
          ASSERT_EQ(Mismatch, "")
              << Name << (Optimized ? " (optimized)" : " (lowered)")
              << (X ? " with" : " without") << " extra uses\n"
              << toString(*F);
        }
      }
    }
  }
  // The sweep must actually exercise the dead-base extra uses.
  EXPECT_GT(WithExtra, Functions / 10);
}

/// The argument that lets DCE compute derivations once per call
/// (DESIGN.md §17): after removing dead pure instructions, with the
/// extra-use entries erased in lockstep, the extra uses equal those of a
/// fresh derivation analysis.
TEST(LivenessOracle, DeadRemovalKeepsExtraUses) {
  unsigned Removed = 0, RemovedDerived = 0;
  for (const auto &[Name, Source] : oracleSources()) {
    auto M = lower(Source);
    ASSERT_TRUE(M != nullptr) << Name;
    for (auto &F : M->Functions) {
      // The derived-value factories, copy propagation and CSE leave dead
      // copies, derived ones included.
      opt::rewriteVirtualOrigins(*F);
      opt::hoistLoopInvariants(*F);
      opt::mergeDiamondTails(*F);
      opt::hoistInvariantDiamonds(*F);
      opt::reduceStrength(*F);
      opt::propagateCopiesLocal(*F);
      opt::cseLocal(*F);
      ExtraUses Extra = DerivationAnalysis(*F).computeExtraUses();
      for (bool Again = true; Again;) {
        Again = false;
        Liveness LV(*F, &Extra);
        for (auto &BB : F->Blocks) {
          std::vector<char> Dead(BB->Instrs.size(), 0);
          LV.visitBlock(BB->Id, [&](unsigned I, const DynBitset &After) {
            const Instr &Ins = BB->Instrs[I];
            Dead[I] = Ins.Dst != NoVReg && Ins.isPure() &&
                      !After.test(static_cast<size_t>(Ins.Dst));
          });
          Extra.eraseMarked(BB->Id, Dead);
          for (size_t I = Dead.size(); I-- > 0;)
            if (Dead[I]) {
              RemovedDerived +=
                  F->kindOf(BB->Instrs[I].Dst) == PtrKind::Derived;
              BB->Instrs.erase(BB->Instrs.begin() + static_cast<long>(I));
              Again = true;
              ++Removed;
            }
        }
        ExtraUses Fresh = DerivationAnalysis(*F).computeExtraUses();
        for (const auto &BB : F->Blocks)
          for (unsigned I = 0; I != BB->Instrs.size(); ++I) {
            std::span<const VReg> Kept = Extra.at(BB->Id, I),
                                  Want = Fresh.at(BB->Id, I);
            ASSERT_TRUE(std::equal(Kept.begin(), Kept.end(), Want.begin(),
                                   Want.end()))
                << Name << " " << F->Name << " block " << BB->Id
                << " instr " << I << "\n"
                << toString(*F);
          }
      }
    }
  }
  // 786 and 105 when written.
  EXPECT_GT(Removed, 300u);
  EXPECT_GT(RemovedDerived, 50u);
}

//===----------------------------------------------------------------------===//
// Loop detection on lowered code
//===----------------------------------------------------------------------===//

TEST(Loops, NestedLoopsDetectedWithDepths) {
  auto M = lower(R"(
MODULE M;
VAR s: INTEGER;
BEGIN
  FOR i := 1 TO 3 DO
    FOR j := 1 TO 3 DO
      s := s + i * j
    END
  END
END M.)");
  ASSERT_TRUE(M != nullptr);
  Function *Main = findFunc(*M, "@main");
  ASSERT_TRUE(Main != nullptr);
  LoopInfo LI(*Main);
  ASSERT_EQ(LI.loops().size(), 2u);
  unsigned MaxDepth = 0;
  for (const Loop &L : LI.loops())
    MaxDepth = std::max(MaxDepth, L.Depth);
  EXPECT_EQ(MaxDepth, 2u);
}

TEST(Loops, PreheaderCreationIdempotent) {
  auto M = lower(R"(
MODULE M;
VAR s, i: INTEGER;
BEGIN
  i := 0;
  WHILE i < 10 DO INC(i) END;
  s := i
END M.)");
  Function *Main = findFunc(*M, "@main");
  LoopInfo LI(*Main);
  ASSERT_EQ(LI.loops().size(), 1u);
  unsigned Pre1 = ensurePreheader(*Main, LI.loops()[0]);
  LoopInfo LI2(*Main);
  unsigned Pre2 = ensurePreheader(*Main, LI2.loops()[0]);
  EXPECT_EQ(Pre1, Pre2) << "an existing preheader is reused";
  EXPECT_TRUE(isValid(*M));
}

//===----------------------------------------------------------------------===//
// Lowered pointer kinds
//===----------------------------------------------------------------------===//

TEST(Lowering, HeapIndexingEmitsDerives) {
  auto M = lower(R"(
MODULE M;
TYPE A = REF ARRAY [1..10] OF INTEGER;
VAR a: A; s, k: INTEGER;
BEGIN
  a := NEW(A);
  k := 3;
  s := a[k]
END M.)");
  std::string IR = toString(*findFunc(*M, "@main"));
  EXPECT_NE(IR.find("deriveadd"), std::string::npos) << IR;
}

TEST(Lowering, VarParamsAreIncomingAddr) {
  auto M = lower(R"(
MODULE M;
PROCEDURE P(VAR x: INTEGER; y: INTEGER);
BEGIN
  x := y
END P;
VAR g: INTEGER;
BEGIN
  P(g, 3)
END M.)");
  Function *P = findFunc(*M, "P");
  ASSERT_TRUE(P != nullptr);
  EXPECT_EQ(P->kindOf(0), PtrKind::IncomingAddr);
  EXPECT_EQ(P->kindOf(1), PtrKind::NonPtr);
}

TEST(Lowering, FrameAddressesAreNotHeapPointers) {
  auto M = lower(R"(
MODULE M;
PROCEDURE P(VAR x: INTEGER);
BEGIN
  x := 1
END P;
VAR l: INTEGER;
BEGIN
  P(l)
END M.)");
  // The address of a module variable passed VAR is FrameAddr
  // (collector-invisible: the global area does not move).
  std::string IR = toString(*findFunc(*M, "@main"));
  EXPECT_NE(IR.find("addrglobal"), std::string::npos) << IR;
  EXPECT_NE(IR.find(":fa"), std::string::npos) << IR;
}

TEST(Lowering, RefLocalsAreTidy) {
  auto M = lower(R"(
MODULE M;
TYPE R = REF RECORD x: INTEGER END;
VAR r: R;
BEGIN
  r := NEW(R)
END M.)");
  std::string IR = toString(*findFunc(*M, "@main"));
  EXPECT_NE(IR.find(":t"), std::string::npos) << IR;
}

} // namespace
