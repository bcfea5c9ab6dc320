//===- opt/Scalar.cpp - Constant folding, copy prop, CSE, DCE -------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

#include "analysis/Derivations.h"
#include "analysis/Liveness.h"

#include <map>
#include <set>

using namespace mgc;
using namespace mgc::ir;

//===----------------------------------------------------------------------===//
// Constant folding
//===----------------------------------------------------------------------===//

namespace {
bool foldBinary(Instr &I) {
  if (!I.A.isImm() || !I.B.isImm())
    return false;
  int64_t A = I.A.Imm, B = I.B.Imm, R;
  switch (I.Op) {
  case Opcode::Add: R = A + B; break;
  case Opcode::Sub: R = A - B; break;
  case Opcode::Mul: R = A * B; break;
  case Opcode::Div:
    if (B == 0)
      return false;
    R = A / B;
    break;
  case Opcode::Mod:
    if (B == 0)
      return false;
    R = A % B;
    break;
  case Opcode::CmpEq: R = A == B; break;
  case Opcode::CmpNe: R = A != B; break;
  case Opcode::CmpLt: R = A < B; break;
  case Opcode::CmpLe: R = A <= B; break;
  case Opcode::CmpGt: R = A > B; break;
  case Opcode::CmpGe: R = A >= B; break;
  default:
    return false;
  }
  I = Instr::mov(I.Dst, Operand::imm(R));
  return true;
}

bool foldAlgebraic(Instr &I) {
  switch (I.Op) {
  case Opcode::Add:
    if (I.B.isImm() && I.B.Imm == 0) {
      I = Instr::mov(I.Dst, I.A);
      return true;
    }
    if (I.A.isImm() && I.A.Imm == 0) {
      I = Instr::mov(I.Dst, I.B);
      return true;
    }
    return false;
  case Opcode::Sub:
    if (I.B.isImm() && I.B.Imm == 0) {
      I = Instr::mov(I.Dst, I.A);
      return true;
    }
    return false;
  case Opcode::Mul:
    if ((I.B.isImm() && I.B.Imm == 1)) {
      I = Instr::mov(I.Dst, I.A);
      return true;
    }
    if ((I.A.isImm() && I.A.Imm == 1)) {
      I = Instr::mov(I.Dst, I.B);
      return true;
    }
    if ((I.A.isImm() && I.A.Imm == 0) || (I.B.isImm() && I.B.Imm == 0)) {
      I = Instr::mov(I.Dst, Operand::imm(0));
      return true;
    }
    return false;
  case Opcode::DeriveAdd:
  case Opcode::DeriveSub:
    // base +- 0 is a plain copy (still a derived value).
    if (I.B.isImm() && I.B.Imm == 0) {
      I = Instr::mov(I.Dst, I.A);
      return true;
    }
    return false;
  default:
    return false;
  }
}
} // namespace

bool opt::foldConstants(Function &F) {
  bool Changed = false;
  for (auto &BB : F.Blocks) {
    for (Instr &I : BB->Instrs) {
      if (I.Dst != NoVReg && (foldBinary(I) || foldAlgebraic(I))) {
        Changed = true;
        continue;
      }
      if (I.Op == Opcode::Neg && I.A.isImm()) {
        I = Instr::mov(I.Dst, Operand::imm(-I.A.Imm));
        Changed = true;
      } else if (I.Op == Opcode::Not && I.A.isImm()) {
        I = Instr::mov(I.Dst, Operand::imm(I.A.Imm == 0 ? 1 : 0));
        Changed = true;
      } else if (I.Op == Opcode::Branch && I.A.isImm()) {
        unsigned Target = I.A.Imm != 0 ? I.Target0 : I.Target1;
        I = Instr::jump(Target);
        Changed = true;
      }
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Local copy/constant propagation
//===----------------------------------------------------------------------===//

namespace {
/// Whether operand position \p IsAddressBase may hold an immediate.
bool substitutionAllowed(const Instr &I, const Operand &NewVal, bool IsA) {
  if (NewVal.isReg())
    return true;
  // Immediates may not appear as addresses or derive bases.
  switch (I.Op) {
  case Opcode::Load:
  case Opcode::Store:
  case Opcode::DeriveAdd:
  case Opcode::DeriveSub:
    return !IsA;
  case Opcode::DeriveDiff:
    return false;
  case Opcode::Branch:
    return true; // Folded later.
  default:
    return true;
  }
}
} // namespace

bool opt::propagateCopiesLocal(Function &F) {
  bool Changed = false;
  for (auto &BB : F.Blocks) {
    std::map<VReg, Operand> Env;
    auto Invalidate = [&](VReg R) {
      Env.erase(R);
      for (auto It = Env.begin(); It != Env.end();) {
        if (It->second.isReg() && It->second.R == R)
          It = Env.erase(It);
        else
          ++It;
      }
    };
    for (Instr &I : BB->Instrs) {
      auto Subst = [&](Operand &O, bool IsA) {
        if (!O.isReg())
          return;
        auto It = Env.find(O.R);
        if (It == Env.end())
          return;
        if (substitutionAllowed(I, It->second, IsA))
          if (!(It->second == O)) {
            O = It->second;
            Changed = true;
          }
      };
      Subst(I.A, true);
      Subst(I.B, false);
      for (Operand &O : I.Args)
        Subst(O, false);

      if (I.Dst != NoVReg)
        Invalidate(I.Dst);
      if (I.Op == Opcode::Mov && I.Dst != NoVReg &&
          !(I.A.isReg() && I.A.R == I.Dst))
        Env[I.Dst] = I.A;
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Local CSE
//===----------------------------------------------------------------------===//

namespace {
struct ExprKey {
  Opcode Op;
  Operand A, B;
  int64_t Disp;
  int Index;

  bool operator<(const ExprKey &O) const {
    auto Tup = [](const ExprKey &K) {
      return std::tuple(static_cast<int>(K.Op), static_cast<int>(K.A.K),
                        K.A.R, K.A.Imm, static_cast<int>(K.B.K), K.B.R,
                        K.B.Imm, K.Disp, K.Index);
    };
    return Tup(*this) < Tup(O);
  }
};
} // namespace

bool opt::cseLocal(Function &F) {
  bool Changed = false;
  for (auto &BB : F.Blocks) {
    std::map<ExprKey, VReg> Table;
    for (Instr &I : BB->Instrs) {
      if (I.Dst != NoVReg) {
        // Drop expressions that used the redefined register (as operand or
        // result).
        for (auto It = Table.begin(); It != Table.end();) {
          const ExprKey &K = It->first;
          bool Uses = (K.A.isReg() && K.A.R == I.Dst) ||
                      (K.B.isReg() && K.B.R == I.Dst) ||
                      It->second == I.Dst;
          It = Uses ? Table.erase(It) : ++It;
        }
      }
      if (!I.isPure() || I.Dst == NoVReg || I.Op == Opcode::Mov)
        continue;
      ExprKey Key{I.Op, I.A, I.B, I.Disp, I.Index};
      auto It = Table.find(Key);
      if (It != Table.end()) {
        I = Instr::mov(I.Dst, Operand::reg(It->second));
        Changed = true;
      } else {
        Table[Key] = I.Dst;
      }
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// CFG simplification
//===----------------------------------------------------------------------===//

bool opt::simplifyCFG(Function &F) {
  bool Changed = false;

  // Jump threading: a target block containing only `jump X` is bypassed.
  auto UltimateTarget = [&](unsigned T) {
    std::set<unsigned> Seen;
    while (Seen.insert(T).second) {
      const BasicBlock &BB = *F.Blocks[T];
      if (BB.Instrs.size() == 1 && BB.Instrs[0].Op == Opcode::Jump)
        T = BB.Instrs[0].Target0;
      else
        break;
    }
    return T;
  };
  for (auto &BB : F.Blocks) {
    if (!BB->hasTerminator())
      continue;
    Instr &T = BB->Instrs.back();
    if (T.Op == Opcode::Jump) {
      unsigned U = UltimateTarget(T.Target0);
      if (U != T.Target0) {
        T.Target0 = U;
        Changed = true;
      }
    } else if (T.Op == Opcode::Branch) {
      unsigned U0 = UltimateTarget(T.Target0);
      unsigned U1 = UltimateTarget(T.Target1);
      if (U0 != T.Target0 || U1 != T.Target1) {
        T.Target0 = U0;
        T.Target1 = U1;
        Changed = true;
      }
      if (U0 == U1) {
        T = Instr::jump(U0);
        Changed = true;
      }
    }
  }

  // Merge B -> S when B jumps to S and S has exactly one predecessor.
  auto Preds = F.predecessors();
  for (auto &BB : F.Blocks) {
    while (BB->hasTerminator() && BB->terminator().Op == Opcode::Jump) {
      unsigned S = BB->terminator().Target0;
      if (S == BB->Id || S == 0 || Preds[S].size() != 1)
        break;
      BasicBlock &Succ = *F.Blocks[S];
      if (&Succ == BB.get())
        break;
      BB->Instrs.pop_back();
      for (Instr &I : Succ.Instrs)
        BB->Instrs.push_back(std::move(I));
      Succ.Instrs.clear();
      Succ.Instrs.push_back(Instr::trap(TrapKind::MissingReturn));
      // Predecessor info for the moved successor edges now belongs to BB.
      Preds = F.predecessors();
      Changed = true;
    }
  }

  F.removeUnreachableBlocks();
  return Changed;
}

//===----------------------------------------------------------------------===//
// Dead code elimination
//===----------------------------------------------------------------------===//

bool opt::eliminateDeadCode(Function &F) {
  // Derivations, and so the dead-base extra uses, are computed once per
  // call: removing a dead instruction changes no derivation state at any
  // remaining use (the argument is in DESIGN.md §17).  Only
  // liveness is recomputed per sweep, with the extra-use entries erased in
  // lockstep with the instructions.
  analysis::ExtraUses Extra =
      analysis::DerivationAnalysis(F).computeExtraUses();
  bool Changed = false;
  bool LocalChange = true;
  std::vector<char> Remove;
  while (LocalChange) {
    LocalChange = false;
    analysis::Liveness LV(F, &Extra);
    for (auto &BB : F.Blocks) {
      std::vector<Instr> &Instrs = BB->Instrs;
      // Pure instructions whose result is dead, and self-moves
      // (mov %x, %x) even when live.
      Remove.assign(Instrs.size(), 0);
      LV.visitBlock(BB->Id, [&](unsigned Index, const DynBitset &After) {
        const Instr &I = Instrs[Index];
        if (I.Dst != NoVReg && I.isPure() &&
            !After.test(static_cast<size_t>(I.Dst)))
          Remove[Index] = 1;
        else if (I.Op == Opcode::Mov && I.A.isReg() && I.A.R == I.Dst)
          Remove[Index] = 1;
      });
      size_t Kept = 0;
      for (size_t I = 0; I != Instrs.size(); ++I)
        if (!Remove[I]) {
          if (Kept != I)
            Instrs[Kept] = std::move(Instrs[I]);
          ++Kept;
        }
      if (Kept == Instrs.size())
        continue;
      Instrs.erase(Instrs.begin() + static_cast<long>(Kept), Instrs.end());
      Extra.eraseMarked(BB->Id, Remove);
      LocalChange = true;
    }
    Changed |= LocalChange;
  }
  return Changed;
}
