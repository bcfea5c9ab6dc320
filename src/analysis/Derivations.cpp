//===- analysis/Derivations.cpp -------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/Derivations.h"

#include <algorithm>
#include <cassert>

using namespace mgc;
using namespace mgc::analysis;
using namespace mgc::ir;

void Derivation::add(VReg R, int Coeff) {
  for (size_t I = 0; I != Bases.size(); ++I) {
    if (Bases[I].first == R) {
      Bases[I].second += Coeff;
      if (Bases[I].second == 0)
        Bases.erase(Bases.begin() + static_cast<long>(I));
      return;
    }
    if (Bases[I].first > R) {
      Bases.insert(Bases.begin() + static_cast<long>(I), {R, Coeff});
      return;
    }
  }
  Bases.emplace_back(R, Coeff);
}

void Derivation::addAll(const Derivation &O, int Sign) {
  for (const auto &[R, C] : O.Bases)
    add(R, Sign * C);
}

std::string Derivation::str() const {
  std::string S;
  for (const auto &[R, C] : Bases) {
    S += C >= 0 ? "+" : "-";
    int A = C >= 0 ? C : -C;
    if (A != 1)
      S += std::to_string(A) + "*";
    S += "%" + std::to_string(R);
  }
  if (S.empty())
    S = "(E only)";
  return S;
}

namespace {
/// The union of the base vregs of \p Alts, ascending.
std::vector<VReg> basesOf(std::span<const Derivation> Alts) {
  std::vector<VReg> Out;
  for (const Derivation &Alt : Alts)
    for (const auto &[R, C] : Alt.Bases)
      Out.push_back(R);
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

uint64_t pairKey(StateId A, StateId B) {
  return static_cast<uint64_t>(A) << 32 | B;
}
} // namespace

std::vector<VReg> DerivState::baseVRegs() const {
  if (K == Kind::Single)
    return basesOf({&D, 1});
  return basesOf(Alts);
}

StateId DerivationAnalysis::intern(std::vector<Derivation> Alts) const {
  auto [It, Inserted] = Tables.Ids.try_emplace(
      Alts, static_cast<StateId>(Tables.States.size()));
  if (Inserted) {
    std::vector<VReg> Bases = basesOf(Alts);
    Tables.States.push_back({std::move(Alts), std::move(Bases)});
  }
  return It->second;
}

/// The state an operand contributes: a non-derived pointer-like vreg is its
/// own (single) base; a derived vreg contributes its current state; an
/// immediate or a non-pointer contributes nothing (part of E).
StateId DerivationAnalysis::operandState(const Operand &O,
                                         const Row &S) const {
  if (O.isReg() && DerivedIdx[O.R] >= 0)
    return S[static_cast<size_t>(DerivedIdx[O.R])];
  VReg R = O.isReg() && F.kindOf(O.R) != PtrKind::NonPtr ? O.R : NoVReg;
  StateId &Leaf = Tables.Leaf[static_cast<size_t>(R + 1)];
  if (Leaf == UnknownState) {
    Derivation D;
    if (R != NoVReg)
      D.add(R, 1);
    Leaf = intern({std::move(D)});
  }
  return Leaf;
}

/// The union of two states' alternatives (Unknown is the identity).
StateId DerivationAnalysis::join(StateId A, StateId B) const {
  if (A == B || B == UnknownState)
    return A;
  if (A == UnknownState)
    return B;
  auto [It, Inserted] =
      Tables.JoinMemo.try_emplace(pairKey(std::min(A, B), std::max(A, B)));
  if (Inserted) {
    std::span<const Derivation> AltsA = alternatives(A), AltsB = alternatives(B);
    std::vector<Derivation> Alts;
    std::set_union(AltsA.begin(), AltsA.end(), AltsB.begin(), AltsB.end(),
                   std::back_inserter(Alts));
    It->second = intern(std::move(Alts));
  }
  return It->second;
}

/// A − B over all pairs of alternatives (DeriveDiff).
StateId DerivationAnalysis::diff(StateId A, StateId B) const {
  if (A == UnknownState || B == UnknownState)
    return UnknownState;
  auto [It, Inserted] = Tables.DiffMemo.try_emplace(pairKey(A, B));
  if (Inserted) {
    std::vector<Derivation> Alts;
    for (const Derivation &DA : alternatives(A))
      for (const Derivation &DB : alternatives(B)) {
        Derivation D = DA;
        D.addAll(DB, -1);
        Alts.push_back(std::move(D));
      }
    std::sort(Alts.begin(), Alts.end());
    Alts.erase(std::unique(Alts.begin(), Alts.end()), Alts.end());
    It->second = intern(std::move(Alts));
  }
  return It->second;
}

void DerivationAnalysis::transfer(const Instr &I, Row &S) const {
  if (I.Dst == NoVReg || DerivedIdx[I.Dst] < 0)
    return;
  StateId &Dst = S[static_cast<size_t>(DerivedIdx[I.Dst])];
  switch (I.Op) {
  case Opcode::Mov:
  case Opcode::DeriveAdd:
  case Opcode::DeriveSub:
    // The integer offset operand is part of E; only the base matters.
    Dst = operandState(I.A, S);
    return;
  case Opcode::DeriveDiff:
    Dst = diff(operandState(I.A, S), operandState(I.B, S));
    return;
  default:
    assert(false && "derived vreg defined by a non-derive instruction");
    return;
  }
}

DerivationAnalysis::DerivationAnalysis(const Function &F) : F(F) {
  DerivedIdx.assign(F.VRegs.size(), -1);
  for (size_t R = 0; R != F.VRegs.size(); ++R)
    if (F.VRegs[R].Kind == PtrKind::Derived) {
      DerivedIdx[R] = static_cast<int>(Derived.size());
      Derived.push_back(static_cast<VReg>(R));
    }
  Tables.States.emplace_back(); // UnknownState.
  if (Derived.empty())
    return; // No state to track: every row is empty.
  Tables.Leaf.assign(F.VRegs.size() + 1, UnknownState);

  size_t ND = Derived.size();
  In.assign(F.Blocks.size() * ND, UnknownState);
  // Only instructions defining a derived vreg change the state.
  std::vector<std::vector<const Instr *>> Defs(F.Blocks.size());
  for (const auto &BB : F.Blocks)
    for (const Instr &I : BB->Instrs)
      if (I.Dst != NoVReg && DerivedIdx[I.Dst] >= 0)
        Defs[BB->Id].push_back(&I);

  std::vector<unsigned> Order = F.reversePostOrder();
  Row State;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B : Order) {
      loadBlockIn(B, State);
      for (const Instr *I : Defs[B])
        transfer(*I, State);
      F.Blocks[B]->forEachSuccessor([&](unsigned Succ) {
        StateId *Into = &In[Succ * ND];
        for (size_t D = 0; D != ND; ++D) {
          StateId New = join(Into[D], State[D]);
          if (New != Into[D]) {
            Into[D] = New;
            Changed = true;
          }
        }
      });
    }
  }
}

DerivState DerivationAnalysis::materialize(StateId Id) const {
  DerivState S;
  std::span<const Derivation> Alts = alternatives(Id);
  if (Alts.size() == 1) {
    S.K = DerivState::Kind::Single;
    S.D = Alts[0];
  } else if (!Alts.empty()) {
    S.K = DerivState::Kind::Ambiguous;
    S.Alts.assign(Alts.begin(), Alts.end());
  }
  return S;
}

DerivMap DerivationAnalysis::toMap(const Row &S) const {
  DerivMap M;
  for (size_t D = 0; D != S.size(); ++D)
    if (S[D] != UnknownState)
      M[Derived[D]] = materialize(S[D]);
  return M;
}

DerivMap DerivationAnalysis::blockIn(unsigned Block) const {
  Row S;
  loadBlockIn(Block, S);
  return toMap(S);
}

DerivMap DerivationAnalysis::stateBefore(unsigned Block,
                                         unsigned Index) const {
  Row S;
  loadBlockIn(Block, S);
  const BasicBlock &BB = *F.Blocks[Block];
  for (unsigned I = 0; I != Index; ++I)
    transfer(BB.Instrs[I], S);
  return toMap(S);
}

ExtraUses DerivationAnalysis::computeExtraUses() const {
  ExtraUses X;
  if (Derived.empty())
    return X;
  X.Ranges.resize(F.Blocks.size());
  Row State;
  std::vector<VReg> Bases;
  for (const auto &BB : F.Blocks) {
    std::vector<ExtraUses::Range> &Ranges = X.Ranges[BB->Id];
    Ranges.resize(BB->Instrs.size());
    loadBlockIn(BB->Id, State);
    for (size_t I = 0; I != BB->Instrs.size(); ++I) {
      const Instr &Ins = BB->Instrs[I];
      Bases.clear();
      Ins.forEachUse([&](VReg R) {
        if (DerivedIdx[R] < 0)
          return;
        const std::vector<VReg> &B = baseVRegs(stateOf(State, R));
        Bases.insert(Bases.end(), B.begin(), B.end());
      });
      if (!Bases.empty()) {
        std::sort(Bases.begin(), Bases.end());
        Bases.erase(std::unique(Bases.begin(), Bases.end()), Bases.end());
        Ranges[I].Begin = static_cast<uint32_t>(X.Pool.size());
        X.Pool.insert(X.Pool.end(), Bases.begin(), Bases.end());
        Ranges[I].End = static_cast<uint32_t>(X.Pool.size());
      }
      transfer(Ins, State);
    }
  }
  return X;
}
