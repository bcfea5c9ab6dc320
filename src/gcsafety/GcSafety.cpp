//===- gcsafety/GcSafety.cpp ----------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "gcsafety/GcSafety.h"

#include "analysis/Liveness.h"
#include "analysis/Loops.h"
#include "support/DynBitset.h"

#include <algorithm>
#include <cassert>

using namespace mgc;
using namespace mgc::gcsafety;
using namespace mgc::ir;
using namespace mgc::analysis;

//===----------------------------------------------------------------------===//
// Loop polls (§5.3)
//===----------------------------------------------------------------------===//

namespace {
/// Iterative dominator sets over blocks (bitset formulation; functions are
/// small).
std::vector<DynBitset> computeDominators(const Function &F) {
  size_t N = F.Blocks.size();
  std::vector<DynBitset> Dom(N, DynBitset(N));
  DynBitset All(N);
  for (size_t I = 0; I != N; ++I)
    All.set(I);
  for (size_t I = 0; I != N; ++I)
    Dom[I] = All;
  Dom[0] = DynBitset(N);
  Dom[0].set(0);
  auto Preds = F.predecessors();
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B : F.reversePostOrder()) {
      if (B == 0)
        continue;
      DynBitset New = All;
      bool Any = false;
      for (unsigned P : Preds[B]) {
        if (!Any) {
          New = Dom[P];
          Any = true;
        } else {
          // Intersection.
          DynBitset Tmp(N);
          New.forEach([&](size_t I) {
            if (Dom[P].test(I))
              Tmp.set(I);
          });
          New = Tmp;
        }
      }
      if (!Any)
        New = DynBitset(N);
      New.set(B);
      if (!(New == Dom[B])) {
        Dom[B] = std::move(New);
        Changed = true;
      }
    }
  }
  return Dom;
}

bool blockHasGcPoint(const BasicBlock &BB) {
  for (const Instr &I : BB.Instrs)
    if (I.isGcPoint())
      return true;
  return false;
}
} // namespace

unsigned gcsafety::insertLoopPolls(Function &F) {
  unsigned Inserted = 0;
  bool Restart = true;
  while (Restart) {
    Restart = false;
    LoopInfo LI(F);
    std::vector<DynBitset> Dom = computeDominators(F);
    for (const Loop &L : LI.loops()) {
      // A loop has a *guaranteed* gc-point if some block containing one
      // dominates every latch: every trip around the loop passes it.
      bool Guaranteed = false;
      L.Blocks.forEach([&](size_t B) {
        if (Guaranteed || !blockHasGcPoint(*F.Blocks[B]))
          return;
        bool DominatesAll = true;
        for (unsigned Latch : L.Latches)
          if (!Dom[Latch].test(B))
            DominatesAll = false;
        if (DominatesAll)
          Guaranteed = true;
      });
      if (Guaranteed)
        continue;
      // The header executes on every iteration; poll there.
      Instr Poll;
      Poll.Op = Opcode::GcPoll;
      BasicBlock &Header = *F.Blocks[L.Header];
      Header.Instrs.insert(Header.Instrs.begin(), Poll);
      ++Inserted;
      Restart = true; // Loop info indices may shift; recompute.
      break;
    }
  }
  return Inserted;
}

//===----------------------------------------------------------------------===//
// Write barriers (generational mode)
//===----------------------------------------------------------------------===//

unsigned gcsafety::insertWriteBarriers(Function &F) {
  unsigned Inserted = 0;
  for (const auto &BB : F.Blocks) {
    for (size_t I = 0; I != BB->Instrs.size(); ++I) {
      const Instr &Ins = BB->Instrs[I];
      if (Ins.Op != Opcode::Store)
        continue;
      // Only stores that can create a heap→heap edge need a barrier: the
      // stored value must be a tidy pointer and the address must possibly
      // point into the heap.  Frame/global stores are collector roots.
      if (!Ins.B.isReg() || F.kindOf(Ins.B.R) != PtrKind::Tidy)
        continue;
      PtrKind AK = Ins.A.isReg() ? F.kindOf(Ins.A.R) : PtrKind::NonPtr;
      if (AK != PtrKind::Tidy && AK != PtrKind::Derived &&
          AK != PtrKind::IncomingAddr)
        continue;
      BB->Instrs.insert(BB->Instrs.begin() + I + 1,
                        Instr::writeBarrier(Ins.A.R, Ins.Disp));
      ++Inserted;
      ++I; // Skip the barrier just inserted.
    }
  }
  return Inserted;
}

//===----------------------------------------------------------------------===//
// Path variables (§4)
//===----------------------------------------------------------------------===//

GcSafetyInfo gcsafety::assignPathVariables(Function &F) {
  GcSafetyInfo Info;

  DerivationAnalysis DA(F);
  const std::vector<VReg> &Derived = DA.derivedVRegs();
  if (Derived.empty())
    return Info;

  // Derived vregs whose state is ambiguous at some gc-point, in program
  // order (and ascending vreg order at one point).  Ambiguity is rare, so
  // liveness is computed only when some candidate exists.
  struct Candidate {
    unsigned Block, Index;
    VReg R;
  };
  std::vector<Candidate> Cands;
  DerivationAnalysis::Row State;
  for (const auto &BB : F.Blocks) {
    DA.loadBlockIn(BB->Id, State);
    for (unsigned I = 0; I != BB->Instrs.size(); ++I) {
      const Instr &Ins = BB->Instrs[I];
      if (Ins.isGcPoint())
        for (size_t D = 0; D != State.size(); ++D)
          if (DA.isAmbiguous(State[D]))
            Cands.push_back({BB->Id, I, Derived[D]});
      DA.transfer(Ins, State);
    }
  }
  if (Cands.empty())
    return Info;

  // The needy ones: live at that gc-point.
  ExtraUses Extra = DA.computeExtraUses();
  Liveness LV(F, &Extra);
  std::vector<VReg> Needy;
  for (const Candidate &C : Cands)
    if (LV.liveBefore(C.Block, C.Index).test(static_cast<size_t>(C.R)) &&
        std::find(Needy.begin(), Needy.end(), C.R) == Needy.end())
      Needy.push_back(C.R);

  if (Needy.empty())
    return Info;

  // Gather every definition of each needy vreg, with the derivation state
  // it produces and the vreg it was derived/copied from.
  struct DefSite {
    unsigned Block;
    unsigned Index;
    DerivState Post;
    VReg Source = NoVReg; ///< Operand A when it is a vreg.
  };
  std::map<VReg, std::vector<DefSite>> Defs;
  for (const auto &BB : F.Blocks) {
    DA.loadBlockIn(BB->Id, State);
    for (unsigned I = 0; I != BB->Instrs.size(); ++I) {
      const Instr &Ins = BB->Instrs[I];
      DA.transfer(Ins, State);
      if (Ins.Dst == NoVReg || DA.derivedIndex(Ins.Dst) < 0)
        continue;
      DefSite D;
      D.Block = BB->Id;
      D.Index = I;
      D.Post = DA.materialize(DA.stateOf(State, Ins.Dst));
      if (Ins.A.isReg())
        D.Source = Ins.A.R;
      Defs[Ins.Dst].push_back(std::move(D));
    }
  }

  // Transitive closure: a needy vreg whose ambiguity is inherited from a
  // source vreg needs that source's path variable, even when the source
  // itself is never live at a gc-point (e.g. the hoisted merge value a
  // strength-reduced pointer was based on).
  for (size_t K = 0; K != Needy.size(); ++K)
    for (const DefSite &D : Defs[Needy[K]])
      if (D.Post.K == DerivState::Kind::Ambiguous && D.Source != NoVReg &&
          D.Source != Needy[K] &&
          F.kindOf(D.Source) == PtrKind::Derived &&
          std::find(Needy.begin(), Needy.end(), D.Source) == Needy.end())
        Needy.push_back(D.Source);

  // Resolve each needy vreg.  A vreg whose every definition yields a
  // *single* derivation gets its own path variable: a fresh slot assigned
  // a distinct constant after each definition.  A vreg whose definitions
  // inherit an ambiguous state from another vreg (e.g. a strength-reduced
  // pointer based on an ambiguous merge) *shares* that vreg's path
  /// variable: the same runtime constant discriminates both.
  bool Progress = true;
  while (Progress) {
    Progress = false;
    for (VReg R : Needy) {
      if (Info.PathVars.count(R))
        continue;
      auto &DS = Defs[R];
      bool AllSingle = true;
      for (const DefSite &D : DS)
        if (D.Post.K != DerivState::Kind::Single)
          AllSingle = false;

      if (AllSingle) {
        PathVarInfo PV;
        SlotInfo SI;
        SI.Name = "pathvar." + std::to_string(R);
        SI.SizeWords = 1;
        PV.Slot = F.newSlot(std::move(SI));
        for (const DefSite &D : DS) {
          int32_t Value = static_cast<int32_t>(PV.Values.size());
          PV.Values.emplace_back(D.Post.D, Value);
        }
        Info.PathVars[R] = std::move(PV);
        Progress = true;
        continue;
      }

      // Try to inherit from a source vreg that is already resolved and
      // whose value mapping covers every alternative of every definition.
      VReg Donor = NoVReg;
      for (const DefSite &D : DS)
        if (D.Source != NoVReg && D.Source != R &&
            Info.PathVars.count(D.Source))
          Donor = D.Source;
      if (Donor == NoVReg)
        continue;
      const PathVarInfo &DonorPV = Info.PathVars[Donor];
      auto Covered = [&](const Derivation &D) {
        for (const auto &[Known, Value] : DonorPV.Values)
          if (Known == D)
            return true;
        return false;
      };
      bool Ok = true;
      for (const DefSite &D : DS) {
        if (D.Post.K == DerivState::Kind::Single)
          Ok &= Covered(D.Post.D);
        else
          for (const Derivation &Alt : D.Post.Alts)
            Ok &= Covered(Alt);
      }
      if (!Ok)
        continue;
      Info.PathVars[R] = DonorPV; // Shared slot and value mapping.
      Progress = true;
    }
  }

  for (VReg R : Needy)
    assert(Info.PathVars.count(R) &&
           "unresolvable ambiguous derivation (no path variable strategy)");

  // Insert `StoreSlot pathSlot, #k` after every all-single definition site
  // (inherited path variables need no stores: the donor's constant already
  // discriminates).
  std::map<unsigned, std::vector<std::pair<unsigned, Instr>>> InsertionsByBB;
  for (VReg R : Needy) {
    auto &DS = Defs[R];
    bool AllSingle = true;
    for (const DefSite &D : DS)
      if (D.Post.K != DerivState::Kind::Single)
        AllSingle = false;
    if (!AllSingle)
      continue;
    const PathVarInfo &PV = Info.PathVars[R];
    for (size_t K = 0; K != DS.size(); ++K)
      InsertionsByBB[DS[K].Block].emplace_back(
          DS[K].Index + 1,
          Instr::storeSlot(PV.Slot,
                           Operand::imm(PV.Values[K].second)));
  }
  for (auto &[BBId, Insertions] : InsertionsByBB) {
    std::sort(Insertions.begin(), Insertions.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
    BasicBlock &BB = *F.Blocks[BBId];
    for (size_t K = Insertions.size(); K-- > 0;) {
      BB.Instrs.insert(BB.Instrs.begin() + Insertions[K].first,
                       Insertions[K].second);
      ++Info.PathAssignsInserted;
    }
  }
  return Info;
}
