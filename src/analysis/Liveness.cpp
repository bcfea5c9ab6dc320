//===- analysis/Liveness.cpp ----------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"

#include <cassert>

using namespace mgc;
using namespace mgc::analysis;
using namespace mgc::ir;

Liveness::Liveness(const Function &F, const ExtraUses *Extra)
    : F(F), Extra(Extra) {
  size_t NumBlocks = F.Blocks.size();
  size_t NumVRegs = F.VRegs.size();
  LiveOut.assign(NumBlocks, DynBitset(NumVRegs));

  // Block summaries: running the block's transfer backward over the empty
  // set yields Gen; Kill collects the definitions.  LiveIn starts at Gen.
  LiveIn.assign(NumBlocks, DynBitset(NumVRegs));
  std::vector<DynBitset> Kill(NumBlocks, DynBitset(NumVRegs));
  for (size_t B = 0; B != NumBlocks; ++B) {
    const BasicBlock &BB = *F.Blocks[B];
    assert((!Extra || Extra->Ranges.empty() ||
            Extra->Ranges[B].size() == BB.Instrs.size()) &&
           "extra uses out of step with the instructions");
    for (size_t I = BB.Instrs.size(); I-- > 0;) {
      if (BB.Instrs[I].Dst != NoVReg)
        Kill[B].set(static_cast<size_t>(BB.Instrs[I].Dst));
      stepBack(static_cast<unsigned>(B), static_cast<unsigned>(I),
               LiveIn[B]);
    }
  }

  // Iterate to a fixpoint, processing blocks in reverse order (a decent
  // approximation of post-order for our forward-generated CFGs).  Sets
  // only grow, so Out accumulates successor In sets in place.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t B = NumBlocks; B-- > 0;) {
      F.Blocks[B]->forEachSuccessor(
          [&](unsigned Succ) { LiveOut[B].unionWith(LiveIn[Succ]); });
      Changed |= LiveIn[B].unionWithDiff(LiveOut[B], Kill[B]);
    }
  }
}

DynBitset Liveness::liveBefore(unsigned Block, unsigned Index) const {
  const BasicBlock &BB = *F.Blocks[Block];
  DynBitset Live = LiveOut[Block];
  for (size_t I = BB.Instrs.size(); I-- > Index;)
    stepBack(Block, static_cast<unsigned>(I), Live);
  return Live;
}
