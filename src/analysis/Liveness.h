//===- analysis/Liveness.h - Virtual register liveness ----------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backward liveness over virtual registers.  The analysis optionally
/// applies the paper's *dead base* rule (§4): every use of a derived value
/// is also treated as a use of each of its base values, which forces base
/// lifetimes to cover the lifetimes of values derived from them.  The
/// extra uses are supplied by the derivation analysis.
///
/// Each block is summarized once as Gen (vregs used before any definition
/// in the block, extra uses included) and Kill (vregs the block defines);
/// the fixpoint then runs on bitsets only, In = Gen | (Out & ~Kill).
///
//===----------------------------------------------------------------------===//

#ifndef MGC_ANALYSIS_LIVENESS_H
#define MGC_ANALYSIS_LIVENESS_H

#include "ir/IR.h"
#include "support/DynBitset.h"

#include <cstdint>
#include <span>
#include <vector>

namespace mgc {
namespace analysis {

/// Extra uses attached to specific instructions: when instruction Index of
/// block Block executes, the listed vregs are considered used as well.
/// Stored flat: per block, one range into a shared pool per instruction,
/// parallel to BasicBlock::Instrs.  A function without derived values has
/// no ranges at all.
class ExtraUses {
public:
  struct Range {
    uint32_t Begin = 0, End = 0;
  };

  /// The extra uses of instruction \p Index of \p Block.
  std::span<const ir::VReg> at(unsigned Block, unsigned Index) const {
    if (Ranges.empty())
      return {};
    const Range &R = Ranges[Block][Index];
    return {Pool.data() + R.Begin, R.End - R.Begin};
  }

  bool empty() const { return Pool.empty(); }

  /// Drops the entries of the instructions of \p Block marked in \p Marked;
  /// callers erase the instructions themselves in lockstep so the ranges
  /// stay parallel to Instrs.
  void eraseMarked(unsigned Block, const std::vector<char> &Marked) {
    if (Ranges.empty())
      return;
    std::vector<Range> &R = Ranges[Block];
    size_t Out = 0;
    for (size_t I = 0; I != R.size(); ++I)
      if (!Marked[I])
        R[Out++] = R[I];
    R.resize(Out);
  }

  /// Per block, parallel to Instrs (or empty: no extra uses anywhere).
  std::vector<std::vector<Range>> Ranges;
  std::vector<ir::VReg> Pool;
};

class Liveness {
public:
  /// Computes liveness for \p F.  \p Extra may be null; when given it must
  /// outlive this object.
  Liveness(const ir::Function &F, const ExtraUses *Extra = nullptr);

  const DynBitset &liveIn(unsigned Block) const { return LiveIn[Block]; }
  const DynBitset &liveOut(unsigned Block) const { return LiveOut[Block]; }

  /// The set of vregs live immediately *before* instruction \p Index of
  /// \p Block executes — for a call gc-point this includes the call's own
  /// arguments, which is exactly the "live at the gc-point" set the tables
  /// must describe (an active call's argument slots are still read by the
  /// callee).  Walks the block from its end; clients that need the set at
  /// many points of one block walk it once with stepBack instead.
  DynBitset liveBefore(unsigned Block, unsigned Index) const;

  /// Updates \p Live from the set live just after instruction \p Index of
  /// \p Block to the set live just before it.  Allocates nothing.
  void stepBack(unsigned Block, unsigned Index, DynBitset &Live) const {
    const ir::Instr &I = F.Blocks[Block]->Instrs[Index];
    if (I.Dst != ir::NoVReg)
      Live.reset(static_cast<size_t>(I.Dst));
    I.forEachUse([&](ir::VReg R) { Live.set(static_cast<size_t>(R)); });
    if (Extra)
      for (ir::VReg R : Extra->at(Block, Index))
        Live.set(static_cast<size_t>(R));
  }

  /// Visits instructions of \p Block backwards; \p Visit(Index, LiveAfter)
  /// sees the set live just after each instruction.
  template <typename Fn> void visitBlock(unsigned Block, Fn &&Visit) const {
    DynBitset Live = LiveOut[Block];
    for (size_t I = F.Blocks[Block]->Instrs.size(); I-- > 0;) {
      Visit(static_cast<unsigned>(I), static_cast<const DynBitset &>(Live));
      stepBack(Block, static_cast<unsigned>(I), Live);
    }
  }

private:
  const ir::Function &F;
  const ExtraUses *Extra;
  std::vector<DynBitset> LiveIn, LiveOut;
};

} // namespace analysis
} // namespace mgc

#endif // MGC_ANALYSIS_LIVENESS_H
