//===- analysis/Derivations.h - Derived-value dataflow ----------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Forward dataflow computing, at every program point, how each live
/// derived value was derived: a signed multiset of *non-derived* base vregs
/// (Tidy heap pointers, IncomingAddr VAR parameters, or FrameAddr values)
/// plus an implicit pointer-free remainder E, exactly the model of §3:
///
///     a  =  Σ pi  −  Σ qj  +  E
///
/// Chained derivations collapse onto their ultimate bases (so the strength
/// reduction self-update `p := p + 4` keeps base A), and DeriveDiff unions
/// negated bases (double indexing yields {+B, −A}).  When different
/// derivations of the same vreg merge at a join point the state becomes
/// Ambiguous, listing every alternative — the trigger for the paper's path
/// variables or path splitting (§4).
///
/// States are interned per analysis: each distinct sorted list of
/// alternative derivations gets a StateId, and a program point's state is
/// a dense Row of StateIds, one per derived vreg.  Joins and DeriveDiff
/// combinations are id operations, memoized on id pairs.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_ANALYSIS_DERIVATIONS_H
#define MGC_ANALYSIS_DERIVATIONS_H

#include "analysis/Liveness.h"
#include "ir/IR.h"

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace mgc {
namespace analysis {

/// A signed multiset of base vregs.  Coefficients are small integers
/// (almost always ±1); entries are sorted by vreg and never zero.
struct Derivation {
  std::vector<std::pair<ir::VReg, int>> Bases;

  void add(ir::VReg R, int Coeff);
  void addAll(const Derivation &O, int Sign);
  bool operator==(const Derivation &O) const { return Bases == O.Bases; }
  bool operator<(const Derivation &O) const { return Bases < O.Bases; }
  std::string str() const;
};

/// The abstract state of one derived vreg at a program point, materialized
/// from its StateId.
struct DerivState {
  enum class Kind {
    Unknown,   ///< Not yet defined on this path.
    Single,    ///< One derivation reaches.
    Ambiguous, ///< Multiple distinct derivations reach (§4).
  };
  Kind K = Kind::Unknown;
  Derivation D;                 ///< Single.
  std::vector<Derivation> Alts; ///< Ambiguous (sorted, deduplicated).

  bool operator==(const DerivState &O) const {
    return K == O.K && D == O.D && Alts == O.Alts;
  }

  /// All base vregs across all alternatives.
  std::vector<ir::VReg> baseVRegs() const;
};

/// Per-vreg derivation states, listing the derived vregs whose state is
/// known.  A materialized view for tests and diagnostics.
using DerivMap = std::map<ir::VReg, DerivState>;

/// An interned derivation state: 0 is Unknown, any other id names a sorted,
/// deduplicated list of alternative derivations (one entry: Single).
using StateId = uint32_t;
constexpr StateId UnknownState = 0;

class DerivationAnalysis {
public:
  explicit DerivationAnalysis(const ir::Function &F);

  /// The state at one program point: a StateId per derived vreg, indexed
  /// by derivedIndex().
  using Row = std::vector<StateId>;

  /// Dense index of derived vreg \p R, or -1 when \p R is not derived.
  int derivedIndex(ir::VReg R) const { return DerivedIdx[R]; }
  /// The derived vregs in ascending order (Row positions).
  const std::vector<ir::VReg> &derivedVRegs() const { return Derived; }

  /// Loads the state at the entry of \p Block into \p Out.
  void loadBlockIn(unsigned Block, Row &Out) const {
    Out.assign(In.begin() + Block * Derived.size(),
               In.begin() + (Block + 1) * Derived.size());
  }
  /// State of derived vreg \p R in \p S.
  StateId stateOf(const Row &S, ir::VReg R) const {
    return S[static_cast<size_t>(DerivedIdx[R])];
  }

  /// Applies one instruction's effect to \p S (for clients walking a block
  /// forward from loadBlockIn).
  void transfer(const ir::Instr &I, Row &S) const;

  bool isAmbiguous(StateId Id) const { return alternatives(Id).size() > 1; }
  /// The alternatives of state \p Id, sorted; empty for Unknown, a single
  /// one for a Single state.
  std::span<const Derivation> alternatives(StateId Id) const {
    const std::vector<Derivation> &Alts = Tables.States[Id].Alts;
    return {Alts.data(), Alts.size()};
  }
  /// All base vregs across all alternatives of \p Id, ascending.
  const std::vector<ir::VReg> &baseVRegs(StateId Id) const {
    return Tables.States[Id].Bases;
  }
  DerivState materialize(StateId Id) const;

  /// Materialized views (tests, diagnostics).
  DerivMap blockIn(unsigned Block) const;
  DerivMap stateBefore(unsigned Block, unsigned Index) const;

  /// The extra uses for Liveness implementing the dead-base rule: any
  /// instruction using a derived vreg also uses that vreg's bases (as
  /// derived at that point).  Empty for a function without derived vregs.
  ExtraUses computeExtraUses() const;

private:
  struct InternedState {
    std::vector<Derivation> Alts; ///< Sorted, deduplicated.
    std::vector<ir::VReg> Bases;  ///< Union of the alternatives' bases.
  };
  /// The interning tables.  Mutable: walking an unreachable block after
  /// the fixpoint can still meet new states.
  struct InternTables {
    std::vector<InternedState> States; ///< [0] is Unknown.
    std::map<std::vector<Derivation>, StateId> Ids;
    /// Per vreg + 1: its state as a plain operand (slot 0: immediates and
    /// non-pointers, the E-only state).
    std::vector<StateId> Leaf;
    std::unordered_map<uint64_t, StateId> JoinMemo, DiffMemo;
  };

  StateId intern(std::vector<Derivation> Alts) const;
  StateId operandState(const ir::Operand &O, const Row &S) const;
  StateId join(StateId A, StateId B) const;
  StateId diff(StateId A, StateId B) const;
  DerivMap toMap(const Row &S) const;

  const ir::Function &F;
  std::vector<int> DerivedIdx;  ///< Per vreg.
  std::vector<ir::VReg> Derived;
  std::vector<StateId> In;      ///< Block-major rows.
  mutable InternTables Tables;
};

} // namespace analysis
} // namespace mgc

#endif // MGC_ANALYSIS_DERIVATIONS_H
