//===- vm/Threaded.cpp - Load-time translation + computed-goto tier -------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
//
// Two halves:
//
//  1. decodeProgram(): the load-time translator.  One MInstr becomes one
//     DInstr at the same index (the PC mapping across tiers is the
//     identity).  Operands are resolved to base/index pairs, immediates
//     are interned into a constant pool, and the per-instruction
//     funcOfPC() binary searches of Call/Ret are folded into the record.
//
//  2. VM::exec<Threaded>(): the one executor, instantiated for both
//     dispatch tiers.  Each opcode's body is written once and opens with
//     both of its entry points, `case MOp::X: L_X:`.  The threaded tier
//     dispatches with `goto *I->Handler` over a DInstr* iterator —
//     advancing is `++I`, so the next handler address is computable the
//     moment a body starts and the dispatch load mostly hides behind it.
//     The switch tier goes back round a `switch (I->Op)` loop.  The
//     canonical PC is materialized (I - Code) only at sync points.  The
//     quantum budget and the retired-instruction count live in locals
//     synced back to ThreadContext/VMStats at every point the GC
//     machinery (or an error path) can observe them — before
//     allocate()/collect(), on every fail, and at quantum end.  VM::step
//     is a one-instruction quantum of the switch instantiation.
//
//     For the threaded tier only, installHandlers() selects *specialized*
//     variants per instruction where the operand pattern allows it
//     (all-direct moves/compares/arithmetic, one-sided memory moves,
//     direct branch conditions), eliminating the per-operand memory-form
//     tests from the hottest paths.  A variant computes exactly what the
//     generic body would, including the shared quirks (a failing memory
//     read yields 0 and execution continues to the instruction's remaining
//     effects; a Branch error is acted on one instruction late), so the
//     two tiers stay bit-identical on every observable, not just on the
//     happy path.
//
//===----------------------------------------------------------------------===//

#include "vm/VM.h"

#include "obs/Profile.h"

#include <cassert>
#include <unordered_map>

using namespace mgc;
using namespace mgc::vm;

//===----------------------------------------------------------------------===//
// Load-time translation
//===----------------------------------------------------------------------===//

DecodedProgram vm::decodeProgram(const Program &P) {
  DecodedProgram D;
  D.ConstPool.push_back(0); // Slot 0: the value None operands resolve to.
  std::unordered_map<Word, int32_t> Interned;
  Interned.emplace(0, 0);
  auto PoolOf = [&](int64_t Imm) {
    Word W = static_cast<Word>(Imm);
    auto [It, New] =
        Interned.try_emplace(W, static_cast<int32_t>(D.ConstPool.size()));
    if (New)
      D.ConstPool.push_back(W);
    return It->second;
  };
  auto Conv = [&](const MOperand &O) {
    DOperand R;
    switch (O.K) {
    case MOperand::Kind::None:
      break; // Const pool slot 0; never meaningfully accessed.
    case MOperand::Kind::Reg:
      R.Base = DBaseReg;
      R.Index = O.Reg;
      break;
    case MOperand::Kind::Slot:
      R.Base = DBaseFP;
      R.Index = O.Index;
      break;
    case MOperand::Kind::ASlot:
      R.Base = DBaseAP;
      R.Index = O.Index;
      break;
    case MOperand::Kind::Global:
      R.Base = DBaseGlobal;
      R.Index = O.Index;
      break;
    case MOperand::Kind::Imm:
      R.Base = DBaseConst;
      R.Index = PoolOf(O.Imm);
      break;
    case MOperand::Kind::MemReg:
      R.Base = DBaseReg;
      R.Index = O.Reg;
      R.Mem = true;
      R.Disp = O.Disp;
      break;
    case MOperand::Kind::MemSlot:
      R.Base = DBaseFP;
      R.Index = O.Index;
      R.Mem = true;
      R.Disp = O.Disp;
      break;
    case MOperand::Kind::MemASlot:
      R.Base = DBaseAP;
      R.Index = O.Index;
      R.Mem = true;
      R.Disp = O.Disp;
      break;
    }
    return R;
  };

  D.Code.reserve(P.Code.size());
  for (uint32_t PC = 0; PC != P.Code.size(); ++PC) {
    const MInstr &I = P.Code[PC];
    DInstr T;
    T.Op = I.Op;
    T.Index = I.Index;
    T.Target0 = I.Target0;
    T.Target1 = I.Target1;
    T.Site = I.Site;
    T.ArgBase = I.ArgBase;
    T.IsGcPoint = I.isGcPoint();
    T.D = Conv(I.D);
    T.A = Conv(I.A);
    T.B = Conv(I.B);
    // The destination of a value-producing op must be writable; the
    // translator enforces what the reference interpreter asserted.
    assert((T.D.Base != DBaseConst || I.D.K == MOperand::Kind::None) &&
           "write to an immediate operand");
    switch (I.Op) {
    case MOp::Call:
      T.CallerFrameWords = P.Funcs[P.funcOfPC(PC)].FrameWords;
      break;
    case MOp::Ret:
      T.FuncIdx = P.funcOfPC(PC);
      break;
    case MOp::AddrSlot:
    case MOp::AddrGlobal:
      // The byte displacement rides in A.Imm regardless of A's kind.
      T.AuxImm = I.A.Imm;
      break;
    case MOp::WriteBarrier:
      T.AuxImm = I.B.Imm;
      break;
    default:
      break;
    }
    D.Code.push_back(T);
  }
  return D;
}

//===----------------------------------------------------------------------===//
// Handler selection
//===----------------------------------------------------------------------===//

namespace {

/// Indices of the specialized handler variants that follow the generic
/// (MOp-ordered) entries in the executor's label table.  A specialized
/// handler computes exactly what its generic body would, minus the
/// operand-form tests the translation already answered.
enum SpecializedHandler : size_t {
  SMovDirect = static_cast<size_t>(MOp::Trap) + 1, ///< Mov, no mem operand.
  SMovLoad,  ///< Mov, memory source, direct destination.
  SMovStore, ///< Mov, direct source, memory destination.
  SAddDirect,
  SSubDirect,
  SCmpEqDirect,
  SCmpNeDirect,
  SCmpLtDirect,
  SCmpLeDirect,
  SCmpGtDirect,
  SCmpGeDirect,
  SBranchDirect, ///< Branch with a direct condition operand.
  SNumHandlers
};

} // namespace

void VM::installHandlers() {
  if (Opts.Dispatch != DispatchTier::Threaded)
    return;
  const void *const *Labels = nullptr;
  exec<true>(nullptr, 0, &Labels);
  for (DInstr &I : DProg.Code) {
    size_t H = static_cast<size_t>(I.Op);
    bool Direct3 = !I.D.Mem && !I.A.Mem && !I.B.Mem;
    switch (I.Op) {
    case MOp::Mov:
      if (!I.D.Mem && !I.A.Mem)
        H = SMovDirect;
      else if (!I.D.Mem)
        H = SMovLoad;
      else if (!I.A.Mem)
        H = SMovStore;
      break;
    case MOp::Add:
      if (Direct3)
        H = SAddDirect;
      break;
    case MOp::Sub:
      if (Direct3)
        H = SSubDirect;
      break;
    case MOp::CmpEq:
      if (Direct3)
        H = SCmpEqDirect;
      break;
    case MOp::CmpNe:
      if (Direct3)
        H = SCmpNeDirect;
      break;
    case MOp::CmpLt:
      if (Direct3)
        H = SCmpLtDirect;
      break;
    case MOp::CmpLe:
      if (Direct3)
        H = SCmpLeDirect;
      break;
    case MOp::CmpGt:
      if (Direct3)
        H = SCmpGtDirect;
      break;
    case MOp::CmpGe:
      if (Direct3)
        H = SCmpGeDirect;
      break;
    case MOp::Branch:
      if (!I.A.Mem)
        H = SBranchDirect;
      break;
    default:
      break;
    }
    I.Handler = Labels[H];
  }
}

//===----------------------------------------------------------------------===//
// The executor
//===----------------------------------------------------------------------===//

template <bool Threaded>
bool VM::exec(ThreadContext *TP, uint64_t Max,
              const void *const **LabelsOut) {
  // Handler table: the first 26 entries are in MOp declaration order
  // (codegen/Machine.h); the rest are the specialized variants, in
  // SpecializedHandler order.  Only the threaded tier dispatches through
  // it, but both instantiations define it, so every label is referenced.
  static const void *const Labels[] = {
      &&L_Mov,        &&L_Add,          &&L_Sub,       &&L_Mul,
      &&L_Div,        &&L_Mod,          &&L_Neg,       &&L_Not,
      &&L_CmpEq,      &&L_CmpNe,        &&L_CmpLt,     &&L_CmpLe,
      &&L_CmpGt,      &&L_CmpGe,        &&L_AddrSlot,  &&L_AddrGlobal,
      &&L_NewObj,     &&L_NewArr,       &&L_Call,      &&L_CallRt,
      &&L_GcPoll,     &&L_WriteBarrier, &&L_Jump,      &&L_Branch,
      &&L_Ret,        &&L_Trap,
      // Specialized variants.
      &&L_MovDirect,  &&L_MovLoad,      &&L_MovStore,  &&L_AddDirect,
      &&L_SubDirect,  &&L_CmpEqDirect,  &&L_CmpNeDirect,
      &&L_CmpLtDirect, &&L_CmpLeDirect, &&L_CmpGtDirect,
      &&L_CmpGeDirect, &&L_BranchDirect,
  };
  static_assert(sizeof(Labels) / sizeof(Labels[0]) == SNumHandlers,
                "handler table out of sync with MOp/SpecializedHandler");
  if (LabelsOut) {
    *LabelsOut = Labels;
    return true;
  }

  ThreadContext &T = *TP;
  if (!T.Live || Max == 0)
    return true;

  const DInstr *const Code = DProg.Code.data();
  const DInstr *I = Code + T.PC; // Canonical PC is (I - Code).
  uint64_t Remaining = Max;      // Quantum budget, counted down per dispatch.
  uint64_t Flushed = 0; // Retired instructions already in Stats.Instrs.
  // The operand base table; FP/AP entries are refreshed by Call/Ret.
  Word *Bases[DNumBases] = {T.R, T.Stack.get() + T.FP,
                            T.Stack.get() + T.AP, Globals.data(),
                            DProg.ConstPool.data()};

// Publish PC and the retired-instruction count: required before anything
// that can observe them (collect() reads Stats.Instrs and walks stacks;
// run() checks the instruction budget after the quantum).  The retired
// count is derived from the budget (Max - Remaining) instead of a second
// per-instruction counter.
#define MGC_SYNC()                                                            \
  do {                                                                        \
    T.PC = static_cast<uint32_t>(I - Code);                                   \
    uint64_t Retired = Max - Remaining;                                       \
    Stats.Instrs += Retired - Flushed;                                        \
    Flushed = Retired;                                                        \
  } while (0)

// Dispatch *I: the threaded tier jumps straight to its handler, the switch
// tier goes back round the loop to `switch (I->Op)`.  The instruction is
// counted as retired *before* its body runs.  Control-transfer bodies set
// I and dispatch; fall-through bodies advance via MGC_FALL.  (A plain
// block, not do-while(0): `continue` must reach the dispatch loop.)
#define MGC_DISPATCH()                                                        \
  {                                                                           \
    if (Remaining == 0) {                                                     \
      MGC_SYNC();                                                             \
      return true;                                                            \
    }                                                                         \
    --Remaining;                                                              \
    if constexpr (Threaded)                                                   \
      goto *I->Handler;                                                       \
    else                                                                      \
      continue;                                                               \
  }

// End of a fall-through instruction: act on a pending error (set by this
// instruction, or left behind by a preceding Branch whose condition read
// failed), else advance.  Jump/Branch/Call/Ret bypass this, so a Branch
// error is acted on one instruction late — a quirk both tiers share
// because they share this code.
#define MGC_FALL()                                                            \
  {                                                                           \
    if (__builtin_expect(!Error.empty(), 0)) {                                \
      MGC_SYNC();                                                             \
      return false;                                                           \
    }                                                                         \
    ++I;                                                                      \
    MGC_DISPATCH();                                                           \
  }

#define MGC_FAIL(Msg)                                                         \
  do {                                                                        \
    MGC_SYNC();                                                               \
    fail(Msg);                                                                \
    return false;                                                             \
  } while (0)

  // The first dispatch; Max > 0, so there is budget for it.
  --Remaining;
  if constexpr (Threaded)
    goto *I->Handler;

  for (;;) {
    switch (I->Op) {
    case MOp::Mov:
    L_Mov:
      writeD(I->D, Bases, readD(I->A, Bases));
      MGC_FALL();

    case MOp::Add:
    L_Add: {
      Word A = readD(I->A, Bases), B = readD(I->B, Bases);
      writeD(I->D, Bases, A + B);
      MGC_FALL();
    }

    case MOp::Sub:
    L_Sub: {
      Word A = readD(I->A, Bases), B = readD(I->B, Bases);
      writeD(I->D, Bases, A - B);
      MGC_FALL();
    }

    case MOp::Mul:
    L_Mul: {
      Word A = readD(I->A, Bases), B = readD(I->B, Bases);
      writeD(I->D, Bases,
             static_cast<Word>(static_cast<int64_t>(A) *
                               static_cast<int64_t>(B)));
      MGC_FALL();
    }

    case MOp::Div:
    L_Div: {
      int64_t B = static_cast<int64_t>(readD(I->B, Bases));
      if (B == 0)
        MGC_FAIL("integer division by zero");
      writeD(I->D, Bases,
             static_cast<Word>(static_cast<int64_t>(readD(I->A, Bases)) / B));
      MGC_FALL();
    }

    case MOp::Mod:
    L_Mod: {
      int64_t B = static_cast<int64_t>(readD(I->B, Bases));
      if (B == 0)
        MGC_FAIL("integer modulus by zero");
      writeD(I->D, Bases,
             static_cast<Word>(static_cast<int64_t>(readD(I->A, Bases)) % B));
      MGC_FALL();
    }

    case MOp::Neg:
    L_Neg:
      writeD(I->D, Bases,
             static_cast<Word>(-static_cast<int64_t>(readD(I->A, Bases))));
      MGC_FALL();

    case MOp::Not:
    L_Not:
      writeD(I->D, Bases, readD(I->A, Bases) == 0 ? 1 : 0);
      MGC_FALL();

    case MOp::CmpEq:
    L_CmpEq: {
      Word A = readD(I->A, Bases), B = readD(I->B, Bases);
      writeD(I->D, Bases, A == B ? 1 : 0);
      MGC_FALL();
    }

    case MOp::CmpNe:
    L_CmpNe: {
      Word A = readD(I->A, Bases), B = readD(I->B, Bases);
      writeD(I->D, Bases, A != B ? 1 : 0);
      MGC_FALL();
    }

    case MOp::CmpLt:
    L_CmpLt: {
      Word A = readD(I->A, Bases), B = readD(I->B, Bases);
      writeD(I->D, Bases,
             static_cast<int64_t>(A) < static_cast<int64_t>(B) ? 1 : 0);
      MGC_FALL();
    }

    case MOp::CmpLe:
    L_CmpLe: {
      Word A = readD(I->A, Bases), B = readD(I->B, Bases);
      writeD(I->D, Bases,
             static_cast<int64_t>(A) <= static_cast<int64_t>(B) ? 1 : 0);
      MGC_FALL();
    }

    case MOp::CmpGt:
    L_CmpGt: {
      Word A = readD(I->A, Bases), B = readD(I->B, Bases);
      writeD(I->D, Bases,
             static_cast<int64_t>(A) > static_cast<int64_t>(B) ? 1 : 0);
      MGC_FALL();
    }

    case MOp::CmpGe:
    L_CmpGe: {
      Word A = readD(I->A, Bases), B = readD(I->B, Bases);
      writeD(I->D, Bases,
             static_cast<int64_t>(A) >= static_cast<int64_t>(B) ? 1 : 0);
      MGC_FALL();
    }

    case MOp::AddrSlot:
    L_AddrSlot:
      writeD(I->D, Bases,
             reinterpret_cast<Word>(&T.Stack[T.FP + I->Index]) +
                 static_cast<Word>(I->AuxImm));
      MGC_FALL();

    case MOp::AddrGlobal:
    L_AddrGlobal:
      writeD(I->D, Bases,
             reinterpret_cast<Word>(&Globals[static_cast<size_t>(I->Index)]) +
                 static_cast<Word>(I->AuxImm));
      MGC_FALL();

    case MOp::NewObj:
    case MOp::NewArr:
    L_NewObj:
    L_NewArr: {
      int64_t Len =
          I->Op == MOp::NewArr ? static_cast<int64_t>(readD(I->A, Bases)) : 0;
      if (I->Op == MOp::NewArr && Len < 0)
        MGC_FAIL("negative open array length");
      CurAllocSite = I->Site;
      MGC_SYNC(); // allocate() can collect: PC and Instrs must be current.
      Word Obj = allocate(static_cast<unsigned>(I->Index), Len, T.PC + 1);
      CurAllocSite = NoAllocSite;
      if (Obj == 0)
        return false;
      writeD(I->D, Bases, Obj);
      MGC_FALL();
    }

    case MOp::Call:
    L_Call: {
      if (__builtin_expect(Profiler != nullptr, 0)) {
        MGC_SYNC(); // The due-check and sample read Stats.Instrs and T.PC.
        Profiler->onCall(*this, T, I->IsGcPoint, T.PC + 1);
      }
      const CompiledFunction &Callee =
          Prog.Funcs[static_cast<size_t>(I->Index)];
      uint32_t CtlBase = T.FP + I->CallerFrameWords;
      uint32_t NewFP = CtlBase + CtlWords;
      if (NewFP + Callee.FrameWords >= T.StackWords)
        MGC_FAIL("stack overflow calling " + Callee.Name);
      T.Stack[CtlBase] = T.AP;
      T.Stack[CtlBase + 1] = T.FP;
      T.Stack[CtlBase + 2] = static_cast<uint32_t>(I - Code) + 1;
      // Prologue: save the callee-saved registers this function uses.
      for (size_t K = 0; K != Callee.SavedRegs.size(); ++K)
        T.Stack[NewFP + K] = T.R[Callee.SavedRegs[K]];
      // Poison the rest of the frame: only table-described state may be
      // touched by the collector.
      for (uint32_t W = NewFP + Callee.SavedRegs.size();
           W != NewFP + Callee.FrameWords; ++W)
        T.Stack[W] = FramePoison;
      T.AP = T.FP + I->ArgBase;
      T.FP = NewFP;
      I = Code + Callee.EntryIndex;
      Bases[DBaseFP] = T.Stack.get() + T.FP;
      Bases[DBaseAP] = T.Stack.get() + T.AP;
      MGC_DISPATCH();
    }

    case MOp::CallRt:
    L_CallRt:
      switch (static_cast<ir::RtFn>(I->Index)) {
      case ir::RtFn::PutInt:
        Out += std::to_string(
            static_cast<int64_t>(T.Stack[T.FP + I->ArgBase]));
        break;
      case ir::RtFn::PutChar:
        Out += static_cast<char>(T.Stack[T.FP + I->ArgBase] & 0xff);
        break;
      case ir::RtFn::PutLn:
        Out += '\n';
        break;
      case ir::RtFn::GcCollect:
        MGC_SYNC();
        if (__builtin_expect(Profiler != nullptr, 0))
          Profiler->onPoint(*this, T, T.PC + 1);
        if (!collect(T.PC + 1))
          return false;
        break;
      case ir::RtFn::Halt:
        T.Finished = true;
        T.Live = false;
        MGC_SYNC();
        return true; // Thread done; not an error.
      case ir::RtFn::ReqDone:
        MGC_SYNC(); // Request hooks read Stats.Instrs and T.PC.
        finishRequest();
        break;
      }
      MGC_FALL();

    case MOp::GcPoll:
    L_GcPoll:
      // A voluntary gc-point; nothing happens unless a collection is in
      // progress, in which case the rendezvous loop stops *before*
      // executing this instruction.
      if (__builtin_expect(Profiler != nullptr, 0)) {
        MGC_SYNC();
        Profiler->onPoint(*this, T, T.PC + 1);
      }
      MGC_FALL();

    case MOp::WriteBarrier:
    L_WriteBarrier:
      // Records [A + disp] in the remembered set when it is an old-space
      // slot now holding a nursery pointer.  A no-op outside generational
      // mode, so barrier-compiled binaries run identically under the
      // default collector.
      if (Opts.GenGc) {
        ++Stats.WriteBarriersRun;
        Word Slot = readD(I->A, Bases) + static_cast<Word>(I->AuxImm);
        if (TheHeap.writeBarrier(Slot))
          ++Stats.RemSetRecords;
      }
      MGC_FALL();

    case MOp::Jump:
    L_Jump:
      I = Code + I->Target0;
      MGC_DISPATCH();

    case MOp::Branch:
    L_Branch:
      // No error check: a failing condition read stops execution only at
      // the next fall-through instruction (see MGC_FALL).
      I = Code + (readD(I->A, Bases) != 0 ? I->Target0 : I->Target1);
      MGC_DISPATCH();

    case MOp::Ret:
    L_Ret: {
      if (__builtin_expect(Profiler != nullptr, 0))
        Profiler->onRet(T);
      const CompiledFunction &F = Prog.Funcs[I->FuncIdx];
      // Epilogue: restore saved registers.
      for (size_t K = 0; K != F.SavedRegs.size(); ++K)
        T.R[F.SavedRegs[K]] = T.Stack[T.FP + K];
      uint32_t RetPC = static_cast<uint32_t>(T.Stack[T.FP - 1]);
      uint32_t OldFP = static_cast<uint32_t>(T.Stack[T.FP - 2]);
      uint32_t OldAP = static_cast<uint32_t>(T.Stack[T.FP - 3]);
      if (RetPC == SentinelRetPC) {
        T.Finished = true;
        T.Live = false;
        MGC_SYNC();
        return true; // Thread done; not an error.
      }
      I = Code + RetPC;
      T.FP = OldFP;
      T.AP = OldAP;
      Bases[DBaseFP] = T.Stack.get() + T.FP;
      Bases[DBaseAP] = T.Stack.get() + T.AP;
      MGC_DISPATCH();
    }

    case MOp::Trap:
    L_Trap: {
      static const char *Reasons[] = {
          "function ended without RETURN", "array index out of bounds",
          "NIL dereference"};
      int R = I->Index;
      MGC_FAIL(std::string("trap: ") +
               (R >= 0 && R < 3 ? Reasons[R] : "unknown"));
    }
    }

    //===--- Specialized variants (threaded tier only) --------------------===
    // No case reaches these; installHandlers() points instructions at them.
    // Each computes exactly what its generic body would for the operand
    // pattern installHandlers() matched; MGC_FALL's error check is kept
    // even where the variant itself cannot fail, because a preceding Branch
    // may have left a pending error.

  L_MovDirect:
    Bases[I->D.Base][I->D.Index] = Bases[I->A.Base][I->A.Index];
    MGC_FALL();

  L_MovLoad:
    Bases[I->D.Base][I->D.Index] =
        load(Bases[I->A.Base][I->A.Index] + static_cast<Word>(I->A.Disp));
    MGC_FALL();

  L_MovStore:
    store(Bases[I->D.Base][I->D.Index] + static_cast<Word>(I->D.Disp),
          Bases[I->A.Base][I->A.Index]);
    MGC_FALL();

  L_AddDirect:
    Bases[I->D.Base][I->D.Index] =
        Bases[I->A.Base][I->A.Index] + Bases[I->B.Base][I->B.Index];
    MGC_FALL();

  L_SubDirect:
    Bases[I->D.Base][I->D.Index] =
        Bases[I->A.Base][I->A.Index] - Bases[I->B.Base][I->B.Index];
    MGC_FALL();

  L_CmpEqDirect:
    Bases[I->D.Base][I->D.Index] =
        Bases[I->A.Base][I->A.Index] == Bases[I->B.Base][I->B.Index] ? 1 : 0;
    MGC_FALL();

  L_CmpNeDirect:
    Bases[I->D.Base][I->D.Index] =
        Bases[I->A.Base][I->A.Index] != Bases[I->B.Base][I->B.Index] ? 1 : 0;
    MGC_FALL();

  L_CmpLtDirect:
    Bases[I->D.Base][I->D.Index] =
        static_cast<int64_t>(Bases[I->A.Base][I->A.Index]) <
                static_cast<int64_t>(Bases[I->B.Base][I->B.Index])
            ? 1
            : 0;
    MGC_FALL();

  L_CmpLeDirect:
    Bases[I->D.Base][I->D.Index] =
        static_cast<int64_t>(Bases[I->A.Base][I->A.Index]) <=
                static_cast<int64_t>(Bases[I->B.Base][I->B.Index])
            ? 1
            : 0;
    MGC_FALL();

  L_CmpGtDirect:
    Bases[I->D.Base][I->D.Index] =
        static_cast<int64_t>(Bases[I->A.Base][I->A.Index]) >
                static_cast<int64_t>(Bases[I->B.Base][I->B.Index])
            ? 1
            : 0;
    MGC_FALL();

  L_CmpGeDirect:
    Bases[I->D.Base][I->D.Index] =
        static_cast<int64_t>(Bases[I->A.Base][I->A.Index]) >=
                static_cast<int64_t>(Bases[I->B.Base][I->B.Index])
            ? 1
            : 0;
    MGC_FALL();

  L_BranchDirect:
    I = Code +
        (Bases[I->A.Base][I->A.Index] != 0 ? I->Target0 : I->Target1);
    MGC_DISPATCH();
  }

#undef MGC_FAIL
#undef MGC_FALL
#undef MGC_DISPATCH
#undef MGC_SYNC
}

template bool VM::exec<false>(ThreadContext *, uint64_t,
                              const void *const **);
template bool VM::exec<true>(ThreadContext *, uint64_t, const void *const **);
