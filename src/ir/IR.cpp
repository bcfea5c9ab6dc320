//===- ir/IR.cpp ----------------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/IR.h"

#include <algorithm>

using namespace mgc;
using namespace mgc::ir;

const char *ir::ptrKindName(PtrKind K) {
  switch (K) {
  case PtrKind::NonPtr: return "i";
  case PtrKind::Tidy: return "t";
  case PtrKind::Derived: return "d";
  case PtrKind::FrameAddr: return "fa";
  case PtrKind::IncomingAddr: return "ia";
  }
  return "?";
}

const char *ir::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Mov: return "mov";
  case Opcode::Add: return "add";
  case Opcode::Sub: return "sub";
  case Opcode::Mul: return "mul";
  case Opcode::Div: return "div";
  case Opcode::Mod: return "mod";
  case Opcode::Neg: return "neg";
  case Opcode::Not: return "not";
  case Opcode::CmpEq: return "cmpeq";
  case Opcode::CmpNe: return "cmpne";
  case Opcode::CmpLt: return "cmplt";
  case Opcode::CmpLe: return "cmple";
  case Opcode::CmpGt: return "cmpgt";
  case Opcode::CmpGe: return "cmpge";
  case Opcode::Load: return "load";
  case Opcode::Store: return "store";
  case Opcode::LoadSlot: return "loadslot";
  case Opcode::StoreSlot: return "storeslot";
  case Opcode::LoadGlobal: return "loadglobal";
  case Opcode::StoreGlobal: return "storeglobal";
  case Opcode::AddrSlot: return "addrslot";
  case Opcode::AddrGlobal: return "addrglobal";
  case Opcode::DeriveAdd: return "deriveadd";
  case Opcode::DeriveSub: return "derivesub";
  case Opcode::DeriveDiff: return "derivediff";
  case Opcode::New: return "new";
  case Opcode::NewArray: return "newarray";
  case Opcode::Call: return "call";
  case Opcode::CallRt: return "callrt";
  case Opcode::GcPoll: return "gcpoll";
  case Opcode::WriteBarrier: return "wrbar";
  case Opcode::Jump: return "jump";
  case Opcode::Branch: return "branch";
  case Opcode::Ret: return "ret";
  case Opcode::Trap: return "trap";
  }
  return "?";
}

void Instr::collectUses(std::vector<VReg> &Uses) const {
  forEachUse([&](VReg R) { Uses.push_back(R); });
}

bool Instr::replaceUses(VReg From, VReg To) {
  bool Changed = false;
  auto Fix = [&](Operand &O) {
    if (O.isReg() && O.R == From) {
      O.R = To;
      Changed = true;
    }
  };
  Fix(A);
  Fix(B);
  for (Operand &O : Args)
    Fix(O);
  return Changed;
}

std::vector<std::vector<unsigned>> Function::predecessors() const {
  std::vector<std::vector<unsigned>> Preds(Blocks.size());
  for (const auto &BB : Blocks)
    BB->forEachSuccessor(
        [&](unsigned Succ) { Preds[Succ].push_back(BB->Id); });
  return Preds;
}

std::vector<unsigned> Function::reversePostOrder() const {
  std::vector<unsigned> PostOrder;
  std::vector<uint8_t> State(Blocks.size(), 0); // 0=unseen 1=open 2=done
  // Iterative DFS to avoid deep recursion on long block chains.
  std::vector<std::pair<unsigned, size_t>> Stack;
  Stack.emplace_back(0, 0);
  State[0] = 1;
  while (!Stack.empty()) {
    unsigned Id = Stack.back().first;
    // The K-th successor, read off the terminator without building a list.
    size_t K = Stack.back().second, N = 0;
    unsigned S = 0;
    Blocks[Id]->forEachSuccessor([&](unsigned Succ) {
      if (N++ == K)
        S = Succ;
    });
    if (K < N) {
      ++Stack.back().second;
      // Note: emplace_back below may invalidate references into Stack, so
      // all reads of the current entry happen before it.
      if (State[S] == 0) {
        State[S] = 1;
        Stack.emplace_back(S, 0);
      }
      continue;
    }
    State[Id] = 2;
    PostOrder.push_back(Id);
    Stack.pop_back();
  }
  std::reverse(PostOrder.begin(), PostOrder.end());
  return PostOrder;
}

void Function::removeUnreachableBlocks() {
  std::vector<unsigned> Order = reversePostOrder();
  std::vector<int> NewId(Blocks.size(), -1);
  for (unsigned I = 0; I != Order.size(); ++I)
    NewId[Order[I]] = static_cast<int>(I);

  std::vector<std::unique_ptr<BasicBlock>> Kept(Order.size());
  for (auto &BB : Blocks) {
    int Id = NewId[BB->Id];
    if (Id < 0)
      continue;
    BB->Id = static_cast<unsigned>(Id);
    if (BB->hasTerminator()) {
      Instr &T = BB->Instrs.back();
      if (T.Op == Opcode::Jump || T.Op == Opcode::Branch) {
        T.Target0 = static_cast<unsigned>(NewId[T.Target0]);
        if (T.Op == Opcode::Branch)
          T.Target1 = static_cast<unsigned>(NewId[T.Target1]);
      }
    }
    Kept[BB->Id] = std::move(BB);
  }
  Blocks = std::move(Kept);
}

std::vector<unsigned> IRModule::globalPointerWords() const {
  std::vector<unsigned> Words;
  for (const GlobalInfo &G : Globals)
    for (unsigned Off : G.PtrOffsets)
      Words.push_back(G.BaseWord + Off);
  return Words;
}
