//===- vm/VM.cpp ----------------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
//
// The VM proper: threads, the scheduler, allocation, and the §5.3
// rendezvous that drives a collection.  Instructions execute in one
// executor, VM::exec (vm/Threaded.cpp), instantiated for both dispatch
// tiers: each opcode's body is written once, and the tiers differ only in
// dispatch (computed goto or a switch loop).  step() is a one-instruction
// quantum of the switch instantiation; the rendezvous uses it to run
// other threads forward to their gc-points under either tier.
//
//===----------------------------------------------------------------------===//

#include "vm/VM.h"

#include "obs/Profile.h"
#include "obs/Trace.h"

#include <cassert>
#include <chrono>
#include <cinttypes>

using namespace mgc;
using namespace mgc::vm;

VM::VM(const Program &Prog, VMOptions Opts)
    : Prog(Prog), Opts(Opts),
      TheHeap(Opts.HeapBytes, Prog.TypeDescs, Opts.GenGc, Opts.NurseryBytes,
              HeapPolicy{Opts.HeapGrowthPct, Opts.HeapMaxBytes,
                         Opts.NurseryAuto}),
      Globals(Prog.GlobalAreaWords, 0), DProg(decodeProgram(Prog)) {
  TheHeap.setSiteCount(static_cast<uint32_t>(Prog.SiteTab.Sites.size()));
  installHandlers();
  spawnThread(Prog.MainFunc);
}

void VM::spawnThread(unsigned FuncIdx) {
  assert(FuncIdx < Prog.Funcs.size());
  const CompiledFunction &F = Prog.Funcs[FuncIdx];
  assert(F.NumParams == 0 && "threads run parameterless procedures");
  auto T = std::make_unique<ThreadContext>();
  T->StackWords = Opts.StackWords;
  T->Stack.reset(new Word[T->StackWords]);
  for (size_t I = 0; I != T->StackWords; ++I)
    T->Stack[I] = FramePoison;
  // Pseudo control area for the root frame.
  T->Stack[0] = 0;             // saved AP
  T->Stack[1] = 0;             // saved FP
  T->Stack[2] = SentinelRetPC; // return address
  T->FP = CtlWords;
  T->AP = 0;
  T->PC = F.EntryIndex;
  // The root frame has no caller-provided save area; registers start dead.
  for (unsigned I = 0; I != NumRegs; ++I)
    T->R[I] = FramePoison;
  T->Live = true;
  Threads.push_back(std::move(T));
}

bool VM::fail(const std::string &Msg) {
  if (Error.empty())
    Error = Msg;
  return false;
}

Word VM::allocate(unsigned DescIdx, int64_t Length, uint32_t RetPC) {
  // Overflowing or over-capacity requests can never be satisfied by
  // collecting; fail deterministically instead of spinning the retry loop.
  size_t Bytes = TheHeap.allocationBytes(DescIdx, Length);
  if (Bytes == Heap::BadAlloc || Bytes > TheHeap.maxObjectBytes()) {
    std::string Size = Bytes == Heap::BadAlloc
                           ? "more than SIZE_MAX"
                           : std::to_string(Bytes);
    fail("out of memory: object of " + Size + " bytes exceeds heap capacity");
    return 0;
  }

  // Sampling profiler: charge the allocation to site + full stack (and
  // take any due mutator sample) before a collection this allocation may
  // trigger can run.  Both tiers reach here with Stats.Instrs synced, so
  // samples land at bit-identical instruction ordinals.
  if (__builtin_expect(Profiler != nullptr, 0))
    Profiler->onAlloc(*this, ctx(), RetPC, CurAllocSite, Bytes);

  if (Opts.GcStress) {
    if (!collect(RetPC, TheHeap.generational() && TheHeap.minorHeadroomOk()
                            ? GcKind::Minor
                            : GcKind::Full))
      return 0;
  }

  // The allocation instruction's site id rides in the object header from
  // birth (codegen's NoAllocSite narrows to the header's NoSiteHdr), where
  // every subsequent copy preserves it — heap snapshots and live-by-site
  // stats read attribution straight off the heap, tracer or not.
  uint32_t HdrSite = Heap::clampSite(CurAllocSite);

  // Observability: one predicted branch when no tracer is attached.  The
  // next collection will move any nursery/from-space object, so survival
  // tracking is sound everywhere except direct-to-old allocations (which a
  // minor collection leaves in place).
  auto Record = [&](Word Obj, bool TrackSurvival) {
    if (Tracer)
      Tracer->recordAlloc(CurAllocSite, Obj, Bytes, TrackSurvival);
    return Obj;
  };

  if (!TheHeap.generational()) {
    Word Obj = TheHeap.allocate(DescIdx, Length, HdrSite);
    if (Obj != 0)
      return Record(Obj, /*TrackSurvival=*/true);
    if (!collect(RetPC))
      return 0;
    Obj = TheHeap.allocate(DescIdx, Length, HdrSite);
    // Demand escalation under a growth policy: each extra collection
    // doubles the semispace until the request fits or the cap is reached.
    while (Obj == 0 && TheHeap.requestGrowth()) {
      if (!collect(RetPC))
        return 0;
      Obj = TheHeap.allocate(DescIdx, Length, HdrSite);
    }
    if (Obj == 0) {
      fail("heap exhausted: " + std::to_string(TheHeap.usedBytes()) +
           " bytes live of " + std::to_string(TheHeap.capacityBytes()));
      return 0;
    }
    return Record(Obj, /*TrackSurvival=*/true);
  }

  // Generational mode.  Objects too large for the nursery go straight to
  // old space; everything else bump-allocates in the nursery, escalating
  // nursery-exhaustion to a minor collection and only then to a full one.
  if (Bytes > TheHeap.nurseryCapacityBytes()) {
    Word Obj = TheHeap.allocateOld(DescIdx, Length, HdrSite);
    if (Obj != 0)
      return Record(Obj, /*TrackSurvival=*/false);
    if (!collect(RetPC, GcKind::Full))
      return 0;
    Obj = TheHeap.allocateOld(DescIdx, Length, HdrSite);
    while (Obj == 0 && TheHeap.requestGrowth()) {
      if (!collect(RetPC, GcKind::Full))
        return 0;
      Obj = TheHeap.allocateOld(DescIdx, Length, HdrSite);
    }
    if (Obj == 0) {
      fail("heap exhausted: " + std::to_string(TheHeap.usedBytes()) +
           " bytes live of " + std::to_string(TheHeap.capacityBytes()));
      return 0;
    }
    return Record(Obj, /*TrackSurvival=*/false);
  }

  Word Obj = TheHeap.allocate(DescIdx, Length, HdrSite);
  if (Obj != 0)
    return Record(Obj, /*TrackSurvival=*/true);
  if (TheHeap.minorHeadroomOk()) {
    if (!collect(RetPC, GcKind::Minor))
      return 0;
    Obj = TheHeap.allocate(DescIdx, Length, HdrSite);
    if (Obj != 0)
      return Record(Obj, /*TrackSurvival=*/true);
  }
  if (!collect(RetPC, GcKind::Full))
    return 0;
  Obj = TheHeap.allocate(DescIdx, Length, HdrSite);
  while (Obj == 0 && TheHeap.requestGrowth()) {
    if (!collect(RetPC, GcKind::Full))
      return 0;
    Obj = TheHeap.allocate(DescIdx, Length, HdrSite);
  }
  if (Obj == 0) {
    fail("heap exhausted: " + std::to_string(TheHeap.usedBytes()) +
         " bytes live of " + std::to_string(TheHeap.capacityBytes()));
    return 0;
  }
  return Record(Obj, /*TrackSurvival=*/true);
}

bool VM::collect(uint32_t TriggerRetPC, GcKind Kind) {
  if (!Collector)
    return fail("allocation failed and no collector is installed");
  assert(!InCollect && "recursive collection");
  InCollect = true;
  RequestedGc = Kind;
  if (TheHeap.remSet().size() > Stats.RemSetPeak)
    Stats.RemSetPeak = TheHeap.remSet().size();

  using Clock = std::chrono::steady_clock;
  bool Tracing = Tracer && Tracer->enabled();
  // Rendezvous is timed in every run, not just traced ones: per-request GC
  // attribution (ReqDone markers) charges rendezvous + collection nanos to
  // the current request window using exactly the value a tracer event
  // would carry in TotalNanos.
  Clock::time_point RendT0 = Clock::now();
  uint64_t RendStepsBefore = Stats.RendezvousSteps;

  // Rendezvous (§5.3): a handshake per live thread, each stepping its
  // thread independently until it is about to execute a gc-point
  // instruction; its table pc is that instruction's return address.  Loop
  // polls bound each handshake.  On any failure the suspension map is
  // discarded whole — a failed rendezvous must not leave the VM looking
  // half-suspended (partial SuspendPCs would let a later walk scan threads
  // stopped at stale pcs).
  SuspendPCs.assign(Threads.size(), 0);
  SuspendPCs[CurThread] = TriggerRetPC;
  for (size_t TI = 0; TI != Threads.size(); ++TI) {
    if (TI == CurThread || !Threads[TI]->Live)
      continue;
    if (!handshakeThread(TI)) {
      SuspendPCs.clear();
      InCollect = false;
      return false;
    }
  }

  ++Stats.Collections;
  uint64_t RendNanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           RendT0)
          .count());
  uint64_t GcNanosBefore = Stats.GcNanos;
  // A failed rendezvous returns above without an event, so committed
  // events correspond 1:1 with Stats.Collections.
  VMStats Snap;
  uint64_t PromObjSnap = 0, PromBytesSnap = 0;
  if (Tracing) {
    obs::GcEvent &Ev = Tracer->beginEvent(
        Stats.Collections, Kind == GcKind::Minor,
        CurAllocSite == NoAllocSite ? obs::NoSite : CurAllocSite);
    Ev.Phases.Rendezvous = RendNanos;
    Ev.HeapBeforeBytes = TheHeap.usedBytes();
    Snap = Stats;
    PromObjSnap = TheHeap.ObjectsPromoted;
    PromBytesSnap = TheHeap.BytesPromoted;
  }
  Stats.StackTraceStartInstrs = Stats.Instrs;
  Collector(*this);
  // The same total a tracer event carries: the per-request attribution
  // must sum exactly to the tracer's per-event TotalNanos.
  ReqGcNanosAccum += RendNanos + (Stats.GcNanos - GcNanosBefore);
  if (Tracing) {
    obs::GcEvent *Ev = Tracer->current();
    assert(Ev && "collection event vanished during the collector");
    Ev->HeapAfterBytes = TheHeap.usedBytes();
    Ev->FramesTraced = Stats.FramesTraced - Snap.FramesTraced;
    Ev->RootsTraced = Stats.RootsTraced - Snap.RootsTraced;
    Ev->ObjectsCopied = Stats.ObjectsCopied - Snap.ObjectsCopied;
    Ev->BytesCopied = Stats.BytesCopied - Snap.BytesCopied;
    Ev->ObjectsPromoted = TheHeap.ObjectsPromoted - PromObjSnap;
    Ev->BytesPromoted = TheHeap.BytesPromoted - PromBytesSnap;
    Ev->DerivedAdjusted = Stats.DerivedAdjusted - Snap.DerivedAdjusted;
    Ev->RendezvousSteps = Stats.RendezvousSteps - RendStepsBefore;
    Ev->CacheHits = Stats.DecodeCacheHits - Snap.DecodeCacheHits;
    Ev->CacheMisses = Stats.DecodeCacheMisses - Snap.DecodeCacheMisses;
    Ev->TotalNanos = RendNanos + (Stats.GcNanos - GcNanosBefore);
    Tracer->commitEvent();
  }
  if (PostGcHook && Error.empty())
    PostGcHook(*this);
  InCollect = false;
  return Error.empty();
}

bool VM::handshakeThread(size_t TI) {
  ThreadContext &T = *Threads[TI];
  uint64_t Budget = Opts.RendezvousBudget;
  while (!Prog.Code[T.PC].isGcPoint()) {
    if (Budget-- == 0)
      // Deterministic (the interpreter is deterministic, so the pc at
      // exhaustion is reproducible) — like the PR-2 OOM diagnostics, this
      // fails the run cleanly: the caller discards SuspendPCs, the error
      // propagates through both dispatch tiers, and the driver flushes
      // partial stats/trace.
      return fail("rendezvous budget exhausted: thread " +
                  std::to_string(TI) + " ran " +
                  std::to_string(Opts.RendezvousBudget) +
                  " instructions without reaching a gc-point (pc " +
                  std::to_string(T.PC) + "; compile with loop polls)");
    ++Stats.RendezvousSteps;
    if (!step(T)) {
      if (!Error.empty())
        return false;
      break; // Thread finished; no frames to scan.
    }
    if (T.Finished)
      break;
  }
  SuspendPCs[TI] = T.Finished ? SentinelRetPC : T.PC + 1;
  return true;
}

void VM::collectNow() {
  ThreadContext &T = ctx();
  // The current instruction must be a gc-point (GcCollect runtime call).
  collect(T.PC + 1);
}

bool VM::step(ThreadContext &T) {
  return exec<false>(&T, 1, nullptr) && T.Live;
}

void VM::finishRequest() {
  ++Stats.Requests;
  ReqSample Smp;
  Smp.Seq = Stats.Requests;
  Smp.Instrs = Stats.Instrs - ReqMarkInstrs;
  Smp.GcNanos = ReqGcNanosAccum;
  Smp.Collections = Stats.Collections - ReqMarkCollections;
  ReqMarkInstrs = Stats.Instrs;
  ReqMarkCollections = Stats.Collections;
  ReqGcNanosAccum = 0;
  if (Tracer)
    Tracer->recordRequest(Smp.Seq, Smp.Instrs, Smp.GcNanos, Smp.Collections);
  if (Profiler)
    Profiler->onRequestDone(Smp.Seq);
  if (RequestHook)
    RequestHook(*this, Smp);
}

bool VM::run() {
  // Round-robin with instruction-level pre-emption.
  while (true) {
    bool AnyLive = false;
    for (size_t K = 0; K != Threads.size(); ++K) {
      CurThread = static_cast<unsigned>((CurThread + (K != 0 ? 1 : 0)) %
                                        Threads.size());
      if (Threads[CurThread]->Live) {
        AnyLive = true;
        break;
      }
    }
    if (!AnyLive)
      break;

    ThreadContext &T = *Threads[CurThread];
    if (Opts.Dispatch == DispatchTier::Threaded)
      exec<true>(&T, Opts.Quantum, nullptr);
    else
      exec<false>(&T, Opts.Quantum, nullptr);
    if (!Error.empty())
      return false;
    // Checked per quantum, not per instruction: cheap, and still a
    // deterministic point in the schedule.
    if (Opts.InstrBudget && Stats.Instrs > Opts.InstrBudget)
      return fail("instruction budget exceeded");
    CurThread = static_cast<unsigned>((CurThread + 1) % Threads.size());
  }
  return Error.empty();
}
