//===- gc/Collector.cpp ---------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "gc/Collector.h"

#include "gcmaps/GcTables.h"
#include "gcmaps/MapIndex.h"
#include "obs/Trace.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

using namespace mgc;
using namespace mgc::gc;
using namespace mgc::vm;

namespace {

constexpr uint32_t SentinelPC = 0xFFFFFFFFu;

/// At --gc-threads > 1, a full collection expected to copy fewer bytes
/// than this (what the last full collection copied; before the first, the
/// heap's occupancy) runs serially, root walk and copy: waking the worker
/// pool costs more than splitting a small collection saves.  On destroy at
/// 2 workers the parallel pause p50 was 1.09x serial at 375 KB copied and
/// 0.96x at 690 KB (EXPERIMENTS.md).  Minor collections always run
/// serially.
constexpr uint64_t ParallelMinBytes = 512u << 10;

/// Parallel evacuation: a source object is owned by its address's block of
/// 2^OwnerBlockShift bytes (large enough that most fields point into their
/// own object's block, small enough to balance live data across workers).
/// Fields bound for another owner travel in batches of SendBatchFields,
/// and a busy worker sends its partial batches every SendEveryScans
/// objects it scans.
constexpr unsigned OwnerBlockShift = 16;
constexpr size_t SendBatchFields = 64;
constexpr unsigned SendEveryScans = 256;

// The tracer resolves first-collection survival by reading the forwarding
// tag out of from-space headers (obs::Tracer::sweepSurvivors hardcodes
// bit 0 to stay below the vm layer); pin the correspondence here.
static_assert(Heap::ForwardBit == 1,
              "obs survival sweep assumes the forwarding tag is bit 0");

/// One resolved derived-value entry: the target word and its base words
/// with signs (bases were required live, so they have resolved homes too).
struct DerivedEntry {
  Word *Target;
  std::vector<std::pair<Word *, int>> Bases;
};

/// Per-worker collection state (--gc-threads).  Worker 0 doubles as the
/// serial collector's state, so the N=1 path runs through exactly the same
/// caches and arenas as before the parallel split.  Everything here is
/// touched by only its owning worker during a parallel phase — except In,
/// the inbox other workers hand fields to, which is guarded by InMu.  Stat
/// counters accumulate locally and are flushed into VMStats in
/// worker order once the phase joins, so totals are deterministic at every
/// N and identical to the serial collector at N=1.
struct WorkerState {
  explicit WorkerState(unsigned CacheLines) : Cache(CacheLines) {}

  /// Decoded-point cache: per-worker so the parallel stack walk stays
  /// allocation-free and lock-free on the PR-1 decode path.  (At N>1 the
  /// aggregate hit/miss counts legitimately differ from serial: each
  /// worker's cache is cold for points another worker already decoded.)
  gcmaps::DecodedPointCache Cache;
  uint64_t CacheHitsReported = 0;
  uint64_t CacheMissesReported = 0;
  /// Reference-decoder scratch (UseMapIndex == false).
  gcmaps::GcPointInfo RefInfo;

  /// Roots gathered by this worker's share of the stack walk; merged into
  /// the collector's TidyRoots in worker order after the walk joins.
  std::vector<Word *> Roots;
  /// Persistent derived-entry arena (entries beyond Used keep their
  /// base-vector capacity between collections).
  std::vector<DerivedEntry> Derived;
  size_t DerivedUsed = 0;

  // Stat deltas for the current collection, flushed in worker order.
  uint64_t FramesTraced = 0;
  uint64_t DecodeCacheHits = 0;
  uint64_t DecodeCacheMisses = 0;
  uint64_t DecodeBytesSkipped = 0;
  uint64_t ObjectsCopied = 0;
  uint64_t BytesCopied = 0;
  // Per-phase spans for the tracer's per-worker breakdown.
  uint64_t TraceNanos = 0;
  uint64_t CopyNanos = 0;

  /// Leak-detector slab (tracer-owned; null when the detector is off or
  /// this is a minor collection): each object this worker copies adds its
  /// bytes to slot [site id]; Tracer::sampleCollection merges and zeroes
  /// the slabs after the workers join.  Only the full-collection copy
  /// paths wire this in — minor samples would flag every site.
  uint64_t *LeakAcc = nullptr;
  size_t LeakSites = 0;

  /// Parallel evacuation: this worker's private to-space copy buffer.
  Heap::CopyBuffer CopyBuf;
  /// Grey (copied, unscanned) to-space objects this worker copied: a
  /// private LIFO.
  std::vector<Word> Grey;
  /// Outgoing batches, indexed by owning worker.
  std::vector<std::vector<Word *>> Out;
  /// The batch being processed.
  std::vector<Word *> Taken;
  /// Fields (root slots or fields of other workers' grey objects) that
  /// point at objects this worker owns, handed over by the other workers
  /// in batches.  InCount mirrors In.size() so the owner can poll without
  /// taking the lock.  Written by the senders, so kept off the cache lines
  /// of the fields above, which the owner writes for every object.
  alignas(64) std::vector<Word *> In;
  std::mutex InMu;
  std::atomic<size_t> InCount{0};

  void resetForCollection() {
    Roots.clear();
    DerivedUsed = 0;
    FramesTraced = DecodeCacheHits = DecodeCacheMisses = 0;
    DecodeBytesSkipped = ObjectsCopied = BytesCopied = 0;
    TraceNanos = CopyNanos = 0;
    LeakAcc = nullptr;
    LeakSites = 0;
    CopyBuf = Heap::CopyBuffer();
    Grey.clear();
    In.clear();
    InCount.store(0, std::memory_order_relaxed);
  }
};

/// A persistent pool of NW-1 helper threads for the parallel collection
/// phases; the mutator's OS thread acts as worker 0.  Helpers sleep on a
/// condition variable between phases (collections are rare; spinning
/// between them would burn a core per helper for nothing) and are joined
/// when the collector is destroyed.
class GcWorkerPool {
public:
  explicit GcWorkerPool(unsigned NHelpers) {
    Helpers.reserve(NHelpers);
    for (unsigned I = 0; I != NHelpers; ++I)
      Helpers.emplace_back([this, I] { helperLoop(I + 1); });
  }

  ~GcWorkerPool() {
    {
      std::lock_guard<std::mutex> L(Mu);
      Shutdown = true;
    }
    Cv.notify_all();
    for (std::thread &T : Helpers)
      T.join();
  }

  /// Runs \p Fn(WI) on every worker — helpers get 1..NHelpers, the calling
  /// thread runs worker 0 — and returns once all have finished.
  void run(const std::function<void(unsigned)> &Fn) {
    {
      std::lock_guard<std::mutex> L(Mu);
      Work = &Fn;
      Remaining = static_cast<unsigned>(Helpers.size());
      ++Generation;
    }
    Cv.notify_all();
    Fn(0);
    std::unique_lock<std::mutex> L(Mu);
    DoneCv.wait(L, [this] { return Remaining == 0; });
    Work = nullptr;
  }

private:
  void helperLoop(unsigned WI) {
    uint64_t SeenGen = 0;
    for (;;) {
      const std::function<void(unsigned)> *Fn;
      {
        std::unique_lock<std::mutex> L(Mu);
        Cv.wait(L, [&] { return Shutdown || Generation != SeenGen; });
        if (Shutdown)
          return;
        SeenGen = Generation;
        Fn = Work;
      }
      (*Fn)(WI);
      std::lock_guard<std::mutex> L(Mu);
      if (--Remaining == 0)
        DoneCv.notify_one();
    }
  }

  std::vector<std::thread> Helpers;
  std::mutex Mu;
  std::condition_variable Cv, DoneCv;
  const std::function<void(unsigned)> *Work = nullptr;
  uint64_t Generation = 0;
  unsigned Remaining = 0;
  bool Shutdown = false;
};

/// The installed collector.  One instance lives for the life of the VM
/// (captured by the Collector closure), so the decoded-point cache and the
/// root/derived/scratch buffers persist across collections: steady-state
/// collections decode from cache and allocate nothing.
class PreciseCollector {
public:
  explicit PreciseCollector(const CollectorOptions &Opts) : Opts(Opts) {
    // Clamp to the tracer's per-worker array bound; N=1 is the serial
    // collector.
    if (this->Opts.Threads < 1)
      this->Opts.Threads = 1;
    if (this->Opts.Threads > obs::MaxGcWorkers)
      this->Opts.Threads = obs::MaxGcWorkers;
    NW = this->Opts.Threads;
    Workers.reserve(NW);
    for (unsigned I = 0; I != NW; ++I)
      Workers.push_back(std::make_unique<WorkerState>(Opts.CacheLines));
  }

  void collect(VM &M);
  unsigned workers() const { return NW; }

private:
  void walkThread(VM &M, WorkerState &W, ThreadContext &T, uint32_t TablePC);
  /// The full two-space Cheney copy (also evacuates the nursery in
  /// generational mode).
  void traceFull(VM &M);
  /// The same evacuation split across the worker pool by address: every
  /// source object is owned by one worker (homeOf), which alone forwards
  /// and copies it, so no header needs an atomic claim.  A worker that
  /// meets a field pointing at another worker's object hands the field to
  /// that owner in a batch.
  void traceFullParallel(VM &M);
  /// One worker's share of traceFullParallel: forward the fields in its
  /// inbox, scan what it copied, and exchange batches until global
  /// quiescence.
  void evacuateWorker(VM &M, unsigned WI);
  /// The worker that owns the object at from-space address \p P: its
  /// block index scattered by Fibonacci hashing and scaled to [0, NW) with
  /// a multiply (a division per field costs as much as a copy).
  unsigned homeOf(Word P) const {
    uint32_t Hash = static_cast<uint32_t>(P >> OwnerBlockShift) * 0x9E3779B1u;
    return static_cast<unsigned>((static_cast<uint64_t>(Hash) * NW) >> 32);
  }
  /// Appends \p W's outgoing batch for worker \p To to that worker's
  /// inbox.
  void sendBatch(WorkerState &W, unsigned To);
  /// Generational mode: evacuates only the nursery, using the remembered
  /// set for the old→young roots.
  void traceMinor(VM &M);
  /// --gc-crosscheck after a minor collection: a full reachability
  /// traversal proving no live object was left behind in the evacuated
  /// nursery half via a stale remembered set.  Runs before the nursery
  /// halves swap.
  void crosscheckAfterMinor(VM &M);
  /// The decoded tables for gc-point \p Ordinal of function \p FuncIdx,
  /// through the configured path (worker-local cache+index, or the
  /// reference decoder).
  const gcmaps::GcPointInfo &pointInfo(VM &M, WorkerState &W,
                                       unsigned FuncIdx, unsigned Ordinal);
  Word *resolve(const vm::Location &L, uint32_t FP, uint32_t AP,
                ThreadContext &T, Word **RegHome);

  CollectorOptions Opts;
  unsigned NW = 1;
  /// The in-flight observability event (null when tracing is off); set at
  /// the top of collect() so traceMinor can time the remset rebuild.
  obs::GcEvent *CurEv = nullptr;
  /// Per-worker state; Workers[0] is also the serial collector's state.
  std::vector<std::unique_ptr<WorkerState>> Workers;
  /// Helper threads (NW-1 of them), created lazily by the first parallel
  /// phase so --gc-threads 1 never spawns an OS thread.
  std::unique_ptr<GcWorkerPool> Pool;
  GcWorkerPool &pool() {
    if (!Pool)
      Pool = std::make_unique<GcWorkerPool>(NW - 1);
    return *Pool;
  }
  /// Parallel evacuation termination: busy workers plus fields sent but
  /// not yet taken out of an inbox.  A worker becomes busy before it takes
  /// a batch and sends only while busy, so reaching 0 is final.
  alignas(64) std::atomic<size_t> Outstanding{0};
  /// The merged root set (serial: gathered directly; parallel: per-worker
  /// shares appended in worker order, preserving the serial ordering).
  std::vector<Word *> TidyRoots;
  /// Bytes the last full collection copied (0 before the first): the
  /// expected volume of the next one (ParallelMinBytes).
  uint64_t LastFullBytesCopied = 0;
};

const gcmaps::GcPointInfo &PreciseCollector::pointInfo(VM &M, WorkerState &W,
                                                       unsigned FuncIdx,
                                                       unsigned Ordinal) {
  const gcmaps::EncodedFuncMaps &Maps = M.Prog.Maps[FuncIdx];
  const gcmaps::GcPointInfo *Info;
  if (Opts.UseMapIndex) {
    assert(FuncIdx < M.Prog.MapIndexes.size() &&
           "program installed without map indexes");
    const gcmaps::FuncMapIndex &Index = M.Prog.MapIndexes[FuncIdx];
    Info = W.Cache.lookup(FuncIdx, Ordinal);
    if (!Info) {
      gcmaps::GcPointInfo &Slot = W.Cache.insert(FuncIdx, Ordinal);
      gcmaps::decodeGcPointIndexed(Maps, Index, Ordinal, Slot,
                                   &W.DecodeBytesSkipped);
      Info = &Slot;
    }
    // Accumulate into worker-local deltas; the phase join flushes them
    // into VMStats in worker order (other workers may be walking frames
    // concurrently, so VMStats must not be touched here).
    W.DecodeCacheHits += W.Cache.hits() - W.CacheHitsReported;
    W.DecodeCacheMisses += W.Cache.misses() - W.CacheMissesReported;
    W.CacheHitsReported = W.Cache.hits();
    W.CacheMissesReported = W.Cache.misses();
  } else {
    W.RefInfo = gcmaps::decodeGcPoint(Maps, Ordinal);
    Info = &W.RefInfo;
  }
  if (Opts.CrossCheck &&
      !(*Info == gcmaps::decodeGcPoint(Maps, Ordinal))) {
    std::fprintf(stderr,
                 "gc cross-check: accelerated decode of func %u point %u "
                 "disagrees with the reference decoder\n",
                 FuncIdx, Ordinal);
    std::abort();
  }
  return *Info;
}

Word *PreciseCollector::resolve(const vm::Location &L, uint32_t FP,
                                uint32_t AP, ThreadContext &T,
                                Word **RegHome) {
  switch (L.K) {
  case vm::Location::Kind::FpSlot:
    return &T.Stack[FP + static_cast<unsigned>(L.Index)];
  case vm::Location::Kind::ApSlot:
    return &T.Stack[AP + static_cast<unsigned>(L.Index)];
  case vm::Location::Kind::Reg:
    return RegHome[L.Index];
  case vm::Location::Kind::None:
    break;
  }
  assert(false && "unresolvable location");
  return nullptr;
}

void PreciseCollector::walkThread(VM &M, WorkerState &W, ThreadContext &T,
                                  uint32_t TablePC) {
  // Register reconstruction state: where each register's value *as of the
  // frame being processed* lives.  Innermost frame: the live register file;
  // moving outward, registers saved by a frame are found in its save area.
  Word *RegHome[NumRegs];
  for (unsigned R = 0; R != NumRegs; ++R)
    RegHome[R] = &T.R[R];

  uint32_t PC = TablePC;
  uint32_t FP = T.FP;
  uint32_t AP = T.AP;

  while (true) {
    ++W.FramesTraced;
    unsigned FuncIdx = M.Prog.funcOfPC(PC - 1);
    const CompiledFunction &F = M.Prog.Funcs[FuncIdx];
    const gcmaps::EncodedFuncMaps &Maps = M.Prog.Maps[FuncIdx];

    int Ordinal = gcmaps::findGcPoint(Maps, PC);
    assert(Ordinal >= 0 && "suspension point is not a known gc-point");
    const gcmaps::GcPointInfo &Info =
        pointInfo(M, W, FuncIdx, static_cast<unsigned>(Ordinal));

    for (const vm::Location &L : Info.LiveSlots)
      W.Roots.push_back(resolve(L, FP, AP, T, RegHome));
    for (unsigned R = 0; R != NumRegs; ++R)
      if (Info.RegMask & (1u << R))
        W.Roots.push_back(RegHome[R]);

    for (const gcmaps::DerivationRecord &Rec : Info.Derivs) {
      if (W.DerivedUsed == W.Derived.size())
        W.Derived.emplace_back();
      DerivedEntry &E = W.Derived[W.DerivedUsed++];
      E.Bases.clear();
      E.Target = resolve(Rec.Target, FP, AP, T, RegHome);
      const std::vector<gcmaps::BaseRef> *Bases = &Rec.Bases;
      if (Rec.Ambiguous) {
        // Consult the path variable to select the derivation that actually
        // happened (§4).  Alts are encoded sorted by path value, so this
        // is a binary search rather than a linear scan.
        Word PathValue = *resolve(Rec.PathVar, FP, AP, T, RegHome);
        const gcmaps::DerivationAlt *Chosen = gcmaps::findDerivationAlt(
            Rec, static_cast<int32_t>(PathValue));
        assert(Chosen && "path variable selects no known derivation");
        Bases = &Chosen->Bases;
      }
      for (const gcmaps::BaseRef &B : *Bases)
        E.Bases.emplace_back(resolve(B.Loc, FP, AP, T, RegHome), B.Coeff);
    }

    // Step to the caller: registers this frame saved now live in its save
    // area as far as outer frames are concerned.
    for (size_t K = 0; K != F.SavedRegs.size(); ++K)
      RegHome[F.SavedRegs[K]] = &T.Stack[FP + K];

    uint32_t RetPC = static_cast<uint32_t>(T.Stack[FP - 1]);
    if (RetPC == SentinelPC)
      break;
    uint32_t CallerFP = static_cast<uint32_t>(T.Stack[FP - 2]);
    uint32_t CallerAP = static_cast<uint32_t>(T.Stack[FP - 3]);
    PC = RetPC;
    FP = CallerFP;
    AP = CallerAP;
  }
}

void PreciseCollector::traceFull(VM &M) {
  Heap &H = M.TheHeap;
  H.beginCollection();

  // --- Trace: forward every tidy root, then Cheney-scan the copied
  // objects using the heap type descriptors.
  for (Word *Root : TidyRoots) {
    ++M.Stats.RootsTraced;
    if (*Root == 0)
      continue;
    // The same word can be described twice (e.g. an outgoing argument slot
    // by the caller's FP entry and the callee's AP entry); a second visit
    // sees the already-updated pointer.
    if (H.inToSpace(*Root))
      continue;
    assert(H.inFromSpace(*Root) && "tidy root does not point into the heap "
                                   "(stale table or liveness bug)");
    *Root = H.forward(*Root);
  }

  // In-copy leak sampling: the scan below visits every evacuated object
  // exactly once, so per-site live bytes accumulate here for free instead
  // of a separate O(live) heap walk at sample time (which would cost a
  // significant fraction of the pause itself on GC-bound workloads —
  // bench/leak gates the detector at <= 3% mutator cost).
  uint64_t *LeakAcc = M.Tracer ? M.Tracer->leakAccumulator(0) : nullptr;
  size_t LeakSites = LeakAcc ? M.Tracer->leakSiteCount() : 0;

  Word Scan = H.scanStart();
  while (Scan < H.toAlloc()) {
    // Every object in to-space was evacuated by this collection.
    ++M.Stats.ObjectsCopied;
    Word *Obj = reinterpret_cast<Word *>(Scan);
    const ir::TypeDesc &D =
        M.Prog.TypeDescs[Heap::headerDesc(Obj[0])];
    for (unsigned Off : D.PtrOffsets) {
      Word &Field = Obj[1 + Off];
      if (Field != 0)
        Field = H.forward(Field);
    }
    size_t Words = 1 + D.SizeWords;
    if (D.IsOpenArray) {
      int64_t Len = static_cast<int64_t>(Obj[1]);
      for (int64_t E = 0; E != Len; ++E)
        for (unsigned Off : D.ElemPtrOffsets) {
          Word &Field = Obj[2 + static_cast<size_t>(E) * D.ElemSizeWords + Off];
          if (Field != 0)
            Field = H.forward(Field);
        }
      Words += static_cast<size_t>(Len) * D.ElemSizeWords;
    }
    if (LeakAcc) {
      uint32_t Site = Heap::headerSite(Obj[0]);
      if (Site < LeakSites)
        LeakAcc[Site] += Words * sizeof(Word);
    }
    Scan += Words * sizeof(Word);
  }

  M.Stats.BytesCopied += H.toAlloc() - H.scanStart();
  // Survival + attribution sweep: from-space headers (and nursery headers
  // in generational mode) remain readable until the swap below.
  if (M.Tracer)
    M.Tracer->sweepSurvivors(H, /*Minor=*/false);
  H.endCollection();
}

void PreciseCollector::sendBatch(WorkerState &W, unsigned To) {
  std::vector<Word *> &B = W.Out[To];
  if (B.empty())
    return;
  // Counted before it becomes visible, so Outstanding never reads 0 while
  // the batch is in flight.
  Outstanding.fetch_add(B.size());
  WorkerState &D = *Workers[To];
  {
    std::lock_guard<std::mutex> L(D.InMu);
    D.In.insert(D.In.end(), B.begin(), B.end());
    D.InCount.store(D.In.size(), std::memory_order_relaxed);
  }
  B.clear();
}

void PreciseCollector::evacuateWorker(VM &M, unsigned WI) {
  using Clock = std::chrono::steady_clock;
  auto T0 = Clock::now();
  Heap &H = M.TheHeap;
  WorkerState &W = *Workers[WI];

  // evacuateWorker runs for full collections only, so wiring the leak
  // slab here can never pollute a minor sample.
  W.LeakAcc = M.Tracer ? M.Tracer->leakAccumulator(WI) : nullptr;
  W.LeakSites = W.LeakAcc ? M.Tracer->leakSiteCount() : 0;

  // Forwards a field whose target this worker owns.  Only the owner reads
  // or writes a source header, and only the worker holding a field (the
  // one scanning its object, or the owner it was handed to) writes it, so
  // none of this needs atomics.
  auto Forward = [&](Word &Field) {
    bool Copied;
    size_t Bytes;
    Word New = H.forwardParallel(Field, W.CopyBuf, Copied, Bytes);
    Field = New;
    if (!Copied)
      return;
    ++W.ObjectsCopied;
    W.BytesCopied += Bytes;
    // In-copy leak sampling: the owner counts the object exactly once,
    // into its own slab.  Sums are merged by sampleCollection; integer
    // addition is order-independent, so the merged sample matches the
    // serial collector's bit for bit at any worker count.
    if (W.LeakAcc) {
      uint32_t Site = Heap::headerSite(*reinterpret_cast<Word *>(New));
      if (Site < W.LeakSites)
        W.LeakAcc[Site] += Bytes;
    }
    W.Grey.push_back(New);
  };

  // Forwards \p Field now when this worker owns its target, else queues
  // it for the owner.
  auto Route = [&](Word &Field) {
    unsigned To = homeOf(Field);
    if (To == WI) {
      Forward(Field);
      return;
    }
    W.Out[To].push_back(&Field);
    if (W.Out[To].size() == SendBatchFields)
      sendBatch(W, To);
  };
  auto SendAll = [&] {
    for (unsigned To = 0; To != NW; ++To)
      sendBatch(W, To);
  };

  // Fields of a grey object still point at from-space: the copy took them
  // verbatim, and only the worker scanning it routes them.
  auto ScanObject = [&](Word Scan) {
    Word *Obj = reinterpret_cast<Word *>(Scan);
    const ir::TypeDesc &D = M.Prog.TypeDescs[Heap::headerDesc(Obj[0])];
    auto Visit = [&](Word &Field) {
      if (Field == 0)
        return;
      assert(H.inFromSpace(Field) && "tidy field does not point into the "
                                     "heap (stale table or liveness bug)");
      Route(Field);
    };
    for (unsigned Off : D.PtrOffsets)
      Visit(Obj[1 + Off]);
    if (D.IsOpenArray) {
      int64_t Len = static_cast<int64_t>(Obj[1]);
      for (int64_t E = 0; E != Len; ++E)
        for (unsigned Off : D.ElemPtrOffsets)
          Visit(Obj[2 + static_cast<size_t>(E) * D.ElemSizeWords + Off]);
    }
  };

  // Worker 0 starts busy (it holds the roots); a helper starts idle.
  bool Busy = WI == 0;
  for (;;) {
    if (Busy) {
      // Own grey objects first; partial batches still go out every
      // SendEveryScans objects so owners waiting on them are not starved.
      unsigned Scans = 0;
      while (!W.Grey.empty()) {
        Word Obj = W.Grey.back();
        W.Grey.pop_back();
        ScanObject(Obj);
        if (++Scans == SendEveryScans) {
          SendAll();
          Scans = 0;
        }
      }
      if (W.InCount.load(std::memory_order_relaxed) != 0) {
        {
          std::lock_guard<std::mutex> L(W.InMu);
          W.Taken.swap(W.In);
          W.InCount.store(0, std::memory_order_relaxed);
        }
        // This worker is busy, so the count stays above 0 meanwhile.
        Outstanding.fetch_sub(W.Taken.size());
        for (Word *Field : W.Taken)
          Route(*Field);
        W.Taken.clear();
        continue;
      }
      // Out of work: hand over what is left and go idle.
      SendAll();
      Outstanding.fetch_sub(1);
      Busy = false;
    }
    // Idle: wait for a batch or for global quiescence.
    if (W.InCount.load(std::memory_order_relaxed) != 0) {
      Outstanding.fetch_add(1);
      Busy = true;
      continue;
    }
    if (Outstanding.load() == 0)
      break;
    std::this_thread::yield();
  }
  // Quiescent: no worker copies any more, so each seals its own chunk.
  H.retireCopyBuffer(W.CopyBuf);

  W.CopyNanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - T0)
          .count());
}

void PreciseCollector::traceFullParallel(VM &M) {
  Heap &H = M.TheHeap;
  H.beginCollection();

  // RootsTraced counts table-described root slots, like the serial
  // collector — before deduplication, so the total matches serial at any N.
  M.Stats.RootsTraced += TidyRoots.size();
  // Dedup: the same stack word can carry two table entries (caller FP slot
  // and callee AP slot).  The serial loop tolerates duplicates by checking
  // inToSpace on the second visit; in parallel a duplicate could reach two
  // owners' inboxes (after the first rewrote it), so dedup up front.
  std::sort(TidyRoots.begin(), TidyRoots.end());
  TidyRoots.erase(std::unique(TidyRoots.begin(), TidyRoots.end()),
                  TidyRoots.end());

  // Worker 0 starts with every root in its inbox; it routes them like any
  // other handed-over field.
  for (auto &W : Workers) {
    W->Grey.clear();
    W->In.clear();
    W->Out.resize(NW);
  }
  std::vector<Word *> &In0 = Workers[0]->In;
  for (Word *Root : TidyRoots) {
    if (*Root == 0)
      continue;
    assert(H.inFromSpace(*Root) && "tidy root does not point into the heap "
                                   "(stale table or liveness bug)");
    In0.push_back(Root);
  }
  for (auto &W : Workers)
    W->InCount.store(W->In.size(), std::memory_order_relaxed);
  Outstanding.store(1 + In0.size());
  pool().run([&](unsigned WI) { evacuateWorker(M, WI); });
  uint64_t Waste = 0;
  for (auto &W : Workers)
    Waste += W->CopyBuf.WasteBytes;
  assert(H.toAlloc() - H.scanStart() - Waste ==
             [&] {
               uint64_t B = 0;
               for (auto &W : Workers)
                 B += W->BytesCopied;
               return B;
             }() &&
         "parallel copy byte accounting does not cover to-space");

  // ObjectsCopied/BytesCopied flush in worker order (totals are
  // N-independent; the per-worker split is the load-balance view).
  for (auto &W : Workers) {
    M.Stats.ObjectsCopied += W->ObjectsCopied;
    M.Stats.BytesCopied += W->BytesCopied;
  }
  if (CurEv) {
    CurEv->CopyWasteBytes = Waste;
    for (unsigned I = 0; I != NW && I != obs::MaxGcWorkers; ++I) {
      CurEv->WorkerCopyNanos[I] = Workers[I]->CopyNanos;
      CurEv->WorkerRefills[I] = Workers[I]->CopyBuf.Refills;
    }
  }

  // Survival + attribution sweep: from-space headers (and nursery headers
  // in generational mode) remain readable until the swap below.
  if (M.Tracer)
    M.Tracer->sweepSurvivors(H, /*Minor=*/false);
  H.endCollection(Waste);
}

void PreciseCollector::traceMinor(VM &M) {
  Heap &H = M.TheHeap;
  assert(H.minorHeadroomOk() &&
         "minor collection started without promotion headroom");
  H.beginMinorCollection();

  // The remembered set rebuilt for the next cycle: surviving old→young
  // edges plus any created by promotion during this collection.
  std::unordered_set<Word> NewRem;

  // Forwards a field's target out of the nursery if it is young.  Fields
  // of *old-space* objects that end up pointing at a survivor are
  // old→young edges and must enter the new remembered set.
  auto FwdField = [&](Word &Field, bool InOldObject) {
    if (H.inNursery(Field))
      Field = H.forwardYoung(Field);
    if (InOldObject && H.inNurseryTo(Field))
      NewRem.insert(reinterpret_cast<Word>(&Field));
  };

  // --- Roots: the same table-driven tidy roots as a full collection...
  for (Word *Root : TidyRoots) {
    ++M.Stats.RootsTraced;
    Word V = *Root;
    if (V == 0)
      continue;
    assert((H.inOld(V) || H.inNursery(V) || H.inNurseryTo(V)) &&
           "tidy root does not point into the heap (stale table or "
           "liveness bug)");
    if (H.inNursery(V))
      *Root = H.forwardYoung(V);
  }
  // ...plus every remembered old-space slot that still holds a young
  // pointer (the barrier records slots eagerly; stores since may have
  // overwritten them).
  for (Word Slot : H.remSet()) {
    Word &Field = *reinterpret_cast<Word *>(Slot);
    if (H.inNursery(Field))
      Field = H.forwardYoung(Field);
  }

  // --- Cheney scan over both target regions: the survivor half and the
  // region of old space filled by promotion.  Scanning either can grow
  // both, so alternate until neither advances.
  auto ScanObject = [&](Word Scan, bool InOldObject) -> size_t {
    // Every scanned object was evacuated (survivor half or promotion).
    ++M.Stats.ObjectsCopied;
    Word *Obj = reinterpret_cast<Word *>(Scan);
    const ir::TypeDesc &D =
        M.Prog.TypeDescs[Heap::headerDesc(Obj[0])];
    for (unsigned Off : D.PtrOffsets)
      FwdField(Obj[1 + Off], InOldObject);
    size_t Words = 1 + D.SizeWords;
    if (D.IsOpenArray) {
      int64_t Len = static_cast<int64_t>(Obj[1]);
      for (int64_t E = 0; E != Len; ++E)
        for (unsigned Off : D.ElemPtrOffsets)
          FwdField(Obj[2 + static_cast<size_t>(E) * D.ElemSizeWords + Off],
                   InOldObject);
      Words += static_cast<size_t>(Len) * D.ElemSizeWords;
    }
    return Words * sizeof(Word);
  };

  Word NurScan = H.nurScanStart();
  Word OldScan = H.oldScanStart();
  while (NurScan < H.nurToAlloc() || OldScan < H.oldAllocPtr()) {
    while (NurScan < H.nurToAlloc())
      NurScan += ScanObject(NurScan, /*InOldObject=*/false);
    while (OldScan < H.oldAllocPtr())
      OldScan += ScanObject(OldScan, /*InOldObject=*/true);
  }

  M.Stats.BytesCopied += (H.nurToAlloc() - H.nurScanStart()) +
                         (H.oldAllocPtr() - H.oldScanStart());

  if (Opts.CrossCheck)
    crosscheckAfterMinor(M);

  // Remembered-set rebuild (timed as its own phase): surviving entries of
  // the old set — slots still holding a young pointer once their target
  // moved to the survivor half — join the edges recorded during the scan.
  using Clock = std::chrono::steady_clock;
  Clock::time_point RemT0;
  if (CurEv)
    RemT0 = Clock::now();
  for (Word Slot : H.remSet()) {
    Word V = *reinterpret_cast<const Word *>(Slot);
    if (H.inNurseryTo(V))
      NewRem.insert(Slot);
  }
  H.remSet().swap(NewRem);
  if (CurEv)
    CurEv->Phases.RemsetRebuild = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             RemT0)
            .count());

  // Survival + attribution sweep: evacuated nursery-half headers remain
  // readable until the swap below.
  if (M.Tracer)
    M.Tracer->sweepSurvivors(H, /*Minor=*/true);
  H.endMinorCollection();
}

void PreciseCollector::crosscheckAfterMinor(VM &M) {
  // Full-heap reachability verification: starting from every tidy root,
  // no reachable pointer may still target the evacuated nursery half — a
  // violation means a live object was missed via a stale remembered set.
  // The traversal also exercises objectWords on every reachable object,
  // asserting each open-array length round-trips its allocation size.
  Heap &H = M.TheHeap;
  std::unordered_set<Word> Visited;
  std::vector<Word> Work;
  auto Push = [&](Word V) {
    if (V == 0)
      return;
    if (H.inNursery(V)) {
      std::fprintf(stderr,
                   "gc cross-check: reachable object left in the evacuated "
                   "nursery half (stale remembered set)\n");
      std::abort();
    }
    if (!H.inOld(V) && !H.inNurseryTo(V))
      return;
    if (Visited.insert(V).second)
      Work.push_back(V);
  };
  for (Word *Root : TidyRoots)
    Push(*Root);
  while (!Work.empty()) {
    Word Obj = Work.back();
    Work.pop_back();
    const Word *P = reinterpret_cast<const Word *>(Obj);
    const ir::TypeDesc &D = H.descOf(Obj);
    (void)H.objectWords(Obj); // Asserts the header is sane.
    for (unsigned Off : D.PtrOffsets)
      Push(P[1 + Off]);
    if (D.IsOpenArray) {
      int64_t Len = static_cast<int64_t>(P[1]);
      for (int64_t E = 0; E != Len; ++E)
        for (unsigned Off : D.ElemPtrOffsets)
          Push(P[2 + static_cast<size_t>(E) * D.ElemSizeWords + Off]);
    }
  }
}

void PreciseCollector::collect(VM &M) {
  using Clock = std::chrono::steady_clock;
  auto Nanos = [](Clock::time_point A, Clock::time_point B) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(B - A).count());
  };
  auto T0 = Clock::now();

  // The VM begins the observability event before invoking us; fill in the
  // per-phase breakdown as each phase completes.  Extra clock reads happen
  // only while an event is in flight.  The timing skeleton (T0 → walk → T1
  // → underive → trace → copy → rederive → T2) is shared by the serial and
  // parallel paths, so the phase-partition invariant — phase nanos sum
  // exactly to the collector span at every N — holds by construction.
  CurEv = M.Tracer ? M.Tracer->current() : nullptr;
  if (CurEv)
    CurEv->Workers = NW;

  bool Minor = M.TheHeap.generational() && M.RequestedGc == GcKind::Minor;
  // Only a full collection expected to copy a lot uses the worker pool:
  // waking it costs more than splitting a small walk or copy saves.  The
  // expected volume is what the last full collection copied (before the
  // first, everything allocated).  Minor collections copy serially.
  bool Parallel =
      NW > 1 && !Minor &&
      (LastFullBytesCopied ? LastFullBytesCopied : M.TheHeap.usedBytes()) >=
          ParallelMinBytes;

  TidyRoots.clear();
  for (auto &W : Workers)
    W->resetForCollection();

  // --- Stack tracing: locate tables, decode, gather roots (timed
  // separately; this is §6.3's measured quantity).  A minor collection
  // gathers the identical root set — only the trace differs.  Live
  // suspended threads are dealt round-robin to the workers; each thread's
  // frames are walked by exactly one worker, preserving the §3 callee-
  // before-caller ordering of its derived entries inside that worker's
  // arena.
  std::vector<std::pair<ThreadContext *, uint32_t>> Walks;
  for (size_t TI = 0; TI != M.Threads.size(); ++TI) {
    ThreadContext &T = *M.Threads[TI];
    if (!T.Live)
      continue; // Finished threads have no frames to scan.
    uint32_t TablePC = M.SuspendPCs.empty() ? 0 : M.SuspendPCs[TI];
    if (TablePC == SentinelPC || TablePC == 0)
      continue;
    Walks.emplace_back(&T, TablePC);
  }
  // A single suspended thread gives the pool nothing to split either.
  bool SerialWalk = !Parallel || Walks.size() < 2;
  if (SerialWalk) {
    for (auto &[T, TablePC] : Walks)
      walkThread(M, *Workers[0], *T, TablePC);
  } else {
    pool().run([&](unsigned WI) {
      auto WT0 = Clock::now();
      WorkerState &W = *Workers[WI];
      for (size_t I = WI; I < Walks.size(); I += NW)
        walkThread(M, W, *Walks[I].first, Walks[I].second);
      W.TraceNanos = Nanos(WT0, Clock::now());
    });
  }

  // Merge + flush in worker order: the root set, walk-stat deltas, and the
  // per-worker trace spans.  At N=1 this reproduces the serial collector's
  // exact root ordering and stat totals.
  for (auto &W : Workers)
    TidyRoots.insert(TidyRoots.end(), W->Roots.begin(), W->Roots.end());
  for (unsigned W : M.Prog.GlobalPtrWords)
    TidyRoots.push_back(&M.Globals[W]);
  for (auto &W : Workers) {
    M.Stats.FramesTraced += W->FramesTraced;
    M.Stats.DecodeCacheHits += W->DecodeCacheHits;
    M.Stats.DecodeCacheMisses += W->DecodeCacheMisses;
    M.Stats.DecodeBytesSkipped += W->DecodeBytesSkipped;
    // Evacuation counters flush after the trace phase below; reset the
    // walk deltas so the copy flush does not double-count.
    W->FramesTraced = W->DecodeCacheHits = W->DecodeCacheMisses = 0;
    W->DecodeBytesSkipped = 0;
  }

  auto T1 = Clock::now();
  if (CurEv) {
    CurEv->Phases.StackTrace = Nanos(T0, T1);
    if (SerialWalk)
      CurEv->WorkerTraceNanos[0] = CurEv->Phases.StackTrace;
    else
      for (unsigned I = 0; I != NW && I != obs::MaxGcWorkers; ++I)
        CurEv->WorkerTraceNanos[I] = Workers[I]->TraceNanos;
  }
  auto Mark = T1;

  // --- Phase 1 (§3): un-derive, innermost frames first, leaving E in each
  // derived location.  Worker arenas are visited in worker order; entries
  // within an arena are in walk order, so each thread's frames keep the
  // required callee-before-caller ordering (threads' derived values are
  // independent of each other).
  for (auto &WP : Workers) {
    WorkerState &W = *WP;
    for (size_t K = 0; K != W.DerivedUsed; ++K) {
      const DerivedEntry &E = W.Derived[K];
      Word V = *E.Target;
      for (const auto &[BaseLoc, Coeff] : E.Bases)
        V -= static_cast<Word>(static_cast<int64_t>(Coeff)) * *BaseLoc;
      *E.Target = V;
      ++M.Stats.DerivedAdjusted;
    }
  }

  if (CurEv) {
    auto Now = Clock::now();
    CurEv->Phases.Underive = Nanos(Mark, Now);
    Mark = Now;
  }

  uint64_t CopiedBefore = M.Stats.BytesCopied;
  if (Minor) {
    ++M.Stats.MinorCollections;
    traceMinor(M);
  } else {
    if (Parallel)
      traceFullParallel(M);
    else
      traceFull(M);
    LastFullBytesCopied = M.Stats.BytesCopied - CopiedBefore;
  }

  if (CurEv) {
    auto Now = Clock::now();
    // traceMinor timed its remset rebuild separately; the rest of the
    // evacuation span is the copy phase.
    CurEv->Phases.Copy = Nanos(Mark, Now) - CurEv->Phases.RemsetRebuild;
    if (!Parallel && !Minor)
      CurEv->WorkerCopyNanos[0] = CurEv->Phases.Copy;
    Mark = Now;
  }

  // --- Phase 2 of the update (§3): re-derive from the new base values, in
  // exactly the reverse order.
  for (size_t WI = Workers.size(); WI-- > 0;) {
    WorkerState &W = *Workers[WI];
    for (size_t K = W.DerivedUsed; K-- > 0;) {
      const DerivedEntry &E = W.Derived[K];
      Word V = *E.Target;
      for (const auto &[BaseLoc, Coeff] : E.Bases)
        V += static_cast<Word>(static_cast<int64_t>(Coeff)) * *BaseLoc;
      *E.Target = V;
    }
  }

  // Leak-detector sample: workers are joined, so merging the per-worker
  // in-copy accumulators here is single-threaded.  The copy loops above
  // already attributed every evacuated object's bytes to its site, so the
  // sample costs O(sites), not O(live).
  if (M.Tracer)
    M.Tracer->sampleCollection(M.Stats.Collections, Minor);

  auto T2 = Clock::now();
  if (CurEv) {
    CurEv->Phases.Rederive = Nanos(Mark, T2);
    CurEv = nullptr; // The VM commits the event after we return.
  }
  M.Stats.StackTraceNanos += Nanos(T0, T1);
  uint64_t Total = Nanos(T0, T2);
  M.Stats.GcNanos += Total;
  if (Minor)
    M.Stats.MinorGcNanos += Total;
}

} // namespace

void gc::installPreciseCollector(VM &M, const CollectorOptions &Opts) {
  // The collector instance is shared by every collection of this VM: the
  // decoded-point cache and the root/derived buffers persist, so only the
  // first collections pay decode allocations.
  auto State = std::make_shared<PreciseCollector>(Opts);
  // Only a parallel collector leaves fillers, so only it pays for the
  // semispace slack they need.
  if (State->workers() > 1)
    M.TheHeap.reserveCopySlack(State->workers());
  M.Collector = [State](VM &Inner) { State->collect(Inner); };
}

//===----------------------------------------------------------------------===//
// Conservative (ambiguous roots) baseline
//===----------------------------------------------------------------------===//

ConservativeStats gc::conservativeTrace(VM &M,
                                        std::unordered_set<Word> *MarkedOut) {
  using Clock = std::chrono::steady_clock;
  auto T0 = Clock::now();
  ConservativeStats S;

  Heap &H = M.TheHeap;
  // Hash-based mark set: the conservative baseline should pay for its lack
  // of liveness information, not for red-black-tree rebalancing.
  std::unordered_set<Word> Marked;
  Marked.reserve(1024);
  std::vector<Word> Work;
  Work.reserve(256);

  auto Consider = [&](Word V) {
    ++S.WordsScanned;
    if (!H.plausibleObject(V))
      return;
    ++S.CandidatePointers;
    if (Marked.insert(V).second)
      Work.push_back(V);
  };

  for (const auto &T : M.Threads) {
    if (!T->Live)
      continue;
    // The whole used portion of the stack is ambiguous root material; the
    // conservative collector has no liveness information.
    uint32_t Top = T->FP;
    const CompiledFunction &F = M.Prog.Funcs[M.Prog.funcOfPC(T->PC)];
    Top += F.FrameWords;
    for (uint32_t W = 0; W < Top && W < T->StackWords; ++W)
      Consider(T->Stack[W]);
    for (unsigned R = 0; R != NumRegs; ++R)
      Consider(T->R[R]);
  }
  for (Word G : M.Globals)
    Consider(G);

  while (!Work.empty()) {
    Word Obj = Work.back();
    Work.pop_back();
    ++S.ObjectsReached;
    const ir::TypeDesc &D = H.descOf(Obj);
    const Word *P = reinterpret_cast<const Word *>(Obj);
    for (unsigned Off : D.PtrOffsets) {
      Word V = P[1 + Off];
      if (H.plausibleObject(V) && Marked.insert(V).second)
        Work.push_back(V);
    }
    if (D.IsOpenArray) {
      int64_t Len = static_cast<int64_t>(P[1]);
      for (int64_t E = 0; E != Len; ++E)
        for (unsigned Off : D.ElemPtrOffsets) {
          Word V = P[2 + static_cast<size_t>(E) * D.ElemSizeWords + Off];
          if (H.plausibleObject(V) && Marked.insert(V).second)
            Work.push_back(V);
        }
    }
  }

  auto T1 = Clock::now();
  S.Nanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(T1 - T0).count());
  if (MarkedOut)
    *MarkedOut = std::move(Marked);
  return S;
}
