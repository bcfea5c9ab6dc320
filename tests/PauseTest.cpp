//===- tests/PauseTest.cpp - Bounded-pause accounting and parallel GC ------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pause-event invariants and parallel-collector determinism:
///
///  - every committed GcEvent's phase nanos partition its TotalNanos, its
///    RendezvousSteps are the per-collection delta of the VM counter, and
///    committed events correspond 1:1 with VMStats::Collections — at
///    --gc-threads 1, 2, and 4 over the §6 programs and the frozen corpus;
///  - --gc-threads 1 is bit-identical to the default collector (including
///    the decode-cache counters); higher thread counts reproduce every
///    deterministic observable except the per-worker cache split, both
///    below the serial-copy cutoff and on an MB-scale destroy and an
///    MB-scale run with spawned threads, where the walk and the copy
///    really run in parallel;
///  - the §5.3 per-thread handshake's budget-exhaustion diagnostic is
///    deterministic and identical across both dispatch tiers, and failed
///    runs still flush a parseable trace in both tiers;
///  - mgc-report's renderer handles a zero-collection trace;
///  - at an MB-scale live set, where the parallel copy buffers leave filler
///    objects behind, N=2/4 keep every sizing decision and heap figure of
///    N=1 in all three heap modes, the heap walkers and the snapshot
///    cross-check skip fillers, the filler waste is reported, and the
///    serial collector reserves no copy slack.
///
/// These suites carry the `gc` ctest label (see tests/CMakeLists.txt) and
/// are the ones tools/check.sh additionally builds under ThreadSanitizer.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "Corpus.h"
#include "Programs.h"
#include "TestUtil.h"

#include "gc/Snapshot.h"
#include "obs/HeapSnapshot.h"
#include "obs/Report.h"
#include "obs/Trace.h"

#include <sstream>

using namespace mgc;
using namespace mgc::test;

namespace {

//===----------------------------------------------------------------------===//
// Traced parallel-run helper
//===----------------------------------------------------------------------===//

struct PauseRun {
  bool Ok = false;
  std::string Out;
  std::string Error;
  vm::VMStats Stats;
  std::vector<obs::GcEvent> Events; ///< Committed events, oldest first.
  uint64_t EventCount = 0;
  std::string Trace; ///< Full JSONL text.
};

/// Compiles and runs \p Source with a tracer attached and the collector at
/// \p GcThreads workers.  Honours MGC_TEST_GEN_GC like
/// test::compileAndRun, so the tier-1 generational sweep also exercises
/// the parallel root walk in front of minor collections.
PauseRun runPause(const std::string &Source, unsigned GcThreads,
                  size_t HeapBytes,
                  vm::DispatchTier Tier = vm::DispatchTier::Threaded,
                  bool CrossCheck = false, bool UseDefaultCollector = false,
                  uint64_t RendezvousBudget = 0, unsigned SpawnSpin = 0) {
  PauseRun R;
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  CO.ThreadedPolls = SpawnSpin != 0 && RendezvousBudget == 0;
  vm::VMOptions VO;
  VO.HeapBytes = HeapBytes;
  VO.Dispatch = Tier;
  if (RendezvousBudget)
    VO.RendezvousBudget = RendezvousBudget;
  gc::CollectorOptions GCO;
  if (!UseDefaultCollector) {
    GCO.Threads = GcThreads;
    GCO.CrossCheck = CrossCheck;
  }
  if (std::getenv("MGC_TEST_GEN_GC")) {
    CO.WriteBarriers = true;
    VO.GenGc = true;
    VO.NurseryBytes = 4u << 10;
    GCO.CrossCheck = true;
  }
  auto C = driver::compile(Source, CO);
  if (!C.Prog) {
    ADD_FAILURE() << "compilation failed:\n" << C.Diags.str();
    return R;
  }
  vm::VM M(*C.Prog, VO);
  gc::installPreciseCollector(M, GCO);
  if (SpawnSpin) {
    unsigned SpinIdx = 0;
    for (unsigned I = 0; I != C.Prog->Funcs.size(); ++I)
      if (C.Prog->Funcs[I].Name == "Spin")
        SpinIdx = I;
    for (unsigned I = 0; I != SpawnSpin; ++I)
      M.spawnThread(SpinIdx);
  }

  obs::TracerConfig TC;
  TC.ProgramName = "pause-test";
  obs::Tracer Tracer(std::move(TC));
  std::ostringstream OS;
  Tracer.enable(&OS);
  M.Tracer = &Tracer;

  R.Ok = M.run();
  Tracer.finish(R.Ok, M.Error);
  R.Out = M.Out;
  R.Error = M.Error;
  R.Stats = M.Stats;
  R.Events = Tracer.retainedEvents();
  R.EventCount = Tracer.eventCount();
  R.Trace = OS.str();
  return R;
}

/// destroy with a complete 4-ary tree of depth 7: about 0.8 MB live.  That
/// is above the collector's serial cutoff, so at N>1 its full collections
/// take the parallel root walk and copy, which the §6 programs' 15-40 KB
/// live sets never reach; each collection also fills and retires dozens of
/// copy-buffer chunks per worker.
std::string mbDestroySource() { return bench::bigDestroy(4, 7, 200); }
constexpr size_t MbHeapBytes = 1u << 20;
const char *MbDestroyExpected = "21845 90045\n";

/// Whether any full collection of \p R went through the parallel copy (only
/// it leaves filler waste behind).
bool sawParallelCopy(const PauseRun &R) {
  for (const obs::GcEvent &Ev : R.Events)
    if (Ev.CopyWasteBytes != 0)
      return true;
  return false;
}

/// The deterministic observables the parallel collector must reproduce at
/// any worker count (the per-worker decode-cache hit/miss split is
/// checked separately: it is only pinned at one worker).
void expectCoreEqual(const PauseRun &A, const PauseRun &B) {
  EXPECT_EQ(A.Out, B.Out);
  EXPECT_EQ(A.Stats.Instrs, B.Stats.Instrs);
  EXPECT_EQ(A.Stats.Collections, B.Stats.Collections);
  EXPECT_EQ(A.Stats.RootsTraced, B.Stats.RootsTraced);
  EXPECT_EQ(A.Stats.FramesTraced, B.Stats.FramesTraced);
  EXPECT_EQ(A.Stats.ObjectsCopied, B.Stats.ObjectsCopied);
  EXPECT_EQ(A.Stats.BytesCopied, B.Stats.BytesCopied);
  EXPECT_EQ(A.Stats.DerivedAdjusted, B.Stats.DerivedAdjusted);
  EXPECT_EQ(A.Stats.RendezvousSteps, B.Stats.RendezvousSteps);
}

//===----------------------------------------------------------------------===//
// Pause-event invariants
//===----------------------------------------------------------------------===//

void checkEventInvariants(const PauseRun &R, unsigned GcThreads) {
  // Committed events correspond 1:1 with collections: beginEvent fires
  // only after a successful rendezvous, commitEvent before control
  // returns to the mutator.
  EXPECT_EQ(R.EventCount, R.Stats.Collections);
  uint64_t StepSum = 0, HitSum = 0, MissSum = 0;
  for (const obs::GcEvent &Ev : R.Events) {
    // The six phase timers partition the pause: they are carved out of
    // the same two clock readings that produce TotalNanos, with no gap
    // and no overlap.
    uint64_t PhaseSum = Ev.Phases.Rendezvous + Ev.Phases.StackTrace +
                        Ev.Phases.Underive + Ev.Phases.Copy +
                        Ev.Phases.RemsetRebuild + Ev.Phases.Rederive;
    EXPECT_EQ(PhaseSum, Ev.TotalNanos) << "event " << Ev.Seq;
    EXPECT_EQ(Ev.Workers, GcThreads) << "event " << Ev.Seq;
    for (unsigned W = Ev.Workers; W != obs::MaxGcWorkers; ++W) {
      EXPECT_EQ(Ev.WorkerTraceNanos[W], 0u);
      EXPECT_EQ(Ev.WorkerCopyNanos[W], 0u);
    }
    StepSum += Ev.RendezvousSteps;
    HitSum += Ev.CacheHits;
    MissSum += Ev.CacheMisses;
  }
  if (R.EventCount == R.Events.size()) {
    // Per-event counters are deltas of the VM counters; with no events
    // dropped from the ring they must sum back to the totals.
    EXPECT_EQ(StepSum, R.Stats.RendezvousSteps);
    EXPECT_EQ(HitSum, R.Stats.DecodeCacheHits);
    EXPECT_EQ(MissSum, R.Stats.DecodeCacheMisses);
  }
  if (GcThreads == 1) {
    // Serially, every traced frame is exactly one cache probe.
    EXPECT_EQ(R.Stats.DecodeCacheHits + R.Stats.DecodeCacheMisses,
              R.Stats.FramesTraced);
  }
}

TEST(PauseInvariants, Section6Programs) {
  for (const programs::NamedProgram &P : programs::All) {
    for (unsigned N : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::string(P.Name) + " gc-threads " + std::to_string(N));
      PauseRun R = runPause(P.Source, N, /*HeapBytes=*/64u << 10);
      ASSERT_TRUE(R.Ok) << R.Error;
      EXPECT_EQ(R.Out, P.Expected);
      checkEventInvariants(R, N);
    }
  }
  for (unsigned N : {1u, 2u, 4u}) {
    SCOPED_TRACE("destroy-mb gc-threads " + std::to_string(N));
    PauseRun R = runPause(mbDestroySource(), N, MbHeapBytes);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Out, MbDestroyExpected);
    EXPECT_EQ(sawParallelCopy(R), N > 1);
    checkEventInvariants(R, N);
  }
}

TEST(PauseInvariants, FrozenCorpus) {
  ASSERT_FALSE(corpus().empty());
  for (const CorpusProgram &P : corpus()) {
    for (unsigned N : {1u, 2u, 4u}) {
      SCOPED_TRACE(P.Name + " gc-threads " + std::to_string(N));
      PauseRun R = runPause(P.Source, N, /*HeapBytes=*/64u << 10);
      ASSERT_TRUE(R.Ok) << R.Error;
      checkEventInvariants(R, N);
    }
  }
}

//===----------------------------------------------------------------------===//
// Parallel-collector determinism
//===----------------------------------------------------------------------===//

TEST(PauseParallel, ThreadsOneIsBitIdenticalToDefault) {
  for (const programs::NamedProgram &P : programs::All) {
    SCOPED_TRACE(P.Name);
    PauseRun Def = runPause(P.Source, 1, /*HeapBytes=*/64u << 10,
                            vm::DispatchTier::Threaded, /*CrossCheck=*/false,
                            /*UseDefaultCollector=*/true);
    PauseRun N1 = runPause(P.Source, 1, /*HeapBytes=*/64u << 10);
    ASSERT_TRUE(Def.Ok) << Def.Error;
    ASSERT_TRUE(N1.Ok) << N1.Error;
    expectCoreEqual(Def, N1);
    // One worker runs the pre-parallel serial path: even the cache
    // counters are pinned.
    EXPECT_EQ(Def.Stats.DecodeCacheHits, N1.Stats.DecodeCacheHits);
    EXPECT_EQ(Def.Stats.DecodeCacheMisses, N1.Stats.DecodeCacheMisses);
  }
}

TEST(PauseParallel, HigherWorkerCountsReproduceObservables) {
  struct Input {
    std::string Name, Source;
    size_t HeapBytes;
  };
  std::vector<Input> Inputs;
  for (const programs::NamedProgram &P : programs::All)
    Inputs.push_back({P.Name, P.Source, 64u << 10});
  // Only this one copies enough to leave the serial cutoff.
  Inputs.push_back({"destroy-mb", mbDestroySource(), MbHeapBytes});
  for (const Input &P : Inputs) {
    SCOPED_TRACE(P.Name);
    PauseRun N1 = runPause(P.Source, 1, P.HeapBytes);
    ASSERT_TRUE(N1.Ok) << N1.Error;
    for (unsigned N : {2u, 4u}) {
      PauseRun R = runPause(P.Source, N, P.HeapBytes);
      ASSERT_TRUE(R.Ok) << R.Error;
      expectCoreEqual(N1, R);
    }
    // And with the §3 decode cross-check auditing every parallel trace.
    PauseRun XC = runPause(P.Source, 4, P.HeapBytes,
                           vm::DispatchTier::Threaded, /*CrossCheck=*/true);
    ASSERT_TRUE(XC.Ok) << XC.Error;
    expectCoreEqual(N1, XC);
    // The switch tier shares the collector and the handshake engine.
    PauseRun Sw = runPause(P.Source, 4, P.HeapBytes,
                           vm::DispatchTier::Switch);
    ASSERT_TRUE(Sw.Ok) << Sw.Error;
    expectCoreEqual(N1, Sw);
  }
}

/// Main keeps a 30,000-cell chain (about 700 KB) live and churns garbage
/// while the spawned Spin threads loop: every full collection after the
/// chain is built walks several suspended threads and copies past the
/// serial cutoff.
const char *MbSpinSource = R"(
MODULE M;
TYPE R = REF RECORD v: INTEGER; n: R END;
VAR done: BOOLEAN; keep, head: R;

PROCEDURE Spin();
VAR i: INTEGER;
BEGIN
  i := 0;
  WHILE NOT done DO INC(i) END
END Spin;

BEGIN
  done := FALSE;
  FOR k := 1 TO 30000 DO
    head := NEW(R);
    head^.v := k;
    head^.n := keep;
    keep := head
  END;
  FOR k := 1 TO 60000 DO
    head := NEW(R);
    head^.v := k;
    head^.n := head
  END;
  done := TRUE;
  PutInt(keep^.v); PutLn();
END M.)";

TEST(PauseParallel, SuspendedThreadsSplitTheWalkAtMbScale) {
  auto Run = [](unsigned N, vm::DispatchTier Tier) {
    return runPause(MbSpinSource, N, MbHeapBytes, Tier, /*CrossCheck=*/false,
                    /*UseDefaultCollector=*/false, /*RendezvousBudget=*/0,
                    /*SpawnSpin=*/3);
  };
  PauseRun N1 = Run(1, vm::DispatchTier::Threaded);
  ASSERT_TRUE(N1.Ok) << N1.Error;
  EXPECT_EQ(N1.Out, "30000\n");
  for (unsigned N : {2u, 4u}) {
    uint64_t Hits = 0, Misses = 0;
    for (vm::DispatchTier Tier :
         {vm::DispatchTier::Threaded, vm::DispatchTier::Switch}) {
      SCOPED_TRACE(testing::Message() << "gc-threads " << N << ", "
                                      << vm::dispatchTierName(Tier));
      PauseRun R = Run(N, Tier);
      ASSERT_TRUE(R.Ok) << R.Error;
      expectCoreEqual(N1, R);
      checkEventInvariants(R, N);
      // Threads are dealt to workers round-robin, so the per-worker cache
      // split is a function of N alone, the same in every run.
      if (Tier == vm::DispatchTier::Threaded) {
        Hits = R.Stats.DecodeCacheHits;
        Misses = R.Stats.DecodeCacheMisses;
      } else {
        EXPECT_EQ(R.Stats.DecodeCacheHits, Hits);
        EXPECT_EQ(R.Stats.DecodeCacheMisses, Misses);
      }
      // Four suspended threads are dealt round-robin, so a helper walks
      // some of them, and the copy itself runs in parallel.
      bool HelperWalked = false;
      for (const obs::GcEvent &Ev : R.Events)
        HelperWalked |= Ev.WorkerTraceNanos[1] != 0;
      EXPECT_TRUE(HelperWalked);
      EXPECT_TRUE(sawParallelCopy(R));
    }
  }
}

//===----------------------------------------------------------------------===//
// MB-scale live set: parallel copy buffers and their fillers
//===----------------------------------------------------------------------===//

enum class HeapMode { TwoSpace, Growth, Generational };

const char *heapModeName(HeapMode Mode) {
  switch (Mode) {
  case HeapMode::TwoSpace:
    return "two-space";
  case HeapMode::Growth:
    return "heap-growth";
  case HeapMode::Generational:
    return "gen-gc";
  }
  return "?";
}

/// One traced MB-scale run, with what the heap looked like after each
/// collection.
struct MbRun {
  PauseRun R;
  uint64_t HeapGrowths = 0, NurseryResizes = 0, CopyWasteBytes = 0;
  std::vector<uint64_t> HeapAfter;  ///< Every event's HeapAfterBytes.
  std::vector<uint64_t> WalkObjects; ///< forEachObject count per collection.
  std::vector<uint64_t> WalkBytes;   ///< ... and bytes.
  size_t FillersSeen = 0;            ///< Fillers found in from-space.
  bool FillerPlausible = false;      ///< plausibleObject accepted one.
  std::string LiveJson;              ///< Tracer live-by-site / age fields.
  bool SnapshotOk = false;
  std::string SnapshotErr;
};

MbRun runMb(HeapMode Mode, unsigned GcThreads, bool CrossCheck = false) {
  MbRun Out;
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  vm::VMOptions VO;
  VO.HeapBytes = MbHeapBytes;
  if (Mode == HeapMode::Growth) {
    VO.HeapBytes = 256u << 10;
    VO.HeapGrowthPct = 60;
  } else if (Mode == HeapMode::Generational) {
    CO.WriteBarriers = true;
    VO.GenGc = true;
    VO.HeapBytes = 2u << 20;
    VO.NurseryAuto = true;
    VO.NurseryBytes = 32u << 10;
  }
  auto C = driver::compile(mbDestroySource(), CO);
  if (!C.Prog) {
    ADD_FAILURE() << "compilation failed:\n" << C.Diags.str();
    return Out;
  }
  vm::VM M(*C.Prog, VO);
  gc::CollectorOptions GCO;
  GCO.Threads = GcThreads;
  GCO.CrossCheck = CrossCheck;
  gc::installPreciseCollector(M, GCO);

  obs::TracerConfig TC;
  TC.ProgramName = "pause-mb";
  TC.Sites = &C.Prog->SiteTab;
  obs::Tracer Tracer(std::move(TC));
  std::ostringstream OS;
  Tracer.enable(&OS);
  M.Tracer = &Tracer;

  vm::Heap &H = M.TheHeap;
  M.PostGcHook = [&](vm::VM &) {
    uint64_t Objects = 0, Bytes = 0;
    H.forEachObject([&](vm::Word P) {
      ++Objects;
      Bytes += H.objectWords(P) * sizeof(vm::Word);
    });
    Out.WalkObjects.push_back(Objects);
    Out.WalkBytes.push_back(Bytes);
    // Fillers only ever sit in old space, below the bump pointer.
    for (vm::Word P = H.fromSpaceBase(); P < H.oldAllocPtr();) {
      vm::Word Hd = *reinterpret_cast<const vm::Word *>(P);
      if (vm::Heap::isFiller(Hd)) {
        ++Out.FillersSeen;
        Out.FillerPlausible |= H.plausibleObject(P);
        P += vm::Heap::fillerWords(Hd) * sizeof(vm::Word);
      } else {
        P += H.objectWords(P) * sizeof(vm::Word);
      }
    }
  };

  Out.R.Ok = M.run();
  Tracer.finish(Out.R.Ok, M.Error);
  Out.R.Out = M.Out;
  Out.R.Error = M.Error;
  Out.R.Stats = M.Stats;
  Out.R.Events = Tracer.retainedEvents();
  Out.R.EventCount = Tracer.eventCount();
  Out.R.Trace = OS.str();
  Out.HeapGrowths = H.HeapGrowths;
  Out.NurseryResizes = H.NurseryResizes;
  Out.CopyWasteBytes = H.CopyWasteBytes;
  for (const obs::GcEvent &Ev : Out.R.Events)
    Out.HeapAfter.push_back(Ev.HeapAfterBytes);
  Out.LiveJson = Tracer.liveJsonFields(H);
  obs::HeapSnapshot Snap;
  Out.SnapshotOk =
      gc::captureHeapSnapshot(M, Snap, /*WalkStacks=*/false,
                              Out.SnapshotErr) &&
      gc::crosscheckSnapshot(M, Snap, /*WalkStacks=*/false, Out.SnapshotErr);
  return Out;
}

TEST(PauseParallel, MbScaleLiveSetMatchesSerialInEveryHeapMode) {
  for (HeapMode Mode :
       {HeapMode::TwoSpace, HeapMode::Growth, HeapMode::Generational}) {
    SCOPED_TRACE(heapModeName(Mode));
    MbRun N1 = runMb(Mode, 1);
    ASSERT_TRUE(N1.R.Ok) << N1.R.Error;
    EXPECT_EQ(N1.R.Out, MbDestroyExpected);
    ASSERT_EQ(N1.R.EventCount, N1.R.Events.size());
    EXPECT_GE(N1.R.Stats.Collections - N1.R.Stats.MinorCollections, 3u);
    EXPECT_EQ(N1.CopyWasteBytes, 0u);
    if (Mode == HeapMode::Growth) {
      EXPECT_GT(N1.HeapGrowths, 0u);
    }
    if (Mode == HeapMode::Generational) {
      EXPECT_GT(N1.NurseryResizes, 0u);
    }
    auto Check = [&](const MbRun &R) {
      ASSERT_TRUE(R.R.Ok) << R.R.Error;
      expectCoreEqual(N1.R, R.R);
      EXPECT_EQ(R.R.Stats.MinorCollections, N1.R.Stats.MinorCollections);
      EXPECT_EQ(R.HeapGrowths, N1.HeapGrowths);
      EXPECT_EQ(R.NurseryResizes, N1.NurseryResizes);
      // Filler bytes are excluded from every occupancy figure, so the
      // mutator sees exactly the room the serial collector leaves it.
      EXPECT_EQ(R.HeapAfter, N1.HeapAfter);
      EXPECT_GT(R.CopyWasteBytes, 0u);
    };
    for (unsigned N : {2u, 4u}) {
      SCOPED_TRACE("gc-threads " + std::to_string(N));
      Check(runMb(Mode, N));
    }
    SCOPED_TRACE("gc-threads 4 --gc-crosscheck");
    Check(runMb(Mode, 4, /*CrossCheck=*/true));
  }
}

TEST(PauseParallel, HeapWalkersSkipFillers) {
  MbRun N1 = runMb(HeapMode::TwoSpace, 1);
  MbRun N4 = runMb(HeapMode::TwoSpace, 4);
  ASSERT_TRUE(N1.R.Ok) << N1.R.Error;
  ASSERT_TRUE(N4.R.Ok) << N4.R.Error;
  EXPECT_EQ(N1.FillersSeen, 0u);
  EXPECT_GT(N4.FillersSeen, 0u);
  // No filler passes for an object (the conservative baseline's test).
  EXPECT_FALSE(N4.FillerPlausible);
  // forEachObject after every collection: same objects and bytes.
  EXPECT_EQ(N4.WalkObjects, N1.WalkObjects);
  EXPECT_EQ(N4.WalkBytes, N1.WalkBytes);
  // The --stats-json live-by-site and age-histogram fields.
  EXPECT_FALSE(N1.LiveJson.empty());
  EXPECT_EQ(N4.LiveJson, N1.LiveJson);
  // mgc-heapsnap's cross-check (precise recount + conservative superset)
  // on a heap that holds fillers.
  EXPECT_TRUE(N4.SnapshotOk) << N4.SnapshotErr;
}

TEST(PauseParallel, FillerWasteIsReported) {
  MbRun N4 = runMb(HeapMode::TwoSpace, 4);
  ASSERT_TRUE(N4.R.Ok) << N4.R.Error;
  ASSERT_EQ(N4.R.EventCount, N4.R.Events.size());
  std::istringstream In(N4.R.Trace);
  obs::TraceReport Report;
  std::string Err;
  ASSERT_TRUE(obs::readTrace(In, Report, Err)) << Err;
  uint64_t Waste = 0, Refills = 0;
  for (const obs::GcEvent &Ev : Report.Events) {
    Waste += Ev.CopyWasteBytes;
    for (unsigned W = 0; W != Ev.Workers; ++W)
      Refills += Ev.WorkerRefills[W];
  }
  EXPECT_EQ(Waste, N4.CopyWasteBytes);
  EXPECT_GT(Refills, 0u);
  std::string Rendered = obs::renderReport(Report, /*TopN=*/5);
  EXPECT_NE(Rendered.find("refills"), std::string::npos) << Rendered;
  EXPECT_NE(Rendered.find("copy-buffer filler waste"), std::string::npos)
      << Rendered;
}

TEST(PauseParallel, SerialHeapHasNoCopySlack) {
  for (unsigned N : {1u, 2u}) {
    SCOPED_TRACE("gc-threads " + std::to_string(N));
    auto C = driver::compile(mbDestroySource(), {});
    ASSERT_TRUE(C.Prog) << C.Diags.str();
    vm::VMOptions VO;
    VO.HeapBytes = MbHeapBytes;
    vm::VM M(*C.Prog, VO);
    gc::CollectorOptions GCO;
    GCO.Threads = N;
    gc::installPreciseCollector(M, GCO);
    ASSERT_TRUE(M.run()) << M.Error;
    ASSERT_GT(M.Stats.Collections, 0u);
    const vm::Heap &H = M.TheHeap;
    if (N == 1) {
      // Only a parallel collector leaves fillers, so only it pays for
      // the slack they need.
      EXPECT_EQ(H.fromSpaceBufferBytes(), H.capacityBytes());
      EXPECT_EQ(H.toSpaceBufferBytes(), H.capacityBytes());
      EXPECT_EQ(H.CopyWasteBytes, 0u);
      EXPECT_EQ(H.fromSpaceWasteBytes(), 0u);
    } else {
      EXPECT_GT(H.fromSpaceBufferBytes(), H.capacityBytes());
      EXPECT_GT(H.toSpaceBufferBytes(), H.capacityBytes());
      EXPECT_GT(H.CopyWasteBytes, 0u);
      EXPECT_LE(H.capacityBytes() + H.fromSpaceWasteBytes(),
                H.fromSpaceBufferBytes());
    }
  }
}

//===----------------------------------------------------------------------===//
// Rendezvous-budget diagnostic (§5.3 per-thread handshakes)
//===----------------------------------------------------------------------===//

/// Main allocates; Spin loops without ever reaching a gc-point when
/// compiled without loop polls.
const char *NoPollSpinSource = R"(
MODULE M;
TYPE R = REF RECORD v: INTEGER; n: R END;
VAR done: BOOLEAN; head: R;

PROCEDURE Spin();
VAR i: INTEGER;
BEGIN
  i := 0;
  WHILE NOT done DO INC(i) END
END Spin;

BEGIN
  done := FALSE;
  FOR k := 1 TO 400 DO
    head := NEW(R);
    head^.v := k
  END;
  done := TRUE;
  PutInt(head^.v); PutLn();
END M.)";

TEST(PauseRendezvous, BudgetExhaustionDiagnosticIsDeterministic) {
  auto Run = [&](vm::DispatchTier Tier) {
    return runPause(NoPollSpinSource, 1, /*HeapBytes=*/8u << 10, Tier,
                    /*CrossCheck=*/false, /*UseDefaultCollector=*/false,
                    /*RendezvousBudget=*/1000, /*SpawnSpin=*/1);
  };
  PauseRun A = Run(vm::DispatchTier::Threaded);
  ASSERT_FALSE(A.Ok);
  EXPECT_NE(A.Error.find("rendezvous budget exhausted"), std::string::npos)
      << A.Error;
  EXPECT_NE(A.Error.find("thread 1"), std::string::npos) << A.Error;
  EXPECT_NE(A.Error.find("loop polls"), std::string::npos) << A.Error;

  // Deterministic: the same run produces the same diagnostic (same
  // offending thread, same pc), and both dispatch tiers agree — the
  // handshake engine is shared.
  PauseRun B = Run(vm::DispatchTier::Threaded);
  EXPECT_EQ(A.Error, B.Error);
  PauseRun C = Run(vm::DispatchTier::Switch);
  EXPECT_EQ(A.Error, C.Error);
  expectCoreEqual(A, C);

  // The failed partial run still flushes coherent stats and a parseable
  // trace: the budget fails the rendezvous *before* the collection is
  // counted, so events == Collections holds and the mutator's progress
  // up to the failing gc-point is preserved.
  for (const PauseRun *R : {&A, &C}) {
    EXPECT_EQ(R->EventCount, R->Stats.Collections);
    std::istringstream In(R->Trace);
    obs::TraceReport Report;
    std::string Err;
    ASSERT_TRUE(obs::readTrace(In, Report, Err)) << Err;
    ASSERT_TRUE(Report.HasRun);
    EXPECT_FALSE(Report.RunOk);
    EXPECT_NE(Report.RunError.find("rendezvous budget exhausted"),
              std::string::npos);
  }
}

//===----------------------------------------------------------------------===//
// Threaded-tier error-path flush
//===----------------------------------------------------------------------===//

TEST(PauseThreadedFlush, FailedRunFlushesTraceInBothTiers) {
  // Unbounded list growth: dies with "heap exhausted" after several
  // successful collections.  Both tiers must leave a complete trace.
  const char *Leak = R"(MODULE Leak;
TYPE Node = REF RECORD next: Node; pad: INTEGER END;
VAR head: Node; n: Node;
BEGIN
  WHILE TRUE DO
    n := NEW(Node);
    n.next := head;
    head := n
  END;
END Leak.
)";
  for (vm::DispatchTier Tier :
       {vm::DispatchTier::Threaded, vm::DispatchTier::Switch}) {
    for (unsigned N : {1u, 4u}) {
      SCOPED_TRACE(std::string(vm::dispatchTierName(Tier)) + " gc-threads " +
                   std::to_string(N));
      PauseRun R = runPause(Leak, N, /*HeapBytes=*/8u << 10, Tier);
      ASSERT_FALSE(R.Ok);
      EXPECT_NE(R.Error.find("heap exhausted"), std::string::npos)
          << R.Error;
      EXPECT_GT(R.Stats.Collections, 0u);
      checkEventInvariants(R, N);
      std::istringstream In(R.Trace);
      obs::TraceReport Report;
      std::string Err;
      ASSERT_TRUE(obs::readTrace(In, Report, Err)) << Err;
      ASSERT_TRUE(Report.HasRun);
      EXPECT_FALSE(Report.RunOk);
      EXPECT_EQ(Report.Events.size(), R.Stats.Collections);
      std::string Rendered = obs::renderReport(Report, /*TopN=*/5);
      EXPECT_NE(Rendered.find("FAILED"), std::string::npos);
    }
  }
}

//===----------------------------------------------------------------------===//
// Zero-collection report
//===----------------------------------------------------------------------===//

TEST(PauseReport, ZeroCollectionTraceRendersCleanly) {
  const char *Tiny = R"(MODULE Tiny;
VAR x: INTEGER;
BEGIN
  x := 41;
  PutInt(x + 1); PutLn();
END Tiny.
)";
  // 4 MiB default heap: no collection ever triggers.
  PauseRun R = runPause(Tiny, 1, /*HeapBytes=*/4u << 20);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Out, "42\n");
  EXPECT_EQ(R.Stats.Collections, 0u);
  std::istringstream In(R.Trace);
  obs::TraceReport Report;
  std::string Err;
  ASSERT_TRUE(obs::readTrace(In, Report, Err)) << Err;
  EXPECT_TRUE(Report.Events.empty());
  std::string Rendered = obs::renderReport(Report, /*TopN=*/5);
  EXPECT_NE(Rendered.find("no collections recorded"), std::string::npos)
      << Rendered;
}

} // namespace
