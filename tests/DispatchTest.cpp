//===- tests/DispatchTest.cpp - Cross-tier execution equivalence ----------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The threaded dispatch tier must be *bit-identical* to the reference
/// switch interpreter on everything the VM can observe: program output,
/// exit status, and every non-timing VMStats field — including the
/// table-driven collection counts, which only match if gc-point ordinals,
/// SuspendPCs, and the per-collection Stats.Instrs snapshots agree.  The
/// suite sweeps the §6 benchmarks and the frozen fuzz corpus across
/// -O0/-O2 × two-space/gen-gc, and directs a stressed, cross-checked
/// collection storm through the threaded executor so every root/derived
/// decode happens at a PC the threaded tier published mid-quantum.
///
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "Programs.h"
#include "TestUtil.h"

#include "obs/Trace.h"
#include "workload/Server.h"

#include <gtest/gtest.h>

#include <set>

using namespace mgc;
using namespace mgc::test;

namespace {

struct TierOutcome {
  bool Ok = false;
  std::string Out;
  std::string Error;
  vm::VMStats S;
  std::vector<uint32_t> PCs; ///< Each thread's final PC.
  /// Main thread's final registers.  Not compared across tiers: they may
  /// hold heap addresses, which differ between two VMs.
  std::vector<vm::Word> R;
};

/// Runs an already-compiled program under one dispatch tier, with
/// \p SpawnSpin threads running its Spin() procedure (if it has one).
TierOutcome runTier(const vm::Program &Prog, vm::DispatchTier Tier,
                    vm::VMOptions VO, gc::CollectorOptions GCO,
                    unsigned SpawnSpin = 0, obs::Tracer *Tracer = nullptr) {
  VO.Dispatch = Tier;
  vm::VM M(Prog, VO);
  gc::installPreciseCollector(M, GCO);
  M.Tracer = Tracer;
  int Idx = -1;
  for (unsigned F = 0; F != Prog.Funcs.size(); ++F)
    if (Prog.Funcs[F].Name == "Spin")
      Idx = static_cast<int>(F);
  for (unsigned K = 0; K != SpawnSpin && Idx >= 0; ++K)
    M.spawnThread(static_cast<unsigned>(Idx));
  TierOutcome O;
  O.Ok = M.run();
  O.Out = M.Out;
  O.Error = M.Error;
  O.S = M.Stats;
  for (const auto &T : M.Threads)
    O.PCs.push_back(T->PC);
  O.R.assign(M.Threads[0]->R, M.Threads[0]->R + vm::NumRegs);
  return O;
}

/// Asserts the two tiers agree on every non-timing observable.  Timing
/// fields (GcNanos etc.) necessarily differ; everything else must not.
void expectIdentical(const TierOutcome &Sw, const TierOutcome &Th,
                     const std::string &Ctx) {
  EXPECT_EQ(Sw.Ok, Th.Ok) << Ctx;
  EXPECT_EQ(Sw.Out, Th.Out) << Ctx;
  EXPECT_EQ(Sw.Error, Th.Error) << Ctx;
  EXPECT_EQ(Sw.PCs, Th.PCs) << Ctx << " (final PCs)";
#define CMP(F) EXPECT_EQ(Sw.S.F, Th.S.F) << Ctx << " (" #F ")"
  CMP(Instrs);
  CMP(Collections);
  CMP(MinorCollections);
  CMP(FramesTraced);
  CMP(BytesCopied);
  CMP(ObjectsCopied);
  CMP(WriteBarriersRun);
  CMP(RemSetRecords);
  CMP(RemSetPeak);
  CMP(DerivedAdjusted);
  CMP(RootsTraced);
  CMP(DecodeCacheHits);
  CMP(DecodeCacheMisses);
  CMP(DecodeBytesSkipped);
  CMP(StackTraceStartInstrs);
  CMP(RendezvousSteps);
#undef CMP
}

/// Compiles \p Source and runs it under both tiers with identical options,
/// asserting bit-identical outcomes.  Returns the threaded outcome for
/// extra expectations.
TierOutcome compareTiers(const std::string &Source,
                         driver::CompilerOptions CO, vm::VMOptions VO,
                         gc::CollectorOptions GCO, const std::string &Ctx,
                         bool SpawnSpin = false) {
  auto C = driver::compile(Source, CO);
  if (!C.Prog) {
    ADD_FAILURE() << Ctx << " compilation failed:\n" << C.Diags.str();
    return {};
  }
  TierOutcome Sw =
      runTier(*C.Prog, vm::DispatchTier::Switch, VO, GCO, SpawnSpin);
  TierOutcome Th =
      runTier(*C.Prog, vm::DispatchTier::Threaded, VO, GCO, SpawnSpin);
  expectIdentical(Sw, Th, Ctx);
  return Th;
}

//===----------------------------------------------------------------------===//
// §6 benchmarks: -O0/-O2 × two-space/gen-gc
//===----------------------------------------------------------------------===//

TEST(DispatchEquivalence, Sec6Benchmarks) {
  uint64_t TotalCollections = 0;
  for (const programs::NamedProgram &P : programs::All) {
    for (int Opt : {0, 2}) {
      for (bool GenGc : {false, true}) {
        driver::CompilerOptions CO;
        CO.OptLevel = Opt;
        CO.WriteBarriers = GenGc;
        vm::VMOptions VO;
        VO.GenGc = GenGc;
        // Small enough that the allocation-heavy benchmarks collect
        // repeatedly (48 KiB is the e2e sweep's non-stress pressure size).
        VO.HeapBytes = 48u << 10;
        gc::CollectorOptions GCO;
        GCO.CrossCheck = true;
        std::string Ctx = std::string(P.Name) + " -O" +
                          std::to_string(Opt) +
                          (GenGc ? " gen-gc" : " two-space");
        TierOutcome Th = compareTiers(P.Source, CO, VO, GCO, Ctx);
        EXPECT_TRUE(Th.Ok) << Ctx << ": " << Th.Error;
        EXPECT_EQ(Th.Out, P.Expected) << Ctx;
        TotalCollections += Th.S.Collections;
      }
    }
  }
  // The sweep as a whole must exercise cross-tier collections, even if an
  // individual benchmark fits the pressure heap without collecting.
  EXPECT_GT(TotalCollections, 0u);
}

//===----------------------------------------------------------------------===//
// Frozen fuzz corpus, stressed and under heap pressure
//===----------------------------------------------------------------------===//

class DispatchCorpus : public ::testing::TestWithParam<std::string> {};

TEST_P(DispatchCorpus, TiersBitIdentical) {
  const CorpusProgram &P = corpusProgram(GetParam());
  for (int Opt : {0, 2}) {
    for (bool GenGc : {false, true}) {
      driver::CompilerOptions CO;
      CO.OptLevel = Opt;
      CO.WriteBarriers = GenGc;
      CO.ThreadedPolls = P.HasSpin;
      vm::VMOptions VO;
      VO.GenGc = GenGc;
      VO.HeapBytes = 1u << 20;
      VO.GcStress = true;
      VO.InstrBudget = 50'000'000;
      gc::CollectorOptions GCO;
      GCO.CrossCheck = true;
      std::string Ctx = P.Name + " -O" + std::to_string(Opt) +
                        (GenGc ? " gen-gc" : " two-space") + " stress";
      // Spin programs also spawn their thread: the §5.3 rendezvous (and
      // its RendezvousSteps ordinal) must agree across tiers too.
      compareTiers(P.Source, CO, VO, GCO, Ctx, P.HasSpin);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, DispatchCorpus,
                         ::testing::ValuesIn(corpusNames()),
                         [](const ::testing::TestParamInfo<std::string> &I) {
                           return I.param;
                         });

//===----------------------------------------------------------------------===//
// Directed: collections triggered mid-threaded-execution
//===----------------------------------------------------------------------===//

TEST(DispatchDirected, MidExecutionCollectionCrosscheck) {
  // Allocation inside a call chain inside a loop: every collection is
  // triggered from deep inside a threaded quantum, so the gc-point PC the
  // executor publishes (and the frames the tables describe there) is
  // exercised at many distinct call depths.  --gc-crosscheck makes the
  // collector verify every accelerated root/derived decode against the
  // reference decoder, aborting on mismatch.
  const char *Source = R"(
MODULE M;
TYPE Node = REF RECORD next: Node; val: INTEGER END;

PROCEDURE Build(n: INTEGER): Node;
VAR head, p: Node; i: INTEGER;
BEGIN
  head := NIL;
  FOR i := 0 TO n - 1 DO
    p := NEW(Node);
    p^.next := head;
    p^.val := i;
    head := p
  END;
  RETURN head
END Build;

PROCEDURE Sum(l: Node): INTEGER;
VAR s: INTEGER;
BEGIN
  s := 0;
  WHILE l # NIL DO s := s + l^.val; l := l^.next END;
  RETURN s
END Sum;

VAR r, k: INTEGER;
BEGIN
  r := 0;
  FOR k := 1 TO 40 DO
    r := r + Sum(Build(50))
  END;
  PutInt(r); PutLn();
END M.)";
  for (bool GenGc : {false, true}) {
    driver::CompilerOptions CO;
    CO.WriteBarriers = GenGc;
    vm::VMOptions VO;
    VO.GenGc = GenGc;
    VO.HeapBytes = 256u << 10;
    VO.GcStress = true;
    gc::CollectorOptions GCO;
    GCO.CrossCheck = true;
    auto C = driver::compile(Source, CO);
    ASSERT_TRUE(C.Prog) << C.Diags.str();
    TierOutcome Th = runTier(*C.Prog, vm::DispatchTier::Threaded, VO, GCO);
    ASSERT_TRUE(Th.Ok) << Th.Error;
    EXPECT_EQ(Th.Out, "49000\n");
    EXPECT_GT(Th.S.Collections, 100u)
        << "stress mode must collect at every allocation";
    // And the tiers agree on the storm, collection for collection.
    TierOutcome Sw = runTier(*C.Prog, vm::DispatchTier::Switch, VO, GCO);
    expectIdentical(Sw, Th, GenGc ? "directed gen-gc" : "directed two-space");
  }
}

//===----------------------------------------------------------------------===//
// Runtime errors: same diagnostic, same instruction, same counts
//===----------------------------------------------------------------------===//

struct ErrorCase {
  const char *Name;
  const char *Source;
  const char *Error; ///< The exact diagnostic.
  vm::MOp At;        ///< The faulting instruction, where the run stops.
  size_t StackWords = 1u << 16;
  size_t HeapBytes = 4u << 20;
  bool Cisc = false;  ///< Fold memory operands into arithmetic.
  bool Spawn = false; ///< Spawn Spin; GcStress makes main's first NEW
                      ///< single-step it through the rendezvous.
};

const ErrorCase ErrorCases[] = {
    {"nil", R"(
MODULE M;
TYPE R = REF RECORD x: INTEGER END;
VAR r: R;
BEGIN
  r := NIL;
  PutInt(r^.x);
END M.)",
     "NIL dereference (address 8)", vm::MOp::Mov},
    {"div", R"(
MODULE M;
VAR a, b: INTEGER;
BEGIN
  a := 1; b := 0;
  PutInt(a DIV b);
END M.)",
     "integer division by zero", vm::MOp::Div},
    {"mod", R"(
MODULE M;
VAR a, b: INTEGER;
BEGIN
  a := 7; b := 0;
  PutInt(a MOD b);
END M.)",
     "integer modulus by zero", vm::MOp::Mod},
    {"negative-length", R"(
MODULE M;
TYPE V = REF ARRAY OF INTEGER;
VAR v: V; n: INTEGER;
BEGIN
  n := 2 - 5;
  v := NEW(V, n);
  PutInt(NUMBER(v));
END M.)",
     "negative open array length", vm::MOp::NewArr},
    {"missing-return", R"(
MODULE M;
PROCEDURE F(x: INTEGER): INTEGER;
BEGIN
  IF x > 0 THEN RETURN 1 END
END F;
BEGIN
  PutInt(F(-1));
END M.)",
     "trap: function ended without RETURN", vm::MOp::Trap},
    {.Name = "stack-overflow",
     .Source = R"(
MODULE M;
PROCEDURE Loop(n: INTEGER): INTEGER;
BEGIN
  RETURN Loop(n + 1)
END Loop;
BEGIN
  PutInt(Loop(0));
END M.)",
     .Error = "stack overflow calling Loop",
     .At = vm::MOp::Call,
     .StackWords = 4096},
    {.Name = "heap-exhausted",
     .Source = R"(
MODULE M;
TYPE R = REF RECORD v: INTEGER; next: R END;
VAR head, n: R;
BEGIN
  head := NIL;
  LOOP
    n := NEW(R);
    n^.next := head;
    head := n
  END;
END M.)",
     .Error = "heap exhausted: 2040 bytes live of 2048",
     .At = vm::MOp::NewObj,
     .HeapBytes = 2048},
    // h * r^.v folds to `mul rD, rD, [rN+8]`: the failing read yields 0
    // and the multiply's write still happens.
    {.Name = "nil-cisc-operand",
     .Source = R"(
MODULE M;
TYPE R = REF RECORD v: INTEGER END;
VAR r: R; g, h: INTEGER;
BEGIN
  r := NIL;
  h := 3;
  g := h * r^.v;
  PutInt(g);
END M.)",
     .Error = "NIL dereference (address 8)",
     .At = vm::MOp::Mul,
     .Cisc = true},
    // Spin has no gc-point before its fault (no loop polls), so the
    // handshake for main's first collection steps it into the division.
    {.Name = "fault-in-handshake",
     .Source = R"(
MODULE M;
TYPE N = REF RECORD v: INTEGER END;
VAR z, i: INTEGER; p: N;

PROCEDURE Spin();
VAR k: INTEGER;
BEGIN
  k := 0;
  WHILE k < 1000 DO k := k + 1 END;
  PutInt(100 DIV z);
END Spin;

BEGIN
  FOR i := 1 TO 10 DO p := NEW(N) END;
  PutInt(7); PutLn();
END M.)",
     .Error = "integer division by zero",
     .At = vm::MOp::Div,
     .Spawn = true},
};

TEST(DispatchErrors, SameDiagnosticAtSameInstruction) {
  for (const ErrorCase &E : ErrorCases) {
    for (int Opt : {0, 2}) {
      driver::CompilerOptions CO;
      CO.OptLevel = Opt;
      CO.CiscFold = E.Cisc;
      vm::VMOptions VO;
      VO.StackWords = E.StackWords;
      VO.HeapBytes = E.HeapBytes;
      VO.GcStress = E.Spawn;
      std::string Ctx = std::string(E.Name) + " -O" + std::to_string(Opt);
      auto C = driver::compile(E.Source, CO);
      ASSERT_TRUE(C.Prog) << Ctx << ":\n" << C.Diags.str();
      TierOutcome Sw = runTier(*C.Prog, vm::DispatchTier::Switch, VO, {},
                               E.Spawn);
      TierOutcome Th = runTier(*C.Prog, vm::DispatchTier::Threaded, VO, {},
                               E.Spawn);
      expectIdentical(Sw, Th, Ctx);
      EXPECT_FALSE(Th.Ok) << Ctx;
      EXPECT_EQ(Th.Error, E.Error) << Ctx;

      // The faulting thread (the spawned one, if any) stops at the
      // instruction that faulted; main stops at the NEW whose collection
      // single-stepped it.
      const vm::MInstr &Last = C.Prog->Code[Th.PCs.back()];
      EXPECT_EQ(Last.Op, E.At) << Ctx;
      if (E.Spawn) {
        EXPECT_EQ(C.Prog->Code[Th.PCs[0]].Op, vm::MOp::NewObj) << Ctx;
        EXPECT_GT(Th.S.RendezvousSteps, 1000u) << Ctx;
        EXPECT_EQ(Th.S.Collections, 0u) << Ctx << ": rendezvous failed";
      }
      if (E.Cisc) {
        ASSERT_EQ(Last.D.K, vm::MOperand::Kind::Reg) << Ctx;
        EXPECT_EQ(Last.B.K, vm::MOperand::Kind::MemReg) << Ctx;
        // 3 * 0, not the 3 the destination held before.
        EXPECT_EQ(Sw.R[Last.D.Reg], 0u) << Ctx;
        EXPECT_EQ(Th.R[Last.D.Reg], 0u) << Ctx;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Tier selection plumbing
//===----------------------------------------------------------------------===//

TEST(DispatchTier, NamesAndActiveSelection) {
  EXPECT_STREQ(vm::dispatchTierName(vm::DispatchTier::Threaded), "threaded");
  EXPECT_STREQ(vm::dispatchTierName(vm::DispatchTier::Switch), "switch");

  driver::CompilerOptions CO;
  auto C =
      driver::compile("MODULE M;\nBEGIN PutInt(1); PutLn();\nEND M.", CO);
  ASSERT_TRUE(C.Prog) << C.Diags.str();
  vm::VMOptions VO;
  VO.Dispatch = vm::DispatchTier::Switch;
  vm::VM M(*C.Prog, VO);
  EXPECT_EQ(M.Opts.Dispatch, vm::DispatchTier::Switch);
  vm::VMOptions VT; // default
  vm::VM N(*C.Prog, VT);
  EXPECT_EQ(N.Opts.Dispatch, vm::DispatchTier::Threaded);
}

//===----------------------------------------------------------------------===//
// Quantum boundaries, fused pairs and the scheduler
//===----------------------------------------------------------------------===//

/// A compiled program for the quantum sweeps, with how many Spin threads
/// to run next to it.
struct QuantumProgram {
  std::string Name;
  std::unique_ptr<vm::Program> Prog;
  unsigned Spins = 0;
};

/// The §6 programs (one thread) and four short server programs with two
/// spin threads each, compiled for \p GenGc.
std::vector<QuantumProgram> quantumPrograms(bool GenGc) {
  std::vector<QuantumProgram> Out;
  driver::CompilerOptions CO;
  CO.WriteBarriers = GenGc;
  CO.ThreadedPolls = true;
  for (const programs::NamedProgram &P : programs::All) {
    auto C = driver::compile(P.Source, CO);
    EXPECT_TRUE(C.Prog) << P.Name << ":\n" << C.Diags.str();
    if (C.Prog)
      Out.push_back({P.Name, std::move(C.Prog), 0});
  }
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    workload::ServerProgramConfig PC;
    PC.Seed = Seed;
    PC.Requests = 150;
    PC.Spin = true;
    auto C = driver::compile(workload::generateServerProgram(PC), CO);
    EXPECT_TRUE(C.Prog) << "server " << Seed << ":\n" << C.Diags.str();
    if (C.Prog)
      Out.push_back({"server" + std::to_string(Seed), std::move(C.Prog), 2});
  }
  return Out;
}

TEST(DispatchQuantum, TiersIdenticalAtEveryQuantum) {
  // Quantum 1 ends every quantum inside a fused pair's first half, 2 and 3
  // split pairs at alternating places, 61 is the default.  A thread that
  // runs alone must not see its quantum: its counts cannot depend on it.
  for (bool GenGc : {false, true}) {
    uint64_t Collections = 0, RendezvousSteps = 0;
    for (QuantumProgram &P : quantumPrograms(GenGc)) {
      TierOutcome Ref;
      for (uint64_t Q : {61, 1, 2, 3, 5}) {
        vm::VMOptions VO;
        VO.GenGc = GenGc;
        VO.HeapBytes = P.Spins ? 8u << 10 : 48u << 10;
        VO.Quantum = Q;
        std::string Ctx = P.Name + (GenGc ? " gen-gc" : " two-space") +
                          " quantum " + std::to_string(Q);
        TierOutcome Sw =
            runTier(*P.Prog, vm::DispatchTier::Switch, VO, {}, P.Spins);
        TierOutcome Th =
            runTier(*P.Prog, vm::DispatchTier::Threaded, VO, {}, P.Spins);
        expectIdentical(Sw, Th, Ctx);
        EXPECT_TRUE(Th.Ok) << Ctx << ": " << Th.Error;
        Collections += Th.S.Collections;
        RendezvousSteps += Th.S.RendezvousSteps;
        if (Q == 61)
          Ref = Th;
        else if (P.Spins == 0)
          expectIdentical(Ref, Th, Ctx + " against quantum 61");
      }
    }
    // The sweep must collect, and stop spin threads for the rendezvous.
    EXPECT_GT(Collections, 0u);
    EXPECT_GT(RendezvousSteps, 0u);
  }
}

TEST(DispatchQuantum, EveryFusedPairIsSelected) {
  std::set<std::string> Seen;
  for (bool GenGc : {false, true})
    for (QuantumProgram &P : quantumPrograms(GenGc)) {
      vm::VM M(*P.Prog);
      for (uint32_t PC = 0; PC != P.Prog->Code.size(); ++PC)
        if (const char *Name = M.fusedPairAt(PC))
          Seen.insert(Name);
      vm::VMOptions Sw;
      Sw.Dispatch = vm::DispatchTier::Switch;
      vm::VM N(*P.Prog, Sw);
      for (uint32_t PC = 0; PC != P.Prog->Code.size(); ++PC)
        EXPECT_EQ(N.fusedPairAt(PC), nullptr) << "switch tier, pc " << PC;
    }
  for (const std::string &Name : vm::VM::fusedPairNames())
    EXPECT_TRUE(Seen.count(Name)) << Name << " is never selected";
}

TEST(DispatchQuantum, InstrBudgetFailsAtTheSameCount) {
  // Budget failures are checked at quantum ends: the run stops at the first
  // quantum end past the budget, with one thread as with three.
  const char *Source = R"(
MODULE M;
VAR done: BOOLEAN; i: INTEGER;

PROCEDURE Spin();
VAR k: INTEGER;
BEGIN
  k := 0;
  WHILE NOT done DO INC(k) END
END Spin;

BEGIN
  done := FALSE;
  i := 0;
  LOOP INC(i) END
END M.)";
  driver::CompilerOptions CO;
  CO.ThreadedPolls = true;
  auto C = driver::compile(Source, CO);
  ASSERT_TRUE(C.Prog) << C.Diags.str();
  for (unsigned Spins : {0u, 2u})
    for (uint64_t Q : {1, 2, 5, 61})
      for (uint64_t Budget : {1000, 4321, 100000}) {
        vm::VMOptions VO;
        VO.Quantum = Q;
        VO.InstrBudget = Budget;
        std::string Ctx = std::to_string(Spins + 1) + " threads, quantum " +
                          std::to_string(Q) + ", budget " +
                          std::to_string(Budget);
        TierOutcome Sw =
            runTier(*C.Prog, vm::DispatchTier::Switch, VO, {}, Spins);
        TierOutcome Th =
            runTier(*C.Prog, vm::DispatchTier::Threaded, VO, {}, Spins);
        expectIdentical(Sw, Th, Ctx);
        EXPECT_EQ(Th.Error, "instruction budget exceeded") << Ctx;
        EXPECT_EQ(Th.S.Instrs, (Budget / Q + 1) * Q) << Ctx;
      }
}

//===----------------------------------------------------------------------===//
// The inline allocation fast path
//===----------------------------------------------------------------------===//

/// Allocates a list of small records (fast path), then open arrays of
/// \p ArrayLen elements (sized at run time).
std::string allocSource(int ArrayLen) {
  return R"(
MODULE M;
TYPE Node = REF RECORD next: Node; val: INTEGER END;
     Vec = REF ARRAY OF INTEGER;
VAR head, p: Node; v: Vec; i, s: INTEGER;
BEGIN
  head := NIL;
  FOR i := 1 TO 3000 DO
    p := NEW(Node);
    p^.next := head;
    p^.val := i;
    IF i MOD 100 = 0 THEN head := NIL ELSE head := p END
  END;
  s := 0;
  FOR i := 1 TO 6 DO
    v := NEW(Vec, )" + std::to_string(ArrayLen) + R"();
    v^[0] := i;
    s := s + v^[0] + NUMBER(v)
  END;
  PutInt(s); PutLn();
END M.)";
}

/// Sum of the tracer's per-site allocation counts.
uint64_t tracedAllocs(const obs::Tracer &Tr) {
  uint64_t N = 0;
  for (const obs::SiteCounters &C : Tr.siteCounters())
    N += C.Count;
  return N;
}

TEST(DispatchAlloc, SlowPathCasesMatchAcrossTiers) {
  struct Case {
    const char *Name;
    bool GenGc, Stress;
    unsigned GrowthPct;
    size_t HeapBytes, NurseryBytes;
    int ArrayLen;
  };
  const Case Cases[] = {
      {"stress", false, true, 0, 64u << 10, 0, 16},
      {"stress gen-gc", true, true, 0, 64u << 10, 0, 16},
      {"heap growth", false, false, 60, 8u << 10, 0, 400},
      {"nursery exhaustion", true, false, 0, 64u << 10, 1u << 10, 16},
      {"larger than the nursery", true, false, 0, 64u << 10, 1u << 10, 600},
  };
  for (const Case &K : Cases) {
    driver::CompilerOptions CO;
    CO.WriteBarriers = K.GenGc;
    auto C = driver::compile(allocSource(K.ArrayLen), CO);
    ASSERT_TRUE(C.Prog) << K.Name << ":\n" << C.Diags.str();
    vm::VMOptions VO;
    VO.GenGc = K.GenGc;
    VO.GcStress = K.Stress;
    VO.HeapGrowthPct = K.GrowthPct;
    VO.HeapBytes = K.HeapBytes;
    VO.NurseryBytes = K.NurseryBytes;
    gc::CollectorOptions GCO;
    GCO.CrossCheck = true;
    obs::TracerConfig TC;
    TC.Sites = &C.Prog->SiteTab;
    obs::Tracer TrSw(TC), TrTh(TC);
    TrSw.enable(nullptr);
    TrTh.enable(nullptr);
    TierOutcome Sw =
        runTier(*C.Prog, vm::DispatchTier::Switch, VO, GCO, 0, &TrSw);
    TierOutcome Th =
        runTier(*C.Prog, vm::DispatchTier::Threaded, VO, GCO, 0, &TrTh);
    expectIdentical(Sw, Th, K.Name);
    ASSERT_TRUE(Th.Ok) << K.Name << ": " << Th.Error;
    int64_t Expect = 6 * K.ArrayLen + 21;
    EXPECT_EQ(Th.Out, std::to_string(Expect) + "\n") << K.Name;
    EXPECT_GT(Th.S.Collections, 0u) << K.Name;
    EXPECT_EQ(tracedAllocs(TrTh), 3006u) << K.Name;
    for (size_t S = 0; S != TrSw.siteCounters().size(); ++S) {
      EXPECT_EQ(TrSw.siteCounters()[S].Count, TrTh.siteCounters()[S].Count)
          << K.Name << " site " << S;
      EXPECT_EQ(TrSw.siteCounters()[S].Bytes, TrTh.siteCounters()[S].Bytes)
          << K.Name << " site " << S;
    }
  }
}

TEST(DispatchAlloc, HeadersCountsAndTracerAgree) {
  // No collection: every object the run allocated is still in the heap,
  // so the header sites must reproduce the tracer's per-site counts, and
  // the heap's own allocation counters must equal their sum — with the
  // tracer absent, attached but disabled, or enabled, on both tiers.
  driver::CompilerOptions CO;
  auto C = driver::compile(allocSource(16), CO);
  ASSERT_TRUE(C.Prog) << C.Diags.str();
  obs::TracerConfig TC;
  TC.Sites = &C.Prog->SiteTab;
  obs::Tracer Enabled(TC);
  Enabled.enable(nullptr);
  std::vector<uint64_t> Expected; // Per-site counts of the enabled run.
  for (vm::DispatchTier Tier :
       {vm::DispatchTier::Switch, vm::DispatchTier::Threaded})
    for (int Mode = 0; Mode != 3; ++Mode) {
      std::string Ctx = std::string(vm::dispatchTierName(Tier)) +
                        (Mode == 0 ? " no tracer"
                                   : Mode == 1 ? " disabled tracer"
                                               : " enabled tracer");
      vm::VMOptions VO;
      VO.Dispatch = Tier;
      VO.HeapBytes = 1u << 20;
      vm::VM M(*C.Prog, VO);
      gc::installPreciseCollector(M);
      obs::Tracer Disabled(TC), Tr(TC);
      if (Mode == 2)
        Tr.enable(nullptr);
      M.Tracer = Mode == 0 ? nullptr : Mode == 1 ? &Disabled : &Tr;
      ASSERT_TRUE(M.run()) << Ctx << ": " << M.Error;
      ASSERT_EQ(M.Stats.Collections, 0u) << Ctx;
      EXPECT_EQ(tracedAllocs(Disabled), 0u) << Ctx;
      std::vector<uint64_t> BySite(C.Prog->SiteTab.Sites.size(), 0);
      uint64_t Objects = 0, Bytes = 0;
      M.TheHeap.forEachObject([&](vm::Word Obj) {
        uint32_t Site = vm::Heap::headerSite(*reinterpret_cast<vm::Word *>(Obj));
        ASSERT_LT(Site, BySite.size()) << Ctx;
        ++BySite[Site];
        ++Objects;
        Bytes += M.TheHeap.objectWords(Obj) * sizeof(vm::Word);
      });
      EXPECT_EQ(M.TheHeap.ObjectsAllocated, Objects) << Ctx;
      EXPECT_EQ(M.TheHeap.BytesAllocated, Bytes) << Ctx;
      EXPECT_EQ(Objects, 3006u) << Ctx;
      if (Mode == 2) {
        std::vector<uint64_t> Traced;
        for (const obs::SiteCounters &SC : Tr.siteCounters())
          Traced.push_back(SC.Count);
        EXPECT_EQ(Traced, BySite) << Ctx;
        if (Expected.empty())
          Expected = Traced;
      }
      if (!Expected.empty()) {
        EXPECT_EQ(BySite, Expected) << Ctx;
      }
    }
}

} // namespace
