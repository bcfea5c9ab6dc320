//===- bench/pause.cpp - Bounded-pause benchmark gate ----------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures stop-the-world pause times (p50/p99/max) and the minimum
/// mutator utilization (MMU) curve for the §6 benchmark programs, an
/// MB-scale destroy (destroy-mb: about 3 MB live, recorded but not gated),
/// and a high-thread-count spin mix, at --gc-threads 1, 2, and 4.  Pauses are
/// the tracer's per-event TotalNanos (rendezvous + collector span);
/// pause *intervals* for the MMU computation are reconstructed from the
/// VM's PostGcHook, which fires at the end of every pause.
///
/// Correctness gates (always enforced, exit 1 on failure):
///  - an explicit --gc-threads 1 run is bit-identical to the default
///    (option-free) collector on every deterministic GC observable,
///    including the decode-cache counters;
///  - N=2 and N=4 reproduce N=1's output, instruction count, collection
///    count, roots, frames, objects/bytes copied, and derived
///    adjustments (per-worker decode caches legitimately shift the
///    cache hit/miss split, so those two counters are excluded at N>1);
///  - an N=4 run under --gc-crosscheck and one under the switch dispatch
///    tier agree as well.
///
/// Speedup gate: --gc-threads 4 must cut the max pause by >= 1.5x vs
/// --gc-threads 1 on the large-live-set §6 workloads (typereg, destroy).
/// Parallel speedup needs parallel hardware: on hosts with fewer than 4
/// cores the gate is recorded but skipped (same convention as
/// bench/dispatch's no-computed-goto skip).  Writes BENCH_pause.json.
///
///   MGC_PAUSE_RUNS=N   timing repetitions (default 3)
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "Programs.h"

#include "obs/Trace.h"
#include "support/Provenance.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace mgc;
using bench::jf, bench::ji;

namespace {

constexpr double GatePauseRatio = 1.5;

/// The high-thread-count mix: Main churns a small self-looped list (only
/// the head survives, so collections are frequent and cheap) while six
/// Spin threads run allocation-free loops whose compiler-inserted polls
/// are each rendezvous' gc-points.
const char *SpinMixSource = R"(
MODULE SpinMix;
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
  FOR k := 1 TO 30000 DO
    head := NEW(R);
    head^.v := k;
    head^.n := head
  END;
  done := TRUE;
  PutInt(head^.v); PutLn();
END SpinMix.)";
constexpr unsigned SpinMixThreads = 6;

struct Workload {
  std::string Name;
  std::unique_ptr<vm::Program> Prog;
  size_t HeapBytes = 1u << 20;
  unsigned SpawnFunc = 0;  ///< Function each extra thread runs (spin mix).
  unsigned SpawnCount = 0; ///< Extra threads to spawn.
  bool LargeLive = false;  ///< Subject to the max-pause speedup gate.
};

/// The deterministic GC observables one run produces.  CacheHits/Misses
/// are compared only where the collector guarantees them (N=1 vs default).
struct Observables {
  std::string Out;
  uint64_t Instrs = 0, Collections = 0, RootsTraced = 0, FramesTraced = 0,
           ObjectsCopied = 0, BytesCopied = 0, DerivedAdjusted = 0,
           RendezvousSteps = 0, CacheHits = 0, CacheMisses = 0;
  bool coreEq(const Observables &O) const {
    return Out == O.Out && Instrs == O.Instrs &&
           Collections == O.Collections && RootsTraced == O.RootsTraced &&
           FramesTraced == O.FramesTraced &&
           ObjectsCopied == O.ObjectsCopied &&
           BytesCopied == O.BytesCopied &&
           DerivedAdjusted == O.DerivedAdjusted &&
           RendezvousSteps == O.RendezvousSteps;
  }
};

struct PauseInterval {
  uint64_t Start, End; ///< Nanos since the run's T0.
};

struct PauseRun {
  Observables Obs;
  std::vector<uint64_t> Pauses; ///< TotalNanos per collection.
  std::vector<PauseInterval> Intervals;
  uint64_t RunSpanNanos = 0;
};

PauseRun runOnce(const Workload &W, unsigned GcThreads, bool CrossCheck,
                 vm::DispatchTier Tier, bool UseDefaultOptions = false) {
  using Clock = std::chrono::steady_clock;
  vm::VMOptions VO;
  VO.HeapBytes = W.HeapBytes;
  VO.StackWords = 1u << 20;
  VO.Dispatch = Tier;
  gc::CollectorOptions GCO;
  if (!UseDefaultOptions) {
    GCO.Threads = GcThreads;
    GCO.CrossCheck = CrossCheck;
  }
  vm::VM M(*W.Prog, VO);
  gc::installPreciseCollector(M, GCO);
  for (unsigned I = 0; I != W.SpawnCount; ++I)
    M.spawnThread(W.SpawnFunc);

  obs::TracerConfig TC;
  TC.ProgramName = W.Name;
  obs::Tracer Tr(TC);
  Tr.enable(nullptr);
  M.Tracer = &Tr;

  PauseRun R;
  Clock::time_point T0;
  M.PostGcHook = [&](vm::VM &) {
    const obs::GcEvent *Ev = Tr.lastCommitted();
    if (!Ev)
      return;
    uint64_t End = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             T0)
            .count());
    uint64_t Start = End > Ev->TotalNanos ? End - Ev->TotalNanos : 0;
    R.Pauses.push_back(Ev->TotalNanos);
    R.Intervals.push_back({Start, End});
  };

  T0 = Clock::now();
  bool Ok = M.run();
  R.RunSpanNanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - T0)
          .count());
  if (!Ok) {
    std::fprintf(stderr, "pause: %s (gc-threads %u): run failed: %s\n",
                 W.Name.c_str(), GcThreads, M.Error.c_str());
    std::exit(1);
  }
  R.Obs.Out = M.Out;
  R.Obs.Instrs = M.Stats.Instrs;
  R.Obs.Collections = M.Stats.Collections;
  R.Obs.RootsTraced = M.Stats.RootsTraced;
  R.Obs.FramesTraced = M.Stats.FramesTraced;
  R.Obs.ObjectsCopied = M.Stats.ObjectsCopied;
  R.Obs.BytesCopied = M.Stats.BytesCopied;
  R.Obs.DerivedAdjusted = M.Stats.DerivedAdjusted;
  R.Obs.RendezvousSteps = M.Stats.RendezvousSteps;
  R.Obs.CacheHits = M.Stats.DecodeCacheHits;
  R.Obs.CacheMisses = M.Stats.DecodeCacheMisses;
  return R;
}

uint64_t percentile(std::vector<uint64_t> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t I =
      static_cast<size_t>(P * static_cast<double>(V.size() - 1) + 0.5);
  return V[std::min(I, V.size() - 1)];
}

/// Minimum mutator utilization over every window of \p WindowNs within the
/// run: 1 - (pause time inside the worst window) / window.  The minimum is
/// attained by a window anchored at a pause boundary, so O(P^2) over the
/// boundary anchors is exact.
double mmuAt(const std::vector<PauseInterval> &Pauses, uint64_t SpanNs,
             uint64_t WindowNs) {
  if (WindowNs == 0 || WindowNs > SpanNs)
    return 1.0;
  auto BusyIn = [&](uint64_t Lo, uint64_t Hi) {
    uint64_t Busy = 0;
    for (const PauseInterval &P : Pauses) {
      uint64_t S = std::max(P.Start, Lo), E = std::min(P.End, Hi);
      if (S < E)
        Busy += E - S;
    }
    return Busy;
  };
  double Mmu = 1.0;
  auto Consider = [&](uint64_t Anchor) {
    if (Anchor + WindowNs > SpanNs)
      Anchor = SpanNs - WindowNs;
    uint64_t Busy = BusyIn(Anchor, Anchor + WindowNs);
    double U = 1.0 - static_cast<double>(Busy) / static_cast<double>(WindowNs);
    if (U < Mmu)
      Mmu = U;
  };
  Consider(0);
  for (const PauseInterval &P : Pauses) {
    Consider(P.Start);
    Consider(P.End >= WindowNs ? P.End - WindowNs : 0);
  }
  return Mmu < 0 ? 0 : Mmu;
}

} // namespace

int main() {
  int Runs = 3;
  if (const char *E = std::getenv("MGC_PAUSE_RUNS"))
    Runs = std::atoi(E);
  if (Runs < 1)
    Runs = 1;

  const unsigned Cores = std::max(1u, std::thread::hardware_concurrency());
  const bool GateEnforced = Cores >= 4;
  const unsigned NLevels[] = {1, 2, 4};
  const uint64_t MmuWindows[] = {1'000'000, 5'000'000, 20'000'000};

  std::vector<Workload> Work;
  for (const programs::NamedProgram &P : programs::All) {
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    Workload W;
    W.Name = P.Name;
    W.Prog = bench::compileOrDie(P.Name, P.Source, CO);
    // Heaps sized well below bench/dispatch's 1 MiB so every workload
    // actually collects mid-run — this is a pause benchmark, and a run
    // with zero collections has no pauses to measure.
    // takl's whole live set is ~36 list cells, so it never collects at
    // any legal heap size; it still exercises the identity gates.
    W.HeapBytes = 64u << 10;
    W.LargeLive = W.Name == "typereg" || W.Name == "destroy";
    Work.push_back(std::move(W));
  }
  {
    // destroy at Branch=4, Depth=8 in a 4 MiB semispace: the copy of a
    // ~3 MB live set dominates every pause, unlike the §6 sizes, whose
    // pauses are tens of microseconds.
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    Workload W;
    W.Name = "destroy-mb";
    std::string Src = bench::bigDestroy(4, 8, 300);
    W.Prog = bench::compileOrDie("destroy-mb", Src.c_str(), CO);
    W.HeapBytes = 4u << 20;
    Work.push_back(std::move(W));
  }
  {
    // The spin mix needs loop polls: each poll is the gc-point the §5.3
    // per-thread handshakes step the spinners to.
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    CO.ThreadedPolls = true;
    Workload W;
    W.Name = "spinmix";
    W.Prog = bench::compileOrDie("spinmix", SpinMixSource, CO);
    W.HeapBytes = 64u << 10;
    W.SpawnCount = SpinMixThreads;
    for (unsigned I = 0; I != W.Prog->Funcs.size(); ++I)
      if (W.Prog->Funcs[I].Name == "Spin")
        W.SpawnFunc = I;
    Work.push_back(std::move(W));
  }

  // --- Correctness gates (before any timing is trusted) -------------------
  std::vector<Observables> Base(Work.size());
  for (size_t I = 0; I != Work.size(); ++I) {
    const Workload &W = Work[I];
    // Default options vs explicit --gc-threads 1: every observable,
    // including the decode-cache counters, must be bit-identical — N=1 is
    // the pre-parallel collector.
    PauseRun Def = runOnce(W, 1, false, vm::DispatchTier::Threaded,
                           /*UseDefaultOptions=*/true);
    PauseRun N1 = runOnce(W, 1, false, vm::DispatchTier::Threaded);
    if (!N1.Obs.coreEq(Def.Obs) || N1.Obs.CacheHits != Def.Obs.CacheHits ||
        N1.Obs.CacheMisses != Def.Obs.CacheMisses) {
      std::fprintf(stderr,
                   "pause: FAIL: --gc-threads 1 diverges from the default "
                   "collector on %s\n",
                   W.Name.c_str());
      return 1;
    }
    Base[I] = N1.Obs;
    // N=2/4 determinism (cache split excluded), N=4 with the decode
    // cross-check on, and N=4 under the switch tier.
    for (unsigned N : {2u, 4u}) {
      PauseRun R = runOnce(W, N, false, vm::DispatchTier::Threaded);
      if (!R.Obs.coreEq(Base[I])) {
        std::fprintf(stderr,
                     "pause: FAIL: --gc-threads %u diverges on %s "
                     "(collections %llu vs %llu, bytes %llu vs %llu)\n",
                     N, W.Name.c_str(),
                     static_cast<unsigned long long>(Base[I].Collections),
                     static_cast<unsigned long long>(R.Obs.Collections),
                     static_cast<unsigned long long>(Base[I].BytesCopied),
                     static_cast<unsigned long long>(R.Obs.BytesCopied));
        return 1;
      }
    }
    PauseRun XC = runOnce(W, 4, true, vm::DispatchTier::Threaded);
    PauseRun Sw = runOnce(W, 4, false, vm::DispatchTier::Switch);
    if (!XC.Obs.coreEq(Base[I]) || !Sw.Obs.coreEq(Base[I])) {
      std::fprintf(stderr,
                   "pause: FAIL: crosscheck/switch-tier run diverges on %s\n",
                   W.Name.c_str());
      return 1;
    }
  }

  // --- Timing: best (min) pause profile per (workload, N) over interleaved
  // rounds; MMU from the same best round.
  struct Cell {
    uint64_t P50 = 0, P99 = 0, Max = UINT64_MAX;
    double Mmu[3] = {0, 0, 0};
    uint64_t Collections = 0;
  };
  std::vector<std::vector<Cell>> Cells(Work.size(),
                                       std::vector<Cell>(3));
  auto Round = [&] {
    for (size_t I = 0; I != Work.size(); ++I)
      for (size_t L = 0; L != 3; ++L) {
        PauseRun R =
            runOnce(Work[I], NLevels[L], false, vm::DispatchTier::Threaded);
        Cell &C = Cells[I][L];
        uint64_t Max = percentile(R.Pauses, 1.0);
        if (Max < C.Max) {
          C.Max = Max;
          C.P50 = percentile(R.Pauses, 0.50);
          C.P99 = percentile(R.Pauses, 0.99);
          C.Collections = R.Pauses.size();
          for (size_t M = 0; M != 3; ++M)
            C.Mmu[M] = mmuAt(R.Intervals, R.RunSpanNanos, MmuWindows[M]);
        }
      }
  };
  for (int R = 0; R != Runs; ++R)
    Round();

  // The gate ratio: best max pause at N=1 over best at N=4, geomean-free
  // (each large-live workload must individually clear it).
  auto GatePass = [&] {
    for (size_t I = 0; I != Work.size(); ++I) {
      if (!Work[I].LargeLive)
        continue;
      double Ratio = static_cast<double>(Cells[I][0].Max) /
                     static_cast<double>(std::max<uint64_t>(Cells[I][2].Max,
                                                            1));
      if (Ratio < GatePauseRatio)
        return false;
    }
    return true;
  };
  // Minima only tighten: buy extra rounds (bounded) before concluding the
  // speedup is not there.
  if (GateEnforced)
    for (int Extra = 0; !GatePass() && Extra < 3 * Runs; ++Extra)
      Round();
  bool Pass = !GateEnforced || GatePass();

  // --- Report -------------------------------------------------------------
  std::string Json = "{\"provenance\":";
  Json += support::provenanceJson();
  ji(Json, "runs", static_cast<uint64_t>(Runs));
  ji(Json, "hardware_concurrency", Cores);
  Json += ",\"workloads\":[";
  for (size_t I = 0; I != Work.size(); ++I) {
    if (I)
      Json += ',';
    Json += "{\"name\":\"" + Work[I].Name + "\",\"levels\":[";
    for (size_t L = 0; L != 3; ++L) {
      const Cell &C = Cells[I][L];
      if (L)
        Json += ',';
      Json += '{';
      ji(Json, "gc_threads", NLevels[L], /*First=*/true);
      ji(Json, "collections", C.Collections);
      ji(Json, "pause_p50_ns", C.P50);
      ji(Json, "pause_p99_ns", C.P99);
      ji(Json, "pause_max_ns", C.Max);
      jf(Json, "mmu_1ms", C.Mmu[0], /*First=*/false, /*Prec=*/4);
      jf(Json, "mmu_5ms", C.Mmu[1], /*First=*/false, /*Prec=*/4);
      jf(Json, "mmu_20ms", C.Mmu[2], /*First=*/false, /*Prec=*/4);
      Json += '}';
      std::printf("pause[%s] gc-threads %u: %llu collections, p50 %.1f us, "
                  "p99 %.1f us, max %.1f us, MMU(5ms) %.3f\n",
                  Work[I].Name.c_str(), NLevels[L],
                  static_cast<unsigned long long>(C.Collections),
                  static_cast<double>(C.P50) / 1e3,
                  static_cast<double>(C.P99) / 1e3,
                  static_cast<double>(C.Max) / 1e3, C.Mmu[1]);
    }
    Json += "]}";
  }
  Json += "],\"gate\":{";
  jf(Json, "min_pause_ratio", GatePauseRatio, /*First=*/true, /*Prec=*/4);
  Json += ",\"ratios\":{";
  bool FirstR = true;
  for (size_t I = 0; I != Work.size(); ++I) {
    if (!Work[I].LargeLive)
      continue;
    double Ratio = static_cast<double>(Cells[I][0].Max) /
                   static_cast<double>(std::max<uint64_t>(Cells[I][2].Max,
                                                          1));
    jf(Json, Work[I].Name.c_str(), Ratio, FirstR, /*Prec=*/4);
    FirstR = false;
    std::printf("pause[%s]: max-pause ratio N1/N4 = %.2fx\n",
                Work[I].Name.c_str(), Ratio);
  }
  Json += "},\"skipped\":";
  Json += GateEnforced ? "false" : "true";
  Json += ",\"pass\":";
  Json += Pass ? "true" : "false";
  Json += "}}\n";

  if (std::FILE *F = std::fopen("BENCH_pause.json", "w")) {
    std::fputs(Json.c_str(), F);
    std::fclose(F);
  } else {
    std::fprintf(stderr, "pause: cannot write BENCH_pause.json\n");
    return 1;
  }

  if (!GateEnforced) {
    std::printf("pause: speedup gate skipped (%u hardware threads < 4; "
                "identity/crosscheck gates enforced)\n",
                Cores);
    return 0;
  }
  if (!Pass) {
    std::fprintf(stderr,
                 "pause: FAIL: --gc-threads 4 max pause not >= %.1fx better "
                 "than --gc-threads 1 on a large-live-set workload\n",
                 GatePauseRatio);
    return 1;
  }
  std::printf("pause: ok (max-pause ratios >= %.1fx on large-live-set "
              "workloads)\n",
              GatePauseRatio);
  return 0;
}
