//===- bench/prof.cpp - Sampling-profiler overhead + accuracy gate ---------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Gates the sampling profiler (obs/Profile.h) on three properties:
///
///   overhead   mutator cost on the gengc workloads in three configurations
///              — none (no profiler), disabled (attached, Enabled=false:
///              one predicted-not-taken branch per hook site), enabled
///              (default 4096-instruction interval).  Gates: disabled <=1%,
///              enabled <=5% over none.
///   accuracy   a directed workload whose Work() procedure retires nearly
///              all instructions must receive >=90% of the sampled mutator
///              weight with Work as the leaf function, with zero walk
///              errors (every sampled stack verified against the gc-map
///              chain walk).
///   identity   the encoded profile *body* from the threaded and switch
///              dispatch tiers must be byte-identical (samples fire at
///              instruction ordinals, not wall clock).
///
/// Timing is min-of-N process-CPU-time with configurations interleaved, so
/// machine-wide slowdowns hit all cells equally.  Writes BENCH_prof.json
/// (with the shared provenance header) and exits 1 on any gate failure.
///
///   MGC_PROF_RUNS=N   timing repetitions (default 7)
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "Programs.h"

#include "obs/Profile.h"
#include "support/Provenance.h"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

using namespace mgc;
using bench::jf, bench::ji;

namespace {

/// Ground-truth program: Work() allocates and folds every loop iteration,
/// so practically all instructions (and all gc-points) retire inside it;
/// the main body only loops and accumulates.
const char *HotSource = R"(MODULE Hot;
TYPE
  Cell = REF CellRec;
  CellRec = RECORD v: INTEGER; next: Cell END;
VAR
  sink, r: INTEGER;

PROCEDURE Work(n: INTEGER): INTEGER;
VAR c: Cell; s, i: INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO n DO
    c := NEW(Cell);
    c^.v := i;
    s := (s + c^.v + i * i) MOD 1000000007
  END;
  RETURN s
END Work;

BEGIN
  sink := 0;
  FOR r := 1 TO 300 DO
    sink := (sink + Work(400)) MOD 1000000007
  END;
  PutInt(sink); PutLn()
END Hot.
)";

struct Workload {
  const char *Name;
  std::string Source;
  size_t HeapBytes;
  size_t NurseryBytes;
};

std::vector<Workload> &workloads() {
  static std::vector<Workload> W = {
      {"destroy", bench::bigDestroy(3, 6, 60), 48u << 10, 4u << 10},
      {"destroy-big", bench::bigDestroy(3, 7, 200), 160u << 10, 8u << 10},
      {"typereg", std::string(programs::TypeRegSource), 32u << 10, 4u << 10},
  };
  return W;
}

enum class Config { None, Disabled, Enabled };

/// One timed run.  The profiler (when attached) is constructed outside the
/// timed region — a real run attaches once and runs for a long time.
uint64_t runOnce(const vm::Program &Prog, const Workload &W, Config C) {
  vm::VMOptions VO;
  VO.HeapBytes = W.HeapBytes;
  VO.StackWords = 1u << 20;
  VO.GenGc = true;
  VO.NurseryBytes = W.NurseryBytes;
  gc::CollectorOptions GCO;
  GCO.CrossCheck = false;

  vm::VM M(Prog, VO);
  gc::installPreciseCollector(M, GCO);

  std::unique_ptr<obs::Profiler> Prof;
  if (C != Config::None) {
    obs::ProfilerConfig PC;
    PC.Enabled = C == Config::Enabled;
    Prof = std::make_unique<obs::Profiler>(Prog, PC);
    M.Profiler = Prof.get();
  }

  // Process CPU time, not wall time: the gates are tight and wall-clock
  // noise on a shared machine swamps them (same policy as trace_overhead).
  timespec T0{}, T1{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T0);
  bool Ok = M.run();
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T1);
  if (!Ok) {
    std::fprintf(stderr, "prof: %s: run failed: %s\n", W.Name,
                 M.Error.c_str());
    std::exit(1);
  }
  return static_cast<uint64_t>((T1.tv_sec - T0.tv_sec) * 1000000000ll +
                               (T1.tv_nsec - T0.tv_nsec));
}

/// Runs the ground-truth program under \p Tier and returns the profile.
obs::Profile profiledRun(const vm::Program &Prog, vm::DispatchTier Tier,
                         uint64_t Interval) {
  vm::VMOptions VO;
  VO.HeapBytes = 64u << 10;
  VO.StackWords = 1u << 20;
  VO.Dispatch = Tier;
  gc::CollectorOptions GCO;
  vm::VM M(Prog, VO);
  gc::installPreciseCollector(M, GCO);
  obs::ProfilerConfig PC;
  PC.IntervalInstrs = Interval;
  obs::Profiler Prof(Prog, PC);
  M.Profiler = &Prof;
  bool Ok = M.run();
  if (!Ok) {
    std::fprintf(stderr, "prof: hot ground-truth run failed: %s\n",
                 M.Error.c_str());
    std::exit(1);
  }
  Prof.finish(Ok, M.Error, M.Stats.Instrs);
  return Prof.buildProfile();
}

/// Fraction of the sampled mutator weight whose leaf function is \p Func.
double leafWeightPct(const obs::Profile &P, const char *Func) {
  uint32_t Target = 0xFFFFFFFFu;
  for (uint32_t I = 0; I != P.FuncNames.size(); ++I)
    if (P.FuncNames[I] == Func)
      Target = I;
  uint64_t Hot = 0, Total = 0;
  for (const obs::Profile::MutRow &R : P.Mutator) {
    Total += R.Weight;
    const obs::Profile::Stack &S = P.Stacks[R.StackId];
    if (S.NumFrames && P.Frames[S.FirstFrame].Func == Target)
      Hot += R.Weight;
  }
  return Total ? 100.0 * static_cast<double>(Hot) /
                     static_cast<double>(Total)
               : 0.0;
}

} // namespace

int main() {
  int Runs = 7;
  if (const char *E = std::getenv("MGC_PROF_RUNS"))
    Runs = std::atoi(E);
  if (Runs < 1)
    Runs = 1;

  constexpr double DisabledLimitPct = 1.0;
  constexpr double EnabledLimitPct = 5.0;
  constexpr double HotLimitPct = 90.0;

  std::vector<std::unique_ptr<vm::Program>> Progs;
  for (const Workload &W : workloads()) {
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    CO.WriteBarriers = true;
    Progs.push_back(bench::compileOrDie(W.Name, W.Source.c_str(), CO));
  }

  //===--- 1. Overhead ------------------------------------------------------===
  const size_t NW = workloads().size();
  std::vector<std::vector<uint64_t>> Min(NW,
                                         std::vector<uint64_t>(3, UINT64_MAX));
  for (size_t I = 0; I != NW; ++I) // warmup
    runOnce(*Progs[I], workloads()[I], Config::None);
  auto Round = [&] {
    for (size_t I = 0; I != NW; ++I)
      for (Config C : {Config::None, Config::Disabled, Config::Enabled}) {
        uint64_t Ns = runOnce(*Progs[I], workloads()[I], C);
        uint64_t &M = Min[I][static_cast<size_t>(C)];
        if (Ns < M)
          M = Ns;
      }
  };
  for (int R = 0; R != Runs; ++R)
    Round();

  uint64_t TotNone = 0, TotDis = 0, TotEn = 0;
  auto Totals = [&] {
    TotNone = TotDis = TotEn = 0;
    for (size_t I = 0; I != NW; ++I) {
      TotNone += Min[I][0];
      TotDis += Min[I][1];
      TotEn += Min[I][2];
    }
  };
  Totals();
  auto DisPct = [&] {
    return 100.0 * (static_cast<double>(TotDis) - TotNone) / TotNone;
  };
  auto EnPct = [&] {
    return 100.0 * (static_cast<double>(TotEn) - TotNone) / TotNone;
  };
  // Minima only tighten with more samples: when a noisy round leaves a cell
  // over its limit, buy bounded extra rounds before calling it real.
  for (int Extra = 0;
       (DisPct() > DisabledLimitPct || EnPct() > EnabledLimitPct) &&
       Extra < 3 * Runs;
       ++Extra) {
    Round();
    Totals();
  }

  //===--- 2. Accuracy + cross-tier identity --------------------------------===
  driver::CompilerOptions HotCO;
  HotCO.OptLevel = 2;
  std::unique_ptr<vm::Program> Hot =
      bench::compileOrDie("hot", HotSource, HotCO);
  obs::Profile Threaded =
      profiledRun(*Hot, vm::DispatchTier::Threaded, /*Interval=*/512);
  obs::Profile Switch =
      profiledRun(*Hot, vm::DispatchTier::Switch, /*Interval=*/512);

  double HotPct = leafWeightPct(Threaded, "Work");
  std::vector<uint8_t> BodyA, BodyB;
  obs::encodeProfileBody(Threaded, BodyA);
  obs::encodeProfileBody(Switch, BodyB);
  bool TierIdentical = BodyA == BodyB;

  bool GatePass = DisPct() <= DisabledLimitPct && EnPct() <= EnabledLimitPct &&
                  HotPct >= HotLimitPct && TierIdentical &&
                  Threaded.WalkErrors == 0;

  //===--- Report -----------------------------------------------------------===
  std::string Json = "{\"provenance\":";
  Json += support::provenanceJson();
  ji(Json, "runs", static_cast<uint64_t>(Runs));
  Json += ",\"workloads\":[";
  for (size_t I = 0; I != NW; ++I) {
    if (I)
      Json += ',';
    Json += "{\"name\":\"";
    Json += workloads()[I].Name;
    Json += '"';
    ji(Json, "wall_none_ns", Min[I][0]);
    ji(Json, "wall_disabled_ns", Min[I][1]);
    ji(Json, "wall_enabled_ns", Min[I][2]);
    Json += '}';
  }
  Json += ']';
  ji(Json, "total_none_ns", TotNone);
  ji(Json, "total_disabled_ns", TotDis);
  ji(Json, "total_enabled_ns", TotEn);
  jf(Json, "overhead_disabled_pct", DisPct());
  jf(Json, "overhead_enabled_pct", EnPct());
  Json += ",\"ground_truth\":{";
  ji(Json, "samples", Threaded.Samples, /*First=*/true);
  ji(Json, "sample_weight", Threaded.SampleWeight);
  ji(Json, "total_instrs", Threaded.TotalInstrs);
  ji(Json, "walk_errors", Threaded.WalkErrors);
  ji(Json, "frames_sampled", Threaded.FramesSampled);
  jf(Json, "hot_leaf_pct", HotPct);
  Json += ",\"tier_identical\":";
  Json += TierIdentical ? "true" : "false";
  Json += "}";
  Json += ",\"gate\":{";
  jf(Json, "disabled_limit_pct", DisabledLimitPct, /*First=*/true);
  jf(Json, "enabled_limit_pct", EnabledLimitPct);
  jf(Json, "hot_limit_pct", HotLimitPct);
  Json += ",\"pass\":";
  Json += GatePass ? "true" : "false";
  Json += "}}\n";

  if (std::FILE *F = std::fopen("BENCH_prof.json", "w")) {
    std::fputs(Json.c_str(), F);
    std::fclose(F);
  } else {
    std::fprintf(stderr, "prof: cannot write BENCH_prof.json\n");
    return 1;
  }

  std::printf("prof: none %.3f ms, disabled %.3f ms (%+.2f%%), enabled "
              "%.3f ms (%+.2f%%)\n",
              static_cast<double>(TotNone) / 1e6,
              static_cast<double>(TotDis) / 1e6, DisPct(),
              static_cast<double>(TotEn) / 1e6, EnPct());
  std::printf("prof: ground truth %llu samples, hot-leaf %.1f%% (>=%.0f%%), "
              "walk errors %llu, tiers %s\n",
              static_cast<unsigned long long>(Threaded.Samples), HotPct,
              HotLimitPct,
              static_cast<unsigned long long>(Threaded.WalkErrors),
              TierIdentical ? "byte-identical" : "DIVERGED");

  if (!GatePass) {
    std::fprintf(stderr,
                 "prof: FAIL: disabled %+.2f%% (limit %.1f%%), enabled "
                 "%+.2f%% (limit %.1f%%), hot-leaf %.1f%% (floor %.0f%%), "
                 "walk errors %llu, tier identity %s\n",
                 DisPct(), DisabledLimitPct, EnPct(), EnabledLimitPct, HotPct,
                 HotLimitPct,
                 static_cast<unsigned long long>(Threaded.WalkErrors),
                 TierIdentical ? "ok" : "FAILED");
    return 1;
  }
  std::printf("prof: ok\n");
  return 0;
}
