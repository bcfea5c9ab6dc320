//===- bench/trace_overhead.cpp - Observability overhead gate --------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what the observability tracer costs the mutator on the gengc
/// workloads, in three configurations per collector mode:
///
///   none      no tracer attached (the shipping default),
///   disabled  tracer attached but not enabled (one extra branch per
///             allocation),
///   enabled   tracer enabled, recording site counters, survival pending
///             records, and collection events (no output stream).
///
/// Timing is min-of-N with the configurations interleaved, so a machine-
/// wide slowdown hits all three equally.  Writes BENCH_trace.json with the
/// wall times, the overhead percentages, and the pause p50/p95 per
/// collector mode from the enabled run's tracer, then *fails* (exit 1)
/// when the generational-mode aggregate overhead exceeds the issue gates:
/// 1% attached-disabled, 3% enabled.
///
///   MGC_TRACE_RUNS=N   timing repetitions (default 7)
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "Programs.h"

#include "obs/Trace.h"
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

struct RunResult {
  uint64_t WallNanos = 0;
  obs::Tracer::Percentiles MinorPauses;
  obs::Tracer::Percentiles FullPauses;
};

/// One timed program run.  Compilation is outside the timed region; the
/// tracer (when attached) is constructed outside it too, as a real run
/// attaches once and runs for a long time.
RunResult runOnce(const vm::Program &Prog, const Workload &W, bool Gen,
                  Config C) {
  vm::VMOptions VO;
  VO.HeapBytes = W.HeapBytes;
  VO.StackWords = 1u << 20;
  VO.GenGc = Gen;
  VO.NurseryBytes = Gen ? W.NurseryBytes : 0;
  gc::CollectorOptions GCO;
  GCO.CrossCheck = false;

  vm::VM M(Prog, VO);
  gc::installPreciseCollector(M, GCO);

  std::unique_ptr<obs::Tracer> Tracer;
  if (C != Config::None) {
    obs::TracerConfig TC;
    TC.Sites = &Prog.SiteTab;
    TC.GenGc = Gen;
    TC.SiteTableBytes = Prog.Sizes.SiteTableBytes;
    Tracer = std::make_unique<obs::Tracer>(std::move(TC));
    if (C == Config::Enabled)
      Tracer->enable(/*Stream=*/nullptr);
    M.Tracer = Tracer.get();
  }

  // CPU time, not wall time: the run is single-threaded, and process CPU
  // time is immune to scheduler preemption — the overhead gates are tight
  // (1% / 3%) and wall-clock noise on a shared machine swamps them.
  timespec T0{}, T1{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T0);
  bool Ok = M.run();
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T1);
  if (!Ok) {
    std::fprintf(stderr, "trace_overhead: %s (%s): run failed: %s\n", W.Name,
                 Gen ? "gen" : "two-space", M.Error.c_str());
    std::exit(1);
  }

  RunResult R;
  R.WallNanos = static_cast<uint64_t>(
      (T1.tv_sec - T0.tv_sec) * 1000000000ll + (T1.tv_nsec - T0.tv_nsec));
  if (C == Config::Enabled) {
    R.MinorPauses = Tracer->pausePercentiles(1);
    R.FullPauses = Tracer->pausePercentiles(2);
  }
  return R;
}

} // namespace

int main() {
  int Runs = 7;
  if (const char *E = std::getenv("MGC_TRACE_RUNS"))
    Runs = std::atoi(E);
  if (Runs < 1)
    Runs = 1;

  constexpr double EnabledLimitPct = 3.0;
  constexpr double DisabledLimitPct = 1.0;

  // Compile each workload once per mode (barriers differ).
  struct Compiled {
    std::unique_ptr<vm::Program> TwoSpace, Gen;
  };
  std::vector<Compiled> Progs;
  for (const Workload &W : workloads()) {
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    Compiled C;
    CO.WriteBarriers = false;
    C.TwoSpace = bench::compileOrDie(W.Name, W.Source.c_str(), CO);
    CO.WriteBarriers = true;
    C.Gen = bench::compileOrDie(W.Name, W.Source.c_str(), CO);
    Progs.push_back(std::move(C));
  }

  std::string Json = "{\"provenance\":";
  Json += support::provenanceJson();
  ji(Json, "runs", static_cast<uint64_t>(Runs));
  Json += ",\"modes\":[";

  bool GatePass = true;
  double GenEnabledPct = 0, GenDisabledPct = 0;

  for (bool Gen : {true, false}) {
    size_t NW = workloads().size();
    // Min wall time per (workload, config).
    std::vector<std::vector<uint64_t>> Min(
        NW, std::vector<uint64_t>(3, UINT64_MAX));
    std::vector<RunResult> EnabledLast(NW);

    // Warmup pass, then interleaved timing.
    for (size_t I = 0; I != NW; ++I)
      runOnce(Gen ? *Progs[I].Gen : *Progs[I].TwoSpace, workloads()[I], Gen,
              Config::None);
    auto Round = [&] {
      for (size_t I = 0; I != NW; ++I)
        for (Config C : {Config::None, Config::Disabled, Config::Enabled}) {
          RunResult RR = runOnce(Gen ? *Progs[I].Gen : *Progs[I].TwoSpace,
                                 workloads()[I], Gen, C);
          uint64_t &M = Min[I][static_cast<size_t>(C)];
          if (RR.WallNanos < M)
            M = RR.WallNanos;
          if (C == Config::Enabled)
            EnabledLast[I] = RR;
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
    auto DisPctOf = [&] {
      return 100.0 * (static_cast<double>(TotDis) - TotNone) / TotNone;
    };
    auto EnPctOf = [&] {
      return 100.0 * (static_cast<double>(TotEn) - TotNone) / TotNone;
    };
    if (Gen) {
      // The gate compares minima, which only tighten with more samples, so
      // when a noisy round leaves the gated mode over a limit, buy more
      // rounds (bounded) before concluding the overhead is real.
      for (int Extra = 0;
           (DisPctOf() > DisabledLimitPct || EnPctOf() > EnabledLimitPct) &&
           Extra < 3 * Runs;
           ++Extra) {
        Round();
        Totals();
      }
      GenDisabledPct = DisPctOf();
      GenEnabledPct = EnPctOf();
      if (GenDisabledPct > DisabledLimitPct ||
          GenEnabledPct > EnabledLimitPct)
        GatePass = false;
    }
    double DisPct = DisPctOf(), EnPct = EnPctOf();

    // Pause percentiles per collector mode, pooled over the workloads'
    // final enabled runs.
    auto Pool = [&](bool Minor) {
      obs::Tracer::Percentiles P;
      // Report the worst (max) of the per-workload percentiles, which is
      // conservative and avoids misleadingly pooling unlike heaps.
      for (size_t I = 0; I != NW; ++I) {
        const obs::Tracer::Percentiles &Q =
            Minor ? EnabledLast[I].MinorPauses : EnabledLast[I].FullPauses;
        P.Count += Q.Count;
        if (Q.P50 > P.P50)
          P.P50 = Q.P50;
        if (Q.P95 > P.P95)
          P.P95 = Q.P95;
        if (Q.Max > P.Max)
          P.Max = Q.Max;
      }
      return P;
    };
    obs::Tracer::Percentiles MinorP = Pool(true), FullP = Pool(false);

    if (Gen)
      Json += "{";
    else
      Json += ",{";
    Json += "\"mode\":\"";
    Json += Gen ? "gen" : "two-space";
    Json += "\",\"workloads\":[";
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
    jf(Json, "overhead_disabled_pct", DisPct);
    jf(Json, "overhead_enabled_pct", EnPct);
    ji(Json, "minor_pauses", MinorP.Count);
    ji(Json, "minor_pause_p50_ns", MinorP.P50);
    ji(Json, "minor_pause_p95_ns", MinorP.P95);
    ji(Json, "minor_pause_max_ns", MinorP.Max);
    ji(Json, "full_pauses", FullP.Count);
    ji(Json, "full_pause_p50_ns", FullP.P50);
    ji(Json, "full_pause_p95_ns", FullP.P95);
    ji(Json, "full_pause_max_ns", FullP.Max);
    Json += '}';

    std::printf("trace_overhead[%s]: none %.3f ms, disabled %.3f ms "
                "(%+.2f%%), enabled %.3f ms (%+.2f%%)\n",
                Gen ? "gen" : "two-space", static_cast<double>(TotNone) / 1e6,
                static_cast<double>(TotDis) / 1e6, DisPct,
                static_cast<double>(TotEn) / 1e6, EnPct);
    std::printf("  pauses (enabled): minor p50 %llu ns p95 %llu ns (%llu), "
                "full p50 %llu ns p95 %llu ns (%llu)\n",
                static_cast<unsigned long long>(MinorP.P50),
                static_cast<unsigned long long>(MinorP.P95),
                static_cast<unsigned long long>(MinorP.Count),
                static_cast<unsigned long long>(FullP.P50),
                static_cast<unsigned long long>(FullP.P95),
                static_cast<unsigned long long>(FullP.Count));
  }

  Json += "],\"gate\":{";
  jf(Json, "disabled_limit_pct", DisabledLimitPct, /*First=*/true);
  jf(Json, "enabled_limit_pct", EnabledLimitPct);
  jf(Json, "gen_disabled_pct", GenDisabledPct);
  jf(Json, "gen_enabled_pct", GenEnabledPct);
  Json += ",\"pass\":";
  Json += GatePass ? "true" : "false";
  Json += "}}\n";

  if (std::FILE *F = std::fopen("BENCH_trace.json", "w")) {
    std::fputs(Json.c_str(), F);
    std::fclose(F);
  } else {
    std::fprintf(stderr, "trace_overhead: cannot write BENCH_trace.json\n");
    return 1;
  }

  if (!GatePass) {
    std::fprintf(stderr,
                 "trace_overhead: FAIL: generational-mode overhead "
                 "disabled %.2f%% (limit %.1f%%), enabled %.2f%% (limit "
                 "%.1f%%)\n",
                 GenDisabledPct, DisabledLimitPct, GenEnabledPct,
                 EnabledLimitPct);
    return 1;
  }
  std::printf("trace_overhead: ok (gen disabled %+.2f%% <= %.1f%%, enabled "
              "%+.2f%% <= %.1f%%)\n",
              GenDisabledPct, DisabledLimitPct, GenEnabledPct,
              EnabledLimitPct);
  return 0;
}
