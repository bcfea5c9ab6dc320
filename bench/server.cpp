//===- bench/server.cpp - Server-workload benchmark gate ------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives generated MG server programs (src/workload) to steady state and
/// reports requests/sec, per-request latency percentiles (p50/p99/max,
/// with GC pause attribution from the tracer's per-phase nanos), and
/// mutator utilization, swept across heap-sizing policies x --gc-threads
/// {1,2,4} x both dispatch tiers.  Writes BENCH_server.json.
///
/// Everything gated is virtual-time deterministic (instruction counts,
/// outputs, collection counts); wall-clock figures are reported only.
/// Correctness gates (always enforced, exit 1 on failure):
///  - within one (workload, policy) cell, all 6 tier x thread runs agree
///    on output, request count, per-request service instructions, and
///    collection count;
///  - across policies, program output is identical, and for workloads
///    without spin threads the service samples are too (policies only
///    move collections, never retired instructions, single-threaded);
///  - per-request GC attribution plus the unattributed tail equals the
///    tracer's total across events, in every cell;
///  - a --gc-threads 4 run under --gc-crosscheck agrees;
///  - a same-seed rerun is bit-identical (no wall-clock leakage into the
///    virtual-time samples).
///
///   MGC_SERVER_RUNS=N   timing repetitions (default 2)
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "workload/Server.h"
#include "support/Provenance.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

using namespace mgc;
using bench::jf, bench::ji;
using namespace mgc::workload;

namespace {

constexpr uint64_t ProgramSeed = 20260808; ///< Server-program shape seed.
constexpr uint64_t ScheduleSeed = 41;      ///< Arrival-schedule seed.
constexpr unsigned RequestCount = 2000;
constexpr size_t HeapBytes = 32u << 10; ///< Small: collections must happen.

struct BenchWorkload {
  std::string Name;
  ServerProgramConfig PC;
  ScheduleConfig Sched;
  unsigned SpinThreads = 0;
  std::unique_ptr<vm::Program> Prog;
};

struct BenchPolicy {
  std::string Name;
  bool GenGc = false;
  unsigned GrowthPct = 0;
  size_t MaxBytes = 0;
  bool NurseryAuto = false;
};

ServerRunConfig cellConfig(const BenchWorkload &W, const BenchPolicy &P,
                           vm::DispatchTier Tier, unsigned GcThreads,
                           bool CrossCheck = false) {
  ServerRunConfig C;
  C.VO.HeapBytes = HeapBytes;
  C.VO.GenGc = P.GenGc;
  C.VO.HeapGrowthPct = P.GrowthPct;
  C.VO.HeapMaxBytes = P.MaxBytes;
  C.VO.NurseryAuto = P.NurseryAuto;
  C.VO.Dispatch = Tier;
  C.GCO.Threads = GcThreads;
  C.GCO.CrossCheck = CrossCheck;
  C.Sched = W.Sched;
  C.SpinThreads = W.SpinThreads;
  return C;
}

ServerRunResult runOrDie(const BenchWorkload &W, const ServerRunConfig &C,
                         const char *What) {
  ServerRunResult R = runServer(*W.Prog, C);
  if (!R.Ok) {
    std::fprintf(stderr, "server: %s (%s): run failed: %s\n", W.Name.c_str(),
                 What, R.Error.c_str());
    std::exit(1);
  }
  return R;
}

bool sameVirtual(const ServerRunResult &A, const ServerRunResult &B) {
  return A.Out == B.Out && A.Stats.Requests == B.Stats.Requests &&
         A.Stats.Collections == B.Stats.Collections &&
         A.ServiceInstrs == B.ServiceInstrs &&
         A.LatencyInstrs == B.LatencyInstrs;
}

bool attributionExact(const ServerRunResult &R) {
  uint64_t Attributed = 0;
  for (uint64_t G : R.GcNanos)
    Attributed += G;
  return Attributed + R.UnattributedGcNanos == R.TracerGcNanosTotal;
}

void js(std::string &Out, const char *Key, const std::string &V,
        bool First = false) {
  if (!First)
    Out += ',';
  Out += '"';
  Out += Key;
  Out += "\":\"";
  Out += V;
  Out += '"';
}

} // namespace

int main() {
  int Runs = 2;
  if (const char *E = std::getenv("MGC_SERVER_RUNS"))
    Runs = std::atoi(E);
  if (Runs < 1)
    Runs = 1;

  // --- Workloads: uniform arrivals, bursty arrivals, and a spin-thread
  // mix (two allocation-free mutator threads raising rendezvous cost).
  std::vector<BenchWorkload> Work;
  {
    BenchWorkload W;
    W.Name = "uniform";
    W.PC.Seed = ProgramSeed;
    W.PC.Requests = RequestCount;
    W.Sched.Kind = ArrivalKind::Uniform;
    W.Sched.Seed = ScheduleSeed;
    Work.push_back(std::move(W));
  }
  {
    BenchWorkload W;
    W.Name = "bursty";
    W.PC.Seed = ProgramSeed + 1;
    W.PC.Requests = RequestCount;
    W.Sched.Kind = ArrivalKind::Bursty;
    W.Sched.Seed = ScheduleSeed + 1;
    Work.push_back(std::move(W));
  }
  {
    BenchWorkload W;
    W.Name = "spinmix";
    W.PC.Seed = ProgramSeed + 2;
    W.PC.Requests = RequestCount;
    W.PC.Spin = true;
    W.Sched.Kind = ArrivalKind::Uniform;
    W.Sched.Seed = ScheduleSeed + 2;
    W.SpinThreads = 2;
    Work.push_back(std::move(W));
  }
  for (BenchWorkload &W : Work) {
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    CO.WriteBarriers = true; // No-op under two-space: one program, all cells.
    CO.ThreadedPolls = W.PC.Spin;
    std::string Src = generateServerProgram(W.PC);
    W.Prog = bench::compileOrDie(W.Name.c_str(), Src.c_str(), CO);
  }

  const BenchPolicy Policies[] = {
      {"two-fixed", false, 0, 0, false},
      {"two-growth", false, 70, HeapBytes * 8, false},
      {"gen-fixed", true, 0, 0, false},
      {"gen-auto", true, 70, HeapBytes * 8, true},
  };
  const vm::DispatchTier Tiers[] = {vm::DispatchTier::Threaded,
                                    vm::DispatchTier::Switch};
  const unsigned NLevels[] = {1, 2, 4};

  // --- Correctness gates ---------------------------------------------------
  for (const BenchWorkload &W : Work) {
    ServerRunResult PolicyRef; // two-fixed reference for cross-policy gates.
    for (const BenchPolicy &P : Policies) {
      ServerRunResult CellRef;
      bool HaveRef = false;
      for (vm::DispatchTier Tier : Tiers)
        for (unsigned N : NLevels) {
          ServerRunResult R =
              runOrDie(W, cellConfig(W, P, Tier, N), P.Name.c_str());
          if (R.Stats.Requests != RequestCount) {
            std::fprintf(stderr,
                         "server: FAIL: %s/%s: %llu requests completed, "
                         "expected %u\n",
                         W.Name.c_str(), P.Name.c_str(),
                         static_cast<unsigned long long>(R.Stats.Requests),
                         RequestCount);
            return 1;
          }
          if (!attributionExact(R)) {
            std::fprintf(stderr,
                         "server: FAIL: %s/%s: GC attribution does not sum "
                         "to the tracer total\n",
                         W.Name.c_str(), P.Name.c_str());
            return 1;
          }
          if (!HaveRef) {
            CellRef = R;
            HaveRef = true;
            // Same-seed rerun: bit-identical virtual-time samples.
            ServerRunResult Again =
                runOrDie(W, cellConfig(W, P, Tier, N), "rerun");
            if (!sameVirtual(R, Again)) {
              std::fprintf(stderr,
                           "server: FAIL: %s/%s: same-seed rerun diverged\n",
                           W.Name.c_str(), P.Name.c_str());
              return 1;
            }
          } else if (!sameVirtual(R, CellRef)) {
            std::fprintf(stderr,
                         "server: FAIL: %s/%s: tier/thread cell diverges "
                         "(switch=%d gc-threads=%u)\n",
                         W.Name.c_str(), P.Name.c_str(),
                         Tier == vm::DispatchTier::Switch, N);
            return 1;
          }
        }
      // Crosscheck run: decode cross-check on at the widest thread count.
      ServerRunResult XC = runOrDie(
          W, cellConfig(W, P, vm::DispatchTier::Threaded, 4, true),
          "crosscheck");
      if (!sameVirtual(XC, CellRef)) {
        std::fprintf(stderr, "server: FAIL: %s/%s: crosscheck run diverged\n",
                     W.Name.c_str(), P.Name.c_str());
        return 1;
      }
      if (PolicyRef.ServiceInstrs.empty()) {
        PolicyRef = CellRef;
      } else {
        if (CellRef.Out != PolicyRef.Out) {
          std::fprintf(stderr,
                       "server: FAIL: %s: policy %s changes program output\n",
                       W.Name.c_str(), P.Name.c_str());
          return 1;
        }
        // Policies only move collections; with no spin threads the retired
        // instruction stream (and so every service sample) is invariant.
        if (W.SpinThreads == 0 &&
            CellRef.ServiceInstrs != PolicyRef.ServiceInstrs) {
          std::fprintf(stderr,
                       "server: FAIL: %s: policy %s changes service "
                       "samples\n",
                       W.Name.c_str(), P.Name.c_str());
          return 1;
        }
      }
    }
  }
  std::printf("server: identity/attribution/crosscheck gates ok (%zu "
              "workloads x %zu policies x 6 cells)\n",
              Work.size(), std::size(Policies));

  // --- Timing: best (max rps) per (workload, policy, gc-threads) over
  // rounds, threaded tier (the switch tier is identity-gated above and
  // not separately timed into the report cells).
  struct Cell {
    double Rps = 0, Utilization = 0;
    uint64_t P50Ns = 0, P99Ns = 0, MaxNs = 0;
    uint64_t P50Instr = 0, P99Instr = 0, MaxInstr = 0;
    uint64_t Collections = 0, HeapGrowths = 0, NurseryResizes = 0,
             FinalHeapBytes = 0, UnattributedGcNs = 0, GcNs = 0;
  };
  const size_t NP = std::size(Policies), NL = std::size(NLevels);
  std::vector<std::vector<std::vector<Cell>>> Cells(
      Work.size(), std::vector<std::vector<Cell>>(NP, std::vector<Cell>(NL)));
  for (int Round = 0; Round != Runs; ++Round)
    for (size_t WI = 0; WI != Work.size(); ++WI)
      for (size_t PI = 0; PI != NP; ++PI)
        for (size_t LI = 0; LI != NL; ++LI) {
          ServerRunResult R = runOrDie(
              Work[WI],
              cellConfig(Work[WI], Policies[PI], vm::DispatchTier::Threaded,
                         NLevels[LI]),
              "timing");
          Cell &C = Cells[WI][PI][LI];
          if (R.Rps <= C.Rps)
            continue;
          C.Rps = R.Rps;
          C.Utilization = R.Utilization;
          C.P50Ns = R.LatP50Ns;
          C.P99Ns = R.LatP99Ns;
          C.MaxNs = R.LatMaxNs;
          C.P50Instr = R.LatP50Instr;
          C.P99Instr = R.LatP99Instr;
          C.MaxInstr = R.LatMaxInstr;
          C.Collections = R.Stats.Collections;
          C.HeapGrowths = R.HeapGrowths;
          C.NurseryResizes = R.NurseryResizes;
          C.FinalHeapBytes = R.FinalHeapBytes;
          C.GcNs = R.TracerGcNanosTotal;
          C.UnattributedGcNs = R.UnattributedGcNanos;
        }

  // --- Report --------------------------------------------------------------
  // The header documents every seed so BENCH_server.json is reproducible
  // bit for bit on the virtual-time fields (wall-time fields vary).
  std::string Json = "{\"provenance\":";
  Json += support::provenanceJson(ProgramSeed);
  ji(Json, "runs", static_cast<uint64_t>(Runs));
  ji(Json, "program_seed", ProgramSeed);
  ji(Json, "schedule_seed", ScheduleSeed);
  ji(Json, "requests", RequestCount);
  ji(Json, "heap_bytes", HeapBytes);
  Json += ",\"workloads\":[";
  for (size_t WI = 0; WI != Work.size(); ++WI) {
    if (WI)
      Json += ',';
    Json += '{';
    js(Json, "name", Work[WI].Name, /*First=*/true);
    js(Json, "arrivals",
       Work[WI].Sched.Kind == ArrivalKind::Bursty ? "bursty" : "uniform");
    ji(Json, "spin_threads", Work[WI].SpinThreads);
    Json += ",\"policies\":[";
    for (size_t PI = 0; PI != NP; ++PI) {
      if (PI)
        Json += ',';
      Json += '{';
      js(Json, "name", Policies[PI].Name, /*First=*/true);
      Json += ",\"levels\":[";
      for (size_t LI = 0; LI != NL; ++LI) {
        const Cell &C = Cells[WI][PI][LI];
        if (LI)
          Json += ',';
        Json += '{';
        ji(Json, "gc_threads", NLevels[LI], /*First=*/true);
        jf(Json, "rps", C.Rps, /*First=*/false, /*Prec=*/4);
        jf(Json, "utilization", C.Utilization, /*First=*/false, /*Prec=*/4);
        ji(Json, "lat_p50_ns", C.P50Ns);
        ji(Json, "lat_p99_ns", C.P99Ns);
        ji(Json, "lat_max_ns", C.MaxNs);
        ji(Json, "lat_p50_instr", C.P50Instr);
        ji(Json, "lat_p99_instr", C.P99Instr);
        ji(Json, "lat_max_instr", C.MaxInstr);
        ji(Json, "collections", C.Collections);
        ji(Json, "gc_ns", C.GcNs);
        ji(Json, "gc_unattributed_ns", C.UnattributedGcNs);
        ji(Json, "heap_growths", C.HeapGrowths);
        ji(Json, "nursery_resizes", C.NurseryResizes);
        ji(Json, "final_heap_bytes", C.FinalHeapBytes);
        Json += '}';
        std::printf("server[%s/%s] gc-threads %u: %.0f rps, p50 %.1f us, "
                    "p99 %.1f us, max %.1f us, util %.3f, %llu collections"
                    "%s\n",
                    Work[WI].Name.c_str(), Policies[PI].Name.c_str(),
                    NLevels[LI], C.Rps, static_cast<double>(C.P50Ns) / 1e3,
                    static_cast<double>(C.P99Ns) / 1e3,
                    static_cast<double>(C.MaxNs) / 1e3, C.Utilization,
                    static_cast<unsigned long long>(C.Collections),
                    C.HeapGrowths || C.NurseryResizes ? " (policy active)"
                                                      : "");
      }
      Json += "]}";
    }
    Json += "]}";
  }
  Json += "],\"pass\":true}\n";

  if (std::FILE *F = std::fopen("BENCH_server.json", "w")) {
    std::fputs(Json.c_str(), F);
    std::fclose(F);
  } else {
    std::fprintf(stderr, "server: cannot write BENCH_server.json\n");
    return 1;
  }
  std::printf("server: ok\n");
  return 0;
}
