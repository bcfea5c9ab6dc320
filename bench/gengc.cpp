//===- bench/gengc.cpp - Generational vs full-collection pauses ------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pause-time comparison for the table-driven generational collector: the
/// same allocation-heavy benchmark programs run in default two-space mode
/// (every collection copies the whole live set) and in generational mode
/// (minor collections trace only the nursery plus the remembered set).
/// The claim to reproduce is that the average minor-collection pause is
/// well below the average full-collection pause, with bit-identical
/// program output.
///
/// Before any timing, every program is run in both modes with
/// --gc-crosscheck semantics on; an output mismatch or a cross-check
/// failure (stale remembered set, decode disagreement) exits non-zero so
/// tools/check.sh fails.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "Programs.h"

#include "support/Provenance.h"

#include <benchmark/benchmark.h>

#include <string>

using namespace mgc;

namespace {

struct Workload {
  const char *Name;
  std::string Source;
  const char *Expected; ///< Null when scaled away from the pinned output.
  size_t HeapBytes;
  size_t NurseryBytes;
};

std::vector<Workload> &workloads() {
  static std::vector<Workload> W = {
      {"destroy", bench::bigDestroy(3, 6, 60), nullptr, 48u << 10, 4u << 10},
      {"destroy-big", bench::bigDestroy(3, 7, 200), nullptr, 160u << 10, 8u << 10},
      {"typereg", programs::TypeRegSource, programs::TypeRegExpected,
       32u << 10, 4u << 10},
  };
  return W;
}

struct ModeRun {
  vm::VMStats Stats;
  std::string Out;
};

ModeRun runMode(const Workload &W, bool Gen, bool Stress = false,
                bool Check = true) {
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  CO.WriteBarriers = Gen;
  auto Prog = bench::compileOrDie(W.Name, W.Source.c_str(), CO);

  vm::VMOptions VO;
  VO.HeapBytes = W.HeapBytes;
  VO.StackWords = 1u << 20;
  VO.GenGc = Gen;
  VO.NurseryBytes = Gen ? W.NurseryBytes : 0;
  VO.GcStress = Stress;
  gc::CollectorOptions GCO;
  // Every decode + every minor collection verified during the
  // verification phase; off in the timed runs (the minor-collection
  // cross-check is a whole-heap reachability traversal).
  GCO.CrossCheck = Check;

  vm::VM M(*Prog, VO);
  gc::installPreciseCollector(M, GCO);
  if (!M.run()) {
    std::fprintf(stderr, "gengc: %s (%s mode): run failed: %s\n", W.Name,
                 Gen ? "generational" : "two-space", M.Error.c_str());
    std::exit(1);
  }
  return {M.Stats, M.Out};
}

/// Both modes must produce identical output (and match the pinned
/// expected output where one exists); exits non-zero on divergence.
void verifyModes() {
  for (const Workload &W : workloads()) {
    ModeRun Full = runMode(W, /*Gen=*/false);
    ModeRun Gen = runMode(W, /*Gen=*/true);
    if (Full.Out != Gen.Out ||
        (W.Expected && Gen.Out != W.Expected)) {
      std::fprintf(stderr,
                   "gengc: %s: output diverges between two-space and "
                   "generational mode\n",
                   W.Name);
      std::exit(1);
    }
  }
  // Under stress with a heap large enough that only the stress-induced
  // collections happen, both modes collect at exactly the same gc-points
  // and must gather exactly the same table-driven root set.
  Workload Stressed{"takl-stress", programs::TaklSource,
                    programs::TaklExpected, 4u << 20, 0};
  ModeRun Full = runMode(Stressed, /*Gen=*/false, /*Stress=*/true);
  ModeRun Gen = runMode(Stressed, /*Gen=*/true, /*Stress=*/true);
  if (Full.Out != Gen.Out || Full.Stats.RootsTraced != Gen.Stats.RootsTraced ||
      Full.Stats.DerivedAdjusted != Gen.Stats.DerivedAdjusted ||
      Full.Stats.FramesTraced != Gen.Stats.FramesTraced) {
    std::fprintf(stderr,
                 "gengc: stressed root enumeration diverges between modes "
                 "(roots %llu vs %llu, derived %llu vs %llu)\n",
                 static_cast<unsigned long long>(Full.Stats.RootsTraced),
                 static_cast<unsigned long long>(Gen.Stats.RootsTraced),
                 static_cast<unsigned long long>(Full.Stats.DerivedAdjusted),
                 static_cast<unsigned long long>(Gen.Stats.DerivedAdjusted));
    std::exit(1);
  }
  std::printf("gengc: cross-check ok: identical output in both modes on all "
              "workloads,\n       identical root/derived counts under "
              "stress\n\n");
}

/// Average full-collection pause in default two-space mode.  Manual time:
/// one iteration = one whole program run; the reported time is the mean
/// pause of its collections.
void BM_FullGcPause(benchmark::State &State) {
  const Workload &W = workloads()[static_cast<size_t>(State.range(0))];
  vm::VMStats S;
  for (auto _ : State) {
    ModeRun R = runMode(W, /*Gen=*/false, /*Stress=*/false,
                        /*Check=*/false);
    S = R.Stats;
    double Pause =
        S.Collections ? static_cast<double>(S.GcNanos) * 1e-9 /
                            static_cast<double>(S.Collections)
                      : 0.0;
    State.SetIterationTime(Pause);
  }
  State.SetLabel(W.Name);
  State.counters["collections"] = static_cast<double>(S.Collections);
  State.counters["bytes_copied"] = static_cast<double>(S.BytesCopied);
}
BENCHMARK(BM_FullGcPause)->DenseRange(0, 2)->UseManualTime()->Iterations(3);

/// Average minor-collection pause in generational mode on the same
/// workloads (full-collection fallbacks excluded from the mean).
void BM_MinorGcPause(benchmark::State &State) {
  const Workload &W = workloads()[static_cast<size_t>(State.range(0))];
  vm::VMStats S;
  for (auto _ : State) {
    ModeRun R = runMode(W, /*Gen=*/true, /*Stress=*/false,
                        /*Check=*/false);
    S = R.Stats;
    double Pause =
        S.MinorCollections ? static_cast<double>(S.MinorGcNanos) * 1e-9 /
                                 static_cast<double>(S.MinorCollections)
                           : 0.0;
    State.SetIterationTime(Pause);
  }
  State.SetLabel(W.Name);
  State.counters["minor"] = static_cast<double>(S.MinorCollections);
  State.counters["full"] =
      static_cast<double>(S.Collections - S.MinorCollections);
  State.counters["barriers_run"] = static_cast<double>(S.WriteBarriersRun);
  State.counters["remset_peak"] = static_cast<double>(S.RemSetPeak);
}
BENCHMARK(BM_MinorGcPause)->DenseRange(0, 2)->UseManualTime()->Iterations(3);

} // namespace

int main(int argc, char **argv) {
  verifyModes();
  benchmark::AddCustomContext("tool_version", mgc::support::ToolVersion);
  benchmark::AddCustomContext("build_flags", mgc::support::buildFlags());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
