//===- bench/sec63_tracing.cpp - §6.3: stack tracing timings ---------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §6.3 times the table-driven stack tracing on the destroy benchmark:
/// 470µs per collection (90% confidence < 1710µs), 27–98µs per frame
/// traced, and stack tracing under 1.7–6% of total gc time.  Absolute
/// numbers on a modern host under an interpreter differ wildly from a
/// VAXStation 3500; the *shape* to reproduce is that locating + decoding
/// the tables and enumerating roots is a small fraction of total
/// collection time, even in the gc-intensive destroy workload.
///
/// As an ablation this harness also times a Boehm-style conservative scan
/// of the same stacks (every word a potential pointer) at each collection.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "Programs.h"

using namespace mgc;
using namespace mgc::bench;

namespace {

struct Row {
  const char *Label;
  vm::VMStats Stats;
  gc::ConservativeStats Conservative;
  unsigned ConservativeRuns = 0;
};

Row runWorkload(const char *Label, const std::string &Source,
                size_t HeapBytes, const gc::CollectorOptions &GCO = {}) {
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  auto Prog = compileOrDie(Label, Source.c_str(), CO);

  vm::VMOptions VO;
  VO.HeapBytes = HeapBytes;
  VO.StackWords = 1u << 20;
  vm::VM M(*Prog, VO);
  gc::installPreciseCollector(M, GCO);

  // Wrap the precise collector with a timed conservative scan of the same
  // machine state, for the precise-vs-ambiguous-roots ablation.
  Row R;
  R.Label = Label;
  auto Precise = M.Collector;
  M.Collector = [&R, Precise](vm::VM &Inner) {
    gc::ConservativeStats C = gc::conservativeTrace(Inner);
    R.Conservative.WordsScanned += C.WordsScanned;
    R.Conservative.CandidatePointers += C.CandidatePointers;
    R.Conservative.ObjectsReached += C.ObjectsReached;
    R.Conservative.Nanos += C.Nanos;
    ++R.ConservativeRuns;
    Precise(Inner);
  };

  if (!M.run()) {
    std::fprintf(stderr, "%s: run failed: %s\n", Label, M.Error.c_str());
    std::exit(1);
  }
  R.Stats = M.Stats;
  return R;
}

void printRow(const Row &R) {
  const vm::VMStats &S = R.Stats;
  if (S.Collections == 0) {
    std::printf("%-22s (no collections)\n", R.Label);
    return;
  }
  double TraceUs = S.StackTraceNanos / 1000.0 / S.Collections;
  double GcUs = S.GcNanos / 1000.0 / S.Collections;
  double Frames = static_cast<double>(S.FramesTraced) / S.Collections;
  double PerFrameUs =
      S.FramesTraced ? S.StackTraceNanos / 1000.0 / S.FramesTraced : 0.0;
  double Fraction = 100.0 * S.StackTraceNanos / S.GcNanos;
  std::printf("%-22s %6llu %10.1f %10.1f %7.1f%% %8.1f %9.3f\n", R.Label,
              static_cast<unsigned long long>(S.Collections), TraceUs, GcUs,
              Fraction, Frames, PerFrameUs);
}

} // namespace

int main() {
  std::printf("Section 6.3: stack tracing cost on the destroy benchmark\n");
  std::printf("(paper, VAXStation 3500: 470us/collection tracing, 27-98us "
              "per frame,\n tracing <1.7%%-6%% of total gc time)\n\n");
  std::printf("%-22s %6s %10s %10s %8s %8s %9s\n", "workload", "colls",
              "trace us", "gc us", "trace%", "frames", "us/frame");
  printRule(80);

  gc::CollectorOptions Reference;
  Reference.UseMapIndex = false;
  gc::CollectorOptions Indexed; // Defaults: index + cache.

  struct Workload {
    const char *Label;
    std::string Source;
    size_t HeapBytes;
  };
  std::vector<Workload> Workloads;
  // Paper-scale destroy plus two heavier variants.
  Workloads.push_back(
      {"destroy(3,6,60)", bigDestroy(3, 6, 60), 48u << 10});
  Workloads.push_back(
      {"destroy(3,7,200)", bigDestroy(3, 7, 200), 160u << 10});
  Workloads.push_back(
      {"destroy(2,12,80)", bigDestroy(2, 12, 80), 400u << 10});
  // A less gc-intensive program for the paper's "five times lower gc cost"
  // remark.
  Workloads.push_back({"typereg", programs::TypeRegSource, 64u << 10});

  // Reference decoder: the §6.3 measured artifact.
  std::vector<Row> Rows;
  for (const Workload &W : Workloads)
    Rows.push_back(
        runWorkload(W.Label, W.Source, W.HeapBytes, Reference));
  for (const Row &R : Rows)
    printRow(R);
  printRule(80);

  // The same workloads through the load-time index + decoded-point cache.
  std::printf("\nDecode acceleration: same workloads, load-time index + "
              "decoded-point cache\n");
  std::printf("%-22s %10s %10s %8s %9s %9s %10s\n", "workload", "trace us",
              "speedup", "hit%", "misses", "skippedKB", "roots==ref");
  printRule(84);
  for (size_t I = 0; I != Workloads.size(); ++I) {
    const Workload &W = Workloads[I];
    Row R = runWorkload(W.Label, W.Source, W.HeapBytes, Indexed);
    const vm::VMStats &S = R.Stats;
    const vm::VMStats &Ref = Rows[I].Stats;
    if (S.Collections == 0)
      continue;
    // Identical semantics is part of the contract: the accelerated walk
    // must enumerate exactly the reference roots and derived values.
    bool Same = S.RootsTraced == Ref.RootsTraced &&
                S.DerivedAdjusted == Ref.DerivedAdjusted &&
                S.FramesTraced == Ref.FramesTraced;
    if (!Same) {
      std::fprintf(stderr,
                   "%s: indexed trace diverged from reference "
                   "(roots %llu vs %llu)\n",
                   W.Label, static_cast<unsigned long long>(S.RootsTraced),
                   static_cast<unsigned long long>(Ref.RootsTraced));
      return 1;
    }
    double TraceUs = S.StackTraceNanos / 1000.0 / S.Collections;
    double Speedup = S.StackTraceNanos
                         ? static_cast<double>(Ref.StackTraceNanos) /
                               static_cast<double>(S.StackTraceNanos)
                         : 0.0;
    double HitPct = 100.0 * static_cast<double>(S.DecodeCacheHits) /
                    static_cast<double>(S.DecodeCacheHits +
                                        S.DecodeCacheMisses);
    std::printf("%-22s %10.1f %9.2fx %7.1f%% %9llu %10.1f %10s\n", W.Label,
                TraceUs, Speedup, HitPct,
                static_cast<unsigned long long>(S.DecodeCacheMisses),
                S.DecodeBytesSkipped / 1024.0, "yes");
  }
  printRule(84);

  // Cross-check mode: every decode of all four benchmark programs is also
  // run through the reference decoder; any disagreement aborts.
  gc::CollectorOptions Checked;
  Checked.CrossCheck = true;
  std::printf("\nCross-check (cached == reference on every decode): ");
  for (const programs::NamedProgram &P : programs::All)
    runWorkload(P.Name, P.Source, 96u << 10, Checked);
  std::printf("ok on all four benchmark programs\n");

  std::printf("\nAblation: precise (table-driven) root enumeration vs "
              "conservative whole-stack scan\n");
  std::printf("%-22s %14s %14s %14s %12s\n", "workload", "precise us/coll",
              "conserv us/scan", "words/scan", "cand ptrs");
  printRule(82);
  for (const Row &R : Rows) {
    if (R.ConservativeRuns == 0)
      continue;
    std::printf("%-22s %14.1f %14.1f %14.0f %12.0f\n", R.Label,
                R.Stats.StackTraceNanos / 1000.0 / R.Stats.Collections,
                R.Conservative.Nanos / 1000.0 / R.ConservativeRuns,
                static_cast<double>(R.Conservative.WordsScanned) /
                    R.ConservativeRuns,
                static_cast<double>(R.Conservative.CandidatePointers) /
                    R.ConservativeRuns);
  }
  printRule(82);
  std::printf("\n(The conservative scan visits every stack word; the "
              "precise walk touches only\ntable-described locations but "
              "pays table decoding. The paper's claim is that the\nprecise "
              "cost is a small fraction of total gc time.)\n");
  return 0;
}
