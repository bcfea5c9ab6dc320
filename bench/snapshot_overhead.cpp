//===- bench/snapshot_overhead.cpp - Heap snapshot cost gate ---------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the two costs the snapshot subsystem may add and gates both on
/// the generational workloads:
///
///   - attribution maintenance: per-object site/age attribution is
///     header-borne (vm/Heap.h) and maintained by the collector's own
///     header copy, so the measured cost is the delta in total collection
///     time (VMStats::GcNanos) between a tracer with Attribution off and
///     on — structurally ~0, and the gate keeps it that way.  Gate: <= 2%
///     of collection time (min-of-N, interleaved).
///
///   - capture: a full heap snapshot taken at a full-collection gc-point
///     (the worst realistic moment: live-peak heap, full stacks) must cost
///     no more than one full-collection pause — the user can afford a
///     snapshot whenever they can afford a collection.  Gate: fastest
///     capture <= slowest full-collection pause, per workload.
///
/// Also records at-exit snapshot sizes (nodes, edges, live and encoded
/// bytes) for the four §6 benchmark programs, writes everything to
/// BENCH_snapshot.json, and exits 1 on any gate failure.
///
///   MGC_SNAP_RUNS=N   timing repetitions (default 5)
///   MGC_SNAP_DIR=DIR  also write each §6 at-exit snapshot to
///                     DIR/<name>.snap (for mgc-heapsnap analysis in
///                     tools/check.sh)
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "Programs.h"

#include "gc/Snapshot.h"
#include "obs/HeapSnapshot.h"
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

uint64_t nowNs() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<uint64_t>(T.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(T.tv_nsec);
}

struct GenRun {
  uint64_t GcNanos = 0;        ///< Total collection time this run.
  uint64_t MinCaptureNs = 0;   ///< Fastest full-collection capture (0: none).
  uint64_t MaxFullPauseNs = 0; ///< Slowest full-collection pause.
  uint64_t Captures = 0;
  uint64_t SnapNodes = 0; ///< Nodes in the last captured snapshot.
};

/// One generational run with the tracer enabled.  With \p Attribution the
/// persistent side table is maintained; with \p Capture a snapshot is
/// taken (and timed) at every full-collection gc-point, reusing one
/// snapshot object so steady-state captures run out of grown buffers.
GenRun runGen(const vm::Program &Prog, const Workload &W, bool Attribution,
              bool Capture) {
  vm::VMOptions VO;
  VO.HeapBytes = W.HeapBytes;
  VO.StackWords = 1u << 20;
  VO.GenGc = true;
  VO.NurseryBytes = W.NurseryBytes;
  vm::VM M(Prog, VO);
  gc::installPreciseCollector(M, {});

  obs::TracerConfig TC;
  TC.Sites = &Prog.SiteTab;
  TC.GenGc = true;
  TC.Attribution = Attribution;
  obs::Tracer Tracer(std::move(TC));
  Tracer.enable(/*Stream=*/nullptr);
  M.Tracer = &Tracer;

  GenRun R;
  obs::HeapSnapshot Snap;
  uint64_t FullSeen = 0;
  if (Capture) {
    M.PostGcHook = [&](vm::VM &Inner) {
      uint64_t Full =
          Inner.Stats.Collections - Inner.Stats.MinorCollections;
      if (Full == FullSeen)
        return; // minor collection: capture only at full-collection points
      FullSeen = Full;
      std::string Err;
      uint64_t T0 = nowNs();
      if (!gc::captureHeapSnapshot(Inner, Snap, /*WalkStacks=*/true, Err)) {
        std::fprintf(stderr, "snapshot_overhead: capture failed: %s\n",
                     Err.c_str());
        std::exit(1);
      }
      uint64_t Ns = nowNs() - T0;
      if (!R.Captures || Ns < R.MinCaptureNs)
        R.MinCaptureNs = Ns;
      ++R.Captures;
      R.SnapNodes = Snap.Nodes.size();
    };
  }

  if (!M.run()) {
    std::fprintf(stderr, "snapshot_overhead: %s: run failed: %s\n", W.Name,
                 M.Error.c_str());
    std::exit(1);
  }
  R.GcNanos = M.Stats.GcNanos;
  R.MaxFullPauseNs = Tracer.pausePercentiles(2).Max;
  return R;
}

struct SizeRow {
  const char *Name;
  uint64_t Nodes = 0, Edges = 0, Roots = 0;
  uint64_t LiveBytes = 0, EncodedBytes = 0;
};

} // namespace

int main() {
  int Runs = 5;
  if (const char *E = std::getenv("MGC_SNAP_RUNS"))
    Runs = std::atoi(E);
  if (Runs < 1)
    Runs = 1;

  constexpr double AttrLimitPct = 2.0;

  std::vector<std::unique_ptr<vm::Program>> Progs;
  for (const Workload &W : workloads()) {
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    CO.WriteBarriers = true;
    Progs.push_back(bench::compileOrDie(W.Name, W.Source.c_str(), CO));
  }

  size_t NW = workloads().size();
  // Min-of-N collection time per (workload, attribution?); capture
  // statistics from the attribution+capture runs.
  std::vector<uint64_t> GcBase(NW, UINT64_MAX), GcAttr(NW, UINT64_MAX);
  std::vector<uint64_t> MinCap(NW, UINT64_MAX), MaxPause(NW, 0),
      Nodes(NW, 0);

  for (size_t I = 0; I != NW; ++I)
    runGen(*Progs[I], workloads()[I], false, false); // warmup
  auto Round = [&] {
    for (size_t I = 0; I != NW; ++I) {
      GenRun A = runGen(*Progs[I], workloads()[I], false, false);
      if (A.GcNanos < GcBase[I])
        GcBase[I] = A.GcNanos;
      GenRun B = runGen(*Progs[I], workloads()[I], true, false);
      if (B.GcNanos < GcAttr[I])
        GcAttr[I] = B.GcNanos;
      GenRun C = runGen(*Progs[I], workloads()[I], true, true);
      if (C.Captures && C.MinCaptureNs < MinCap[I])
        MinCap[I] = C.MinCaptureNs;
      if (C.MaxFullPauseNs > MaxPause[I])
        MaxPause[I] = C.MaxFullPauseNs;
      Nodes[I] = C.SnapNodes;
    }
  };
  for (int R = 0; R != Runs; ++R)
    Round();

  auto AttrPct = [&] {
    uint64_t Base = 0, Attr = 0;
    for (size_t I = 0; I != NW; ++I) {
      Base += GcBase[I];
      Attr += GcAttr[I];
    }
    return 100.0 * (static_cast<double>(Attr) - static_cast<double>(Base)) /
           static_cast<double>(Base);
  };
  auto CaptureOk = [&] {
    for (size_t I = 0; I != NW; ++I)
      if (MinCap[I] != UINT64_MAX && MinCap[I] > MaxPause[I])
        return false;
    return true;
  };
  // Minima only tighten: when a noisy round leaves a gate failing, buy
  // bounded extra rounds before concluding the cost is real.
  for (int Extra = 0;
       (AttrPct() > AttrLimitPct || !CaptureOk()) && Extra < 3 * Runs;
       ++Extra)
    Round();

  bool GatePass = AttrPct() <= AttrLimitPct && CaptureOk();

  // At-exit snapshot sizes on the §6 benchmark programs (two-space, -O2).
  std::vector<SizeRow> Sizes;
  for (const auto &P : programs::All) {
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    auto Prog = bench::compileOrDie(P.Name, P.Source, CO);
    vm::VMOptions VO;
    VO.HeapBytes = 4u << 20;
    VO.StackWords = 1u << 20;
    vm::VM M(*Prog, VO);
    gc::installPreciseCollector(M, {});
    obs::TracerConfig TC;
    TC.Sites = &Prog->SiteTab;
    TC.Attribution = true;
    obs::Tracer Tracer(std::move(TC));
    Tracer.enable(nullptr);
    M.Tracer = &Tracer;
    if (!M.run()) {
      std::fprintf(stderr, "snapshot_overhead: %s: run failed: %s\n", P.Name,
                   M.Error.c_str());
      return 1;
    }
    obs::HeapSnapshot Snap;
    std::string Err;
    if (!gc::captureHeapSnapshot(M, Snap, /*WalkStacks=*/true, Err) ||
        !gc::crosscheckSnapshot(M, Snap, /*WalkStacks=*/true, Err)) {
      std::fprintf(stderr, "snapshot_overhead: %s: %s\n", P.Name,
                   Err.c_str());
      return 1;
    }
    std::vector<uint8_t> Blob;
    obs::encodeSnapshot(Snap, Blob);
    if (const char *Dir = std::getenv("MGC_SNAP_DIR")) {
      std::string Path = std::string(Dir) + "/" + P.Name + ".snap";
      std::FILE *F = std::fopen(Path.c_str(), "wb");
      if (!F || std::fwrite(Blob.data(), 1, Blob.size(), F) != Blob.size()) {
        std::fprintf(stderr, "snapshot_overhead: cannot write %s\n",
                     Path.c_str());
        if (F)
          std::fclose(F);
        return 1;
      }
      std::fclose(F);
    }
    SizeRow Row;
    Row.Name = P.Name;
    Row.Nodes = Snap.Nodes.size();
    Row.Edges = Snap.Edges.size();
    Row.Roots = Snap.Roots.size();
    Row.LiveBytes = Snap.totalBytes();
    Row.EncodedBytes = Blob.size();
    Sizes.push_back(Row);
  }

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
    ji(Json, "gc_base_ns", GcBase[I]);
    ji(Json, "gc_attr_ns", GcAttr[I]);
    ji(Json, "capture_min_ns", MinCap[I] == UINT64_MAX ? 0 : MinCap[I]);
    ji(Json, "full_pause_max_ns", MaxPause[I]);
    ji(Json, "snap_nodes", Nodes[I]);
    Json += '}';
  }
  Json += "],\"sizes\":[";
  for (size_t I = 0; I != Sizes.size(); ++I) {
    if (I)
      Json += ',';
    Json += "{\"name\":\"";
    Json += Sizes[I].Name;
    Json += '"';
    ji(Json, "nodes", Sizes[I].Nodes);
    ji(Json, "edges", Sizes[I].Edges);
    ji(Json, "roots", Sizes[I].Roots);
    ji(Json, "live_bytes", Sizes[I].LiveBytes);
    ji(Json, "encoded_bytes", Sizes[I].EncodedBytes);
    Json += '}';
  }
  Json += "],\"gate\":{";
  jf(Json, "attr_limit_pct", AttrLimitPct, /*First=*/true);
  jf(Json, "attr_pct", AttrPct());
  Json += ",\"capture_within_pause\":";
  Json += CaptureOk() ? "true" : "false";
  Json += ",\"pass\":";
  Json += GatePass ? "true" : "false";
  Json += "}}\n";

  if (std::FILE *F = std::fopen("BENCH_snapshot.json", "w")) {
    std::fputs(Json.c_str(), F);
    std::fclose(F);
  } else {
    std::fprintf(stderr,
                 "snapshot_overhead: cannot write BENCH_snapshot.json\n");
    return 1;
  }

  for (size_t I = 0; I != NW; ++I)
    std::printf("snapshot_overhead[%s]: gc %.3f ms -> %.3f ms with "
                "attribution; capture min %.1f us vs full pause max %.1f us "
                "(%llu nodes)\n",
                workloads()[I].Name, static_cast<double>(GcBase[I]) / 1e6,
                static_cast<double>(GcAttr[I]) / 1e6,
                MinCap[I] == UINT64_MAX
                    ? 0.0
                    : static_cast<double>(MinCap[I]) / 1e3,
                static_cast<double>(MaxPause[I]) / 1e3,
                static_cast<unsigned long long>(Nodes[I]));
  for (const SizeRow &S : Sizes)
    std::printf("snapshot_overhead[%s]: %llu nodes, %llu edges, %llu live "
                "bytes, %llu encoded bytes\n",
                S.Name, static_cast<unsigned long long>(S.Nodes),
                static_cast<unsigned long long>(S.Edges),
                static_cast<unsigned long long>(S.LiveBytes),
                static_cast<unsigned long long>(S.EncodedBytes));

  if (!GatePass) {
    std::fprintf(stderr,
                 "snapshot_overhead: FAIL: attribution %+.2f%% (limit "
                 "%.1f%%), capture within pause: %s\n",
                 AttrPct(), AttrLimitPct, CaptureOk() ? "yes" : "no");
    return 1;
  }
  std::printf("snapshot_overhead: ok (attribution %+.2f%% <= %.1f%%, "
              "capture within one full pause)\n",
              AttrPct(), AttrLimitPct);
  return 0;
}
