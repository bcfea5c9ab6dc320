//===- tools/mgc.cpp - The mgc command-line driver -------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compile and run MG programs from the command line.
///
///   mgc [options] file.mg
///
///   --noopt          compile at -O0
///   --no-gc-tables   omit gc tables (the program cannot collect)
///   --cisc           enable the VAX-style addressing fold
///   --threads        insert loop polls for threaded collection (§5.3)
///   --interproc      elide gc-points at calls to non-allocating procs
///   --split          path-splitting instead of path variables (§4)
///   --dump-ir        print the optimized IR and exit
///   --dump-asm       print machine code with decoded tables and exit
///   --stats          print compilation and collection statistics
///   --dispatch {threaded,switch}
///                    execution engine: pre-decoded computed-goto tier
///                    (default) or the reference switch interpreter; both
///                    are observably bit-identical
///   --trace FILE     stream a JSONL gc trace (see obs/Trace.h; render
///                    with mgc-report)
///   --stats-json FILE
///                    write machine-readable run statistics as JSON
///   --heap-snapshot FILE
///                    write a precise heap snapshot at exit (analyze with
///                    mgc-heapsnap); with --gc-crosscheck the snapshot is
///                    validated against an independent precise re-trace
///                    and the conservative superset
///   --snapshot-every N
///                    additionally write FILE.1, FILE.2, ... after every
///                    Nth collection (requires --heap-snapshot; watch the
///                    stream with mgc-heapsnap --watch)
///   --leak-detect    online growth detector: sample per-site live bytes
///                    at every full collection and flag sites whose live
///                    set grows monotonically across the sliding window
///                    (reported in --stats-json, --stats, and the trace's
///                    leak records; no snapshot file needed)
///   --leak-window N  detector window in full collections (default 8;
///                    also the detection-latency bound)
///   --leak-min-bytes B
///                    ignore sites below B live bytes (default 4096)
///   --profile FILE   gc-map-driven sampling profiler: deterministic
///                    mutator-time samples at gc-point granularity plus
///                    per-site/per-stack allocation attribution, written
///                    as a binary profile (analyze with mgc-prof); byte-
///                    identical across dispatch tiers, gc threads, and
///                    decode modes
///   --profile-interval N
///                    mutator sampling interval in retired instructions
///                    (default 4096)
///   --stress         collect before every allocation
///   --heap BYTES     semispace size (default 4 MiB)
///   --gen-gc         generational mode: nursery + write barriers +
///                    remembered-set minor collections
///   --nursery-bytes BYTES
///                    size of each nursery half (default heap/8)
///   --heap-growth PCT
///                    heap-sizing policy: double the semispace at any
///                    collection that begins above PCT% occupancy (or
///                    that a failed allocation demands), up to --heap-max
///   --heap-max BYTES cap for --heap-growth (default 8x the initial heap)
///   --nursery-auto   resize the nursery each minor collection from the
///                    observed survivor volume (floor --nursery-bytes,
///                    cap heap/4)
///   --no-map-index   decode tables with the reference walk-from-start
///                    decoder (the §6.3 artifact) instead of the load-time
///                    index + decoded-point cache
///   --gc-crosscheck  verify every accelerated decode against the
///                    reference decoder (aborts on mismatch)
///   --gc-threads N   GC worker threads for the stop-the-world root walk
///                    and full-copy evacuation (default 1 = serial,
///                    bit-identical GC observables; clamped to 1..8)
///   --no-run         compile only
///
//===----------------------------------------------------------------------===//

#include "codegen/Disasm.h"
#include "driver/Compiler.h"
#include "gc/Collector.h"
#include "gc/Snapshot.h"
#include "obs/Profile.h"
#include "obs/Trace.h"
#include "support/Provenance.h"
#include "vm/VM.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

using namespace mgc;

namespace {
int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--noopt] [--no-gc-tables] [--cisc] [--threads] "
               "[--interproc]\n           [--split] [--dump-ir] [--dump-asm] "
               "[--stats] [--stress]\n           [--trace FILE] "
               "[--stats-json FILE] [--heap-snapshot FILE] "
               "[--snapshot-every N]\n           [--leak-detect] "
               "[--leak-window N] [--leak-min-bytes B]\n           "
               "[--profile FILE] [--profile-interval N]\n           "
               "[--heap BYTES] [--gen-gc]\n           "
               "[--heap-growth PCT] [--heap-max BYTES] [--nursery-auto]\n"
               "           [--nursery-bytes BYTES] [--no-map-index] "
               "[--gc-crosscheck] [--gc-threads N]\n           "
               "[--dispatch {threaded,switch}] [--no-run] [--spawn PROC] "
               "file.mg\n",
               Argv0);
  return 2;
}

void jsonField(std::string &Out, const char *Key, unsigned long long V,
               bool First = false) {
  if (!First)
    Out += ',';
  Out += '"';
  Out += Key;
  Out += "\":";
  Out += std::to_string(V);
}
} // namespace

int main(int argc, char **argv) {
  driver::CompilerOptions Options;
  vm::VMOptions VO;
  gc::CollectorOptions GCO;
  bool DumpIR = false, DumpAsm = false, Stats = false, Run = true;
  const char *Path = nullptr;
  const char *SpawnName = nullptr;
  const char *TracePath = nullptr;
  const char *StatsJsonPath = nullptr;
  const char *SnapPath = nullptr;
  const char *ProfilePath = nullptr;
  unsigned long long ProfileInterval = 4096;
  unsigned long long SnapEvery = 0;
  obs::LeakConfig Leak;

  for (int A = 1; A < argc; ++A) {
    const char *Arg = argv[A];
    if (!std::strcmp(Arg, "--noopt")) {
      Options.OptLevel = 0;
    } else if (!std::strcmp(Arg, "--no-gc-tables")) {
      Options.GcTables = false;
    } else if (!std::strcmp(Arg, "--cisc")) {
      Options.CiscFold = true;
    } else if (!std::strcmp(Arg, "--threads")) {
      Options.ThreadedPolls = true;
    } else if (!std::strcmp(Arg, "--interproc")) {
      Options.InterprocGcPoints = true;
    } else if (!std::strcmp(Arg, "--split")) {
      Options.Mode = driver::Disambiguation::PathSplitting;
    } else if (!std::strcmp(Arg, "--dump-ir")) {
      DumpIR = true;
    } else if (!std::strcmp(Arg, "--dump-asm")) {
      DumpAsm = true;
    } else if (!std::strcmp(Arg, "--stats")) {
      Stats = true;
    } else if (!std::strcmp(Arg, "--trace")) {
      if (++A == argc)
        return usage(argv[0]);
      TracePath = argv[A];
    } else if (!std::strcmp(Arg, "--stats-json")) {
      if (++A == argc)
        return usage(argv[0]);
      StatsJsonPath = argv[A];
    } else if (!std::strcmp(Arg, "--heap-snapshot")) {
      if (++A == argc)
        return usage(argv[0]);
      SnapPath = argv[A];
    } else if (!std::strcmp(Arg, "--snapshot-every")) {
      if (++A == argc)
        return usage(argv[0]);
      SnapEvery = static_cast<unsigned long long>(std::atoll(argv[A]));
    } else if (!std::strcmp(Arg, "--leak-detect")) {
      Leak.Enabled = true;
    } else if (!std::strcmp(Arg, "--leak-window")) {
      if (++A == argc)
        return usage(argv[0]);
      Leak.Window = static_cast<uint32_t>(std::atoll(argv[A]));
    } else if (!std::strcmp(Arg, "--leak-min-bytes")) {
      if (++A == argc)
        return usage(argv[0]);
      Leak.MinBytes = static_cast<uint64_t>(std::atoll(argv[A]));
    } else if (!std::strcmp(Arg, "--profile")) {
      if (++A == argc)
        return usage(argv[0]);
      ProfilePath = argv[A];
    } else if (!std::strcmp(Arg, "--profile-interval")) {
      if (++A == argc)
        return usage(argv[0]);
      long long N = std::atoll(argv[A]);
      if (N < 1) {
        std::fprintf(stderr, "mgc: --profile-interval must be >= 1\n");
        return 2;
      }
      ProfileInterval = static_cast<unsigned long long>(N);
    } else if (!std::strcmp(Arg, "--stress")) {
      VO.GcStress = true;
    } else if (!std::strcmp(Arg, "--no-map-index")) {
      GCO.UseMapIndex = false;
    } else if (!std::strcmp(Arg, "--gc-crosscheck")) {
      GCO.CrossCheck = true;
    } else if (!std::strcmp(Arg, "--gc-threads")) {
      if (++A == argc)
        return usage(argv[0]);
      long long N = std::atoll(argv[A]);
      if (N < 1)
        N = 1;
      if (N > static_cast<long long>(obs::MaxGcWorkers))
        N = obs::MaxGcWorkers;
      GCO.Threads = static_cast<unsigned>(N);
    } else if (!std::strcmp(Arg, "--no-run")) {
      Run = false;
    } else if (!std::strcmp(Arg, "--heap")) {
      if (++A == argc)
        return usage(argv[0]);
      VO.HeapBytes = static_cast<size_t>(std::atoll(argv[A]));
    } else if (!std::strcmp(Arg, "--gen-gc")) {
      Options.WriteBarriers = true;
      VO.GenGc = true;
    } else if (!std::strcmp(Arg, "--nursery-bytes")) {
      if (++A == argc)
        return usage(argv[0]);
      VO.NurseryBytes = static_cast<size_t>(std::atoll(argv[A]));
    } else if (!std::strcmp(Arg, "--heap-growth")) {
      if (++A == argc)
        return usage(argv[0]);
      long long Pct = std::atoll(argv[A]);
      if (Pct < 1 || Pct > 100) {
        std::fprintf(stderr,
                     "mgc: --heap-growth: occupancy percent must be 1..100\n");
        return 2;
      }
      VO.HeapGrowthPct = static_cast<unsigned>(Pct);
    } else if (!std::strcmp(Arg, "--heap-max")) {
      if (++A == argc)
        return usage(argv[0]);
      VO.HeapMaxBytes = static_cast<size_t>(std::atoll(argv[A]));
    } else if (!std::strcmp(Arg, "--nursery-auto")) {
      VO.NurseryAuto = true;
    } else if (!std::strcmp(Arg, "--dispatch") ||
               !std::strncmp(Arg, "--dispatch=", 11)) {
      const char *V = Arg[10] == '=' ? Arg + 11 : nullptr;
      if (!V) {
        if (++A == argc)
          return usage(argv[0]);
        V = argv[A];
      }
      if (!std::strcmp(V, "threaded"))
        VO.Dispatch = vm::DispatchTier::Threaded;
      else if (!std::strcmp(V, "switch"))
        VO.Dispatch = vm::DispatchTier::Switch;
      else {
        std::fprintf(stderr, "mgc: --dispatch: unknown tier '%s' "
                             "(expected threaded or switch)\n",
                     V);
        return 2;
      }
    } else if (!std::strcmp(Arg, "--spawn")) {
      if (++A == argc)
        return usage(argv[0]);
      SpawnName = argv[A];
    } else if (Arg[0] == '-') {
      return usage(argv[0]);
    } else {
      Path = Arg;
    }
  }
  if (!Path)
    return usage(argv[0]);
  if (SnapEvery && !SnapPath) {
    std::fprintf(stderr, "mgc: --snapshot-every requires --heap-snapshot\n");
    return 2;
  }

  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "mgc: cannot open %s\n", Path);
    return 1;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();

  driver::CompileResult Compiled = driver::compile(Buf.str(), Options);
  if (!Compiled.Prog) {
    std::fprintf(stderr, "%s", Compiled.Diags.str().c_str());
    return 1;
  }
  vm::Program &Prog = *Compiled.Prog;

  if (DumpIR) {
    std::fputs(Compiled.irDump().c_str(), stdout);
    return 0;
  }
  if (DumpAsm) {
    for (unsigned F = 0; F != Prog.Funcs.size(); ++F)
      std::fputs(
          codegen::disassembleFunction(Prog, F, Options.GcTables).c_str(),
          stdout);
    return 0;
  }

  if (Stats) {
    std::printf("code: %zu bytes, %zu functions, %u gc-points (%u elided), "
                "%u loop polls\n",
                Prog.codeSizeBytes(), Prog.Funcs.size(), Prog.Stats.NGC,
                Prog.GcPointsElided, Prog.LoopPolls);
    std::printf("tables: delta-main pp %zuB (plain %zuB), full-info packed "
                "%zuB, pc-map %zuB\n",
                Prog.Sizes.DeltaPP, Prog.Sizes.DeltaPlain,
                Prog.Sizes.FullPack, Prog.Sizes.PcMapBytes);
    // Observability cost on its own line: the site table is NOT a gc-table
    // scheme and never inflates the Table 2 figures above.
    std::printf("site table: %zuB, %zu sites (observability; excluded from "
                "gc-table sizes)\n",
                Prog.Sizes.SiteTableBytes, Prog.SiteTab.Sites.size());
    if (Prog.PathVars)
      std::printf("path variables: %u (%u assignments)\n", Prog.PathVars,
                  Prog.PathAssigns);
    if (Options.WriteBarriers)
      std::printf("write barriers: %u emitted\n", Prog.WriteBarriersEmitted);
    if (Options.CiscFold)
      std::printf("addressing folds: %u applied, %u preserved for gc\n",
                  Prog.CiscFoldsApplied, Prog.CiscFoldsBlocked);
  }
  if (!Run)
    return 0;

  vm::VM Machine(Prog, VO);
  gc::installPreciseCollector(Machine, GCO);

  std::ofstream TraceOut;
  std::unique_ptr<obs::Tracer> Tracer;
  if (TracePath || StatsJsonPath || SnapPath || Leak.Enabled) {
    obs::TracerConfig TC;
    TC.Sites = &Prog.SiteTab;
    // Snapshots and the live-by-site stats need the persistent per-object
    // attribution side table, not just first-survival counters.
    TC.Attribution = true;
    TC.Leak = Leak;
    for (const vm::CompiledFunction &F : Prog.Funcs)
      TC.FuncNames.push_back(F.Name);
    TC.ProgramName = Prog.Name;
    TC.GenGc = VO.GenGc;
    TC.Dispatch = vm::dispatchTierName(Machine.Opts.Dispatch);
    TC.SiteTableBytes = Prog.Sizes.SiteTableBytes;
    Tracer = std::make_unique<obs::Tracer>(std::move(TC));
    if (TracePath) {
      TraceOut.open(TracePath);
      if (!TraceOut) {
        std::fprintf(stderr, "mgc: cannot open trace file %s\n", TracePath);
        return 1;
      }
    }
    Tracer->enable(TracePath ? &TraceOut : nullptr);
    Machine.Tracer = Tracer.get();
  }

  std::unique_ptr<obs::Profiler> Prof;
  if (ProfilePath) {
    obs::ProfilerConfig PC;
    PC.IntervalInstrs = ProfileInterval;
    // Decode sampled frames through the same path the collector uses, so
    // --no-map-index / --gc-crosscheck exercise the profiler's walk too.
    PC.UseMapIndex = GCO.UseMapIndex;
    PC.CrossCheck = GCO.CrossCheck;
    Prof = std::make_unique<obs::Profiler>(Prog, PC);
    Machine.Profiler = Prof.get();
  }

  if (SpawnName) {
    int Idx = -1;
    for (unsigned F = 0; F != Prog.Funcs.size(); ++F)
      if (Prog.Funcs[F].Name == SpawnName)
        Idx = static_cast<int>(F);
    if (Idx < 0) {
      std::fprintf(stderr, "mgc: --spawn: no procedure named %s\n",
                   SpawnName);
      return 1;
    }
    Machine.spawnThread(static_cast<unsigned>(Idx));
  }
  unsigned long long SnapSeq = 0;
  bool SnapFailed = false;
  if (SnapPath && SnapEvery) {
    Machine.PostGcHook = [&](vm::VM &M) {
      if (M.Stats.Collections % SnapEvery != 0)
        return;
      obs::HeapSnapshot Snap;
      std::string Err;
      if (!gc::captureHeapSnapshot(M, Snap, /*WalkStacks=*/true, Err)) {
        std::fprintf(stderr, "mgc: %s\n", Err.c_str());
        SnapFailed = true;
        return;
      }
      if (GCO.CrossCheck &&
          !gc::crosscheckSnapshot(M, Snap, /*WalkStacks=*/true, Err)) {
        // Mirror the decode cross-check: a validation mismatch is a
        // collector bug, not a recoverable condition.
        std::fprintf(stderr, "mgc: %s\n", Err.c_str());
        std::abort();
      }
      std::string File =
          std::string(SnapPath) + "." + std::to_string(++SnapSeq);
      if (!obs::writeSnapshotFile(File, Snap, Err)) {
        std::fprintf(stderr, "mgc: %s\n", Err.c_str());
        SnapFailed = true;
      }
    };
  }

  bool Ok = Machine.run();
  std::fputs(Machine.Out.c_str(), stdout);
  // A failed run still flushes everything below: the partial trace (the
  // run record carries the error), the in-progress profile (its body
  // records RunOk=false and the error), and the statistics gathered so
  // far are exactly what a mid-collection failure needs for diagnosis.
  if (Tracer)
    Tracer->finish(Ok, Machine.Error, &Machine.TheHeap);
  bool ProfFailed = false;
  obs::Profile Profile;
  if (Prof) {
    Prof->finish(Ok, Machine.Error, Machine.Stats.Instrs);
    Profile = Prof->buildProfile();
    std::string Err;
    if (!obs::writeProfileFile(ProfilePath, Profile, Err)) {
      std::fprintf(stderr, "mgc: %s\n", Err.c_str());
      ProfFailed = true;
    }
    // Surface the hottest stacks in the trace stream so mgc-report shows
    // them next to the gc events (top 10 by sampled weight).
    if (TracePath && TraceOut) {
      std::vector<const obs::Profile::MutRow *> Hot;
      Hot.reserve(Profile.Mutator.size());
      for (const obs::Profile::MutRow &Row : Profile.Mutator)
        Hot.push_back(&Row);
      std::stable_sort(Hot.begin(), Hot.end(),
                       [](const obs::Profile::MutRow *A,
                          const obs::Profile::MutRow *B) {
                         if (A->Weight != B->Weight)
                           return A->Weight > B->Weight;
                         return A->StackId < B->StackId;
                       });
      if (Hot.size() > 10)
        Hot.resize(10);
      unsigned Rank = 0;
      for (const obs::Profile::MutRow *Row : Hot) {
        std::string Line = "{\"type\":\"prof_stack\"";
        jsonField(Line, "rank", ++Rank);
        jsonField(Line, "samples", Row->Samples);
        jsonField(Line, "weight", Row->Weight);
        Line += ",\"stack\":";
        obs::appendJsonString(Line, obs::foldedStack(Profile, Row->StackId));
        Line += "}";
        TraceOut << Line << '\n';
      }
    }
  }
  if (!Ok) {
    std::fprintf(stderr, "mgc: runtime error: %s\n", Machine.Error.c_str());
    if (Stats)
      std::printf("run FAILED; statistics below are partial\n");
    if (Prof)
      std::fprintf(stderr,
                   "mgc: run FAILED; profile '%s' is partial\n", ProfilePath);
  }

  if (SnapPath) {
    // At-exit capture.  After a clean run every thread is dead, so the
    // stack walk degenerates to globals anyway; after an error the stacks
    // are not at gc-points and must not be walked.
    obs::HeapSnapshot Snap;
    std::string Err;
    if (!gc::captureHeapSnapshot(Machine, Snap, /*WalkStacks=*/Ok, Err)) {
      std::fprintf(stderr, "mgc: %s\n", Err.c_str());
      SnapFailed = true;
    } else if (GCO.CrossCheck &&
               !gc::crosscheckSnapshot(Machine, Snap, /*WalkStacks=*/Ok,
                                       Err)) {
      std::fprintf(stderr, "mgc: %s\n", Err.c_str());
      SnapFailed = true;
    } else if (!obs::writeSnapshotFile(SnapPath, Snap, Err)) {
      std::fprintf(stderr, "mgc: %s\n", Err.c_str());
      SnapFailed = true;
    }
  }
  if (Stats) {
    const vm::VMStats &S = Machine.Stats;
    std::printf("dispatch: %s\n",
                vm::dispatchTierName(Machine.Opts.Dispatch));
    std::printf("run: %llu instrs, %llu collections, %llu bytes copied, "
                "%llu frames traced, %llu derived adjusted\n",
                static_cast<unsigned long long>(S.Instrs),
                static_cast<unsigned long long>(S.Collections),
                static_cast<unsigned long long>(S.BytesCopied),
                static_cast<unsigned long long>(S.FramesTraced),
                static_cast<unsigned long long>(S.DerivedAdjusted));
    if (VO.GenGc)
      std::printf("gen-gc: %llu minor / %llu full collections, %llu barriers "
                  "run, %llu remset records (peak %llu), %llu objects "
                  "promoted (%llu bytes)\n",
                  static_cast<unsigned long long>(S.MinorCollections),
                  static_cast<unsigned long long>(S.Collections -
                                                  S.MinorCollections),
                  static_cast<unsigned long long>(S.WriteBarriersRun),
                  static_cast<unsigned long long>(S.RemSetRecords),
                  static_cast<unsigned long long>(S.RemSetPeak),
                  static_cast<unsigned long long>(
                      Machine.TheHeap.ObjectsPromoted),
                  static_cast<unsigned long long>(
                      Machine.TheHeap.BytesPromoted));
    if (VO.HeapGrowthPct || VO.NurseryAuto)
      std::printf("heap-policy: %llu growths to %llu bytes, %llu nursery "
                  "resizes (half now %llu bytes)\n",
                  static_cast<unsigned long long>(Machine.TheHeap.HeapGrowths),
                  static_cast<unsigned long long>(
                      Machine.TheHeap.capacityBytes()),
                  static_cast<unsigned long long>(
                      Machine.TheHeap.NurseryResizes),
                  static_cast<unsigned long long>(
                      VO.GenGc ? Machine.TheHeap.nurseryCapacityBytes() : 0));
    if (S.Requests)
      std::printf("requests: %llu completed\n",
                  static_cast<unsigned long long>(S.Requests));
    if (Leak.Enabled && Tracer) {
      std::vector<obs::Tracer::LeakFlag> Flags = Tracer->leakFlags();
      std::printf("leak-detect: %zu site(s) flagged (%llu samples over %llu "
                  "collections, window %u)\n",
                  Flags.size(),
                  static_cast<unsigned long long>(Tracer->leakSamples()),
                  static_cast<unsigned long long>(Tracer->leakScans()),
                  Tracer->config().Leak.Window);
      for (const obs::Tracer::LeakFlag &F : Flags) {
        const gcmaps::AllocSite &Site = Prog.SiteTab.Sites[F.Site];
        std::printf("  site %u (%s:%u) slope %+lld B/gc, live %llu B, "
                    "first flagged at gc %llu\n",
                    F.Site,
                    Site.Func < Prog.Funcs.size()
                        ? Prog.Funcs[Site.Func].Name.c_str()
                        : "?",
                    Site.Line, static_cast<long long>(F.SlopeBytes),
                    static_cast<unsigned long long>(F.LiveBytes),
                    static_cast<unsigned long long>(F.FirstFlagged));
      }
    }
    if (GCO.UseMapIndex && (S.DecodeCacheHits || S.DecodeCacheMisses))
      std::printf("decode: %llu cache hits, %llu misses (%.1f%% hit), "
                  "%llu blob bytes skipped by index\n",
                  static_cast<unsigned long long>(S.DecodeCacheHits),
                  static_cast<unsigned long long>(S.DecodeCacheMisses),
                  100.0 * static_cast<double>(S.DecodeCacheHits) /
                      static_cast<double>(S.DecodeCacheHits +
                                          S.DecodeCacheMisses),
                  static_cast<unsigned long long>(S.DecodeBytesSkipped));
    if (Prof)
      std::printf("profile: %llu samples / %llu instrs sampled (interval "
                  "%llu), %llu allocs attributed, %llu walk errors, "
                  "%llu point-decode hits / %llu misses\n",
                  static_cast<unsigned long long>(Profile.Samples),
                  static_cast<unsigned long long>(Profile.SampleWeight),
                  static_cast<unsigned long long>(Profile.IntervalInstrs),
                  static_cast<unsigned long long>(Profile.Allocs),
                  static_cast<unsigned long long>(Profile.WalkErrors),
                  static_cast<unsigned long long>(Prof->decodeHits()),
                  static_cast<unsigned long long>(Prof->decodeMisses()));
  }

  if (StatsJsonPath) {
    const vm::VMStats &S = Machine.Stats;
    std::string J = "{";
    J += "\"program\":";
    obs::appendJsonString(J, Prog.Name);
    J += ",\"exit\":";
    obs::appendJsonString(J, Ok ? "ok" : "error");
    if (!Ok) {
      J += ",\"error\":";
      obs::appendJsonString(J, Machine.Error);
    }
    J += ",\"dispatch\":";
    obs::appendJsonString(J, vm::dispatchTierName(Machine.Opts.Dispatch));
    jsonField(J, "gen_gc", VO.GenGc ? 1 : 0);
    jsonField(J, "code_bytes", Prog.codeSizeBytes());
    jsonField(J, "table_bytes_delta_pp", Prog.Sizes.DeltaPP);
    jsonField(J, "pc_map_bytes", Prog.Sizes.PcMapBytes);
    jsonField(J, "site_table_bytes", Prog.Sizes.SiteTableBytes);
    jsonField(J, "sites", Prog.SiteTab.Sites.size());
    jsonField(J, "instrs", S.Instrs);
    jsonField(J, "collections", S.Collections);
    jsonField(J, "minor_collections", S.MinorCollections);
    jsonField(J, "frames_traced", S.FramesTraced);
    jsonField(J, "roots_traced", S.RootsTraced);
    jsonField(J, "objects_copied", S.ObjectsCopied);
    jsonField(J, "bytes_copied", S.BytesCopied);
    jsonField(J, "objects_promoted", Machine.TheHeap.ObjectsPromoted);
    jsonField(J, "bytes_promoted", Machine.TheHeap.BytesPromoted);
    jsonField(J, "derived_adjusted", S.DerivedAdjusted);
    jsonField(J, "write_barriers_run", S.WriteBarriersRun);
    jsonField(J, "remset_records", S.RemSetRecords);
    jsonField(J, "remset_peak", S.RemSetPeak);
    jsonField(J, "decode_cache_hits", S.DecodeCacheHits);
    jsonField(J, "decode_cache_misses", S.DecodeCacheMisses);
    jsonField(J, "decode_bytes_skipped", S.DecodeBytesSkipped);
    jsonField(J, "rendezvous_steps", S.RendezvousSteps);
    jsonField(J, "req_completed", S.Requests);
    jsonField(J, "heap_growths", Machine.TheHeap.HeapGrowths);
    jsonField(J, "nursery_resizes", Machine.TheHeap.NurseryResizes);
    jsonField(J, "heap_capacity_bytes", Machine.TheHeap.capacityBytes());
    jsonField(J, "copy_waste_bytes", Machine.TheHeap.CopyWasteBytes);
    jsonField(J, "gc_ns", S.GcNanos);
    jsonField(J, "minor_gc_ns", S.MinorGcNanos);
    jsonField(J, "stack_trace_ns", S.StackTraceNanos);
    J += ',';
    J += Tracer->summaryJsonFields();
    J += ',';
    J += Tracer->liveJsonFields(Machine.TheHeap);
    if (Leak.Enabled) {
      J += ',';
      J += Tracer->leakJsonFields();
    }
    if (Prof) {
      jsonField(J, "prof_samples", Profile.Samples);
      jsonField(J, "prof_sample_weight", Profile.SampleWeight);
      jsonField(J, "prof_interval", Profile.IntervalInstrs);
      jsonField(J, "prof_allocs", Profile.Allocs);
      jsonField(J, "prof_alloc_bytes", Profile.AllocBytes);
      jsonField(J, "prof_stacks", Profile.Stacks.size());
      jsonField(J, "prof_frames_sampled", Profile.FramesSampled);
      jsonField(J, "prof_frames_unmapped", Profile.FramesUnmapped);
      jsonField(J, "prof_walk_errors", Profile.WalkErrors);
    }
    J += ",\"provenance\":";
    J += support::provenanceJson();
    J += "}\n";
    std::ofstream JOut(StatsJsonPath);
    if (!JOut) {
      std::fprintf(stderr, "mgc: cannot open stats file %s\n", StatsJsonPath);
      return 1;
    }
    JOut << J;
  }
  if (SnapFailed || ProfFailed)
    return 1;
  return Ok ? 0 : 1;
}
