//===- perfbench/perfbench.cpp - The repository benchmark -------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One process per run of one workload.  The benchmark drives every layer
/// from outside, through public functions only: parseModule / checkModule /
/// lowerModule, driver::compile, vm::decodeProgram and
/// gcmaps::buildFuncMapIndex, VM::run, a timing wrapper around VM::Collector
/// installed after installPreciseCollector, VM::RequestHook, and an
/// obs::Tracer for the collector's phase split.  Nothing under src/ is
/// instrumented for it.
///
///   perfbench --workload W --seed N --seconds S --trace 0|1 --root DIR
///   perfbench --list
///
/// With --trace 0 the last stdout line reports the end-to-end metrics, all
/// measured with tracing off; with --trace 1 it reports the per-layer
/// metrics of a traced run, which also re-measures the untraced run_s to
/// report the tracing overhead.  Every run also makes untimed
/// verification passes, in forked children so that an abort in the
/// cross-checking decoder is counted as a failure instead of killing the
/// run.  `perfbench --list` prints every metric with its unit and meaning.
///
//===----------------------------------------------------------------------===//

#include "Programs.h"
#include "driver/Compiler.h"
#include "frontend/Lower.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "fuzz/Generator.h"
#include "gc/Collector.h"
#include "gcmaps/MapIndex.h"
#include "obs/Trace.h"
#include "vm/Threaded.h"
#include "vm/VM.h"
#include "workload/Server.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace mgc;

namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

uint64_t nsBetween(Clock::time_point A, Clock::time_point B) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(B - A).count());
}

/// Nearest-rank quantile, the same index formula as workload::percentile.
double quantile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t I = static_cast<size_t>(P * static_cast<double>(V.size() - 1) + 0.5);
  return V[std::min(I, V.size() - 1)];
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

/// Mean of the middle 80% of \p V: the estimator of the timed end-to-end
/// metrics.  On a shared host the slow-downs come in phases of tens of
/// seconds, so one run's samples mix a few speed levels.  A median jumps to
/// whichever level holds half of the run; this mean moves with each level's
/// share of it, and still drops the rare outlier.
double trimmedMean(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Cut = V.size() / 10;
  double Sum = 0;
  for (size_t I = Cut; I != V.size() - Cut; ++I)
    Sum += V[I];
  return Sum / static_cast<double>(V.size() - 2 * Cut);
}

/// Request latencies in whole nanoseconds: one counter per nanosecond up
/// to 64 us, a sorted list above.  Quantiles match quantile() on the raw
/// samples, in memory that does not grow with the number of requests.
class LatencyHistogram {
public:
  void add(uint64_t Ns) {
    if (Ns < Fine.size())
      ++Fine[Ns];
    else
      Coarse.push_back(Ns);
    ++Count;
  }
  double quantileUs(double P) {
    if (Count == 0)
      return 0.0;
    uint64_t Rank = static_cast<uint64_t>(P * static_cast<double>(Count - 1) +
                                          0.5);
    for (size_t Ns = 0; Ns != Fine.size(); ++Ns) {
      if (Rank < Fine[Ns])
        return static_cast<double>(Ns) / 1e3;
      Rank -= Fine[Ns];
    }
    std::sort(Coarse.begin(), Coarse.end());
    return static_cast<double>(Coarse[std::min<size_t>(Rank,
                                                       Coarse.size() - 1)]) /
           1e3;
  }
  void clear() { *this = LatencyHistogram(); }

private:
  std::vector<uint64_t> Fine = std::vector<uint64_t>(1u << 16);
  std::vector<uint64_t> Coarse;
  uint64_t Count = 0;
};

/// splitmix64: derives independent per-purpose seeds from --seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed * 0x9e3779b97f4a7c15ULL + Stream * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

//===----------------------------------------------------------------------===//
// Host-speed adjustment
//===----------------------------------------------------------------------===//

/// The benchmark runs on hosts shared with other tenants.  Their speed
/// changes in phases of tens of seconds to minutes, at levels up to 2x
/// apart, and every single-thread timing in a run moves with it (thread
/// CPU time too: the code runs slower, the time is not stolen).  So before
/// every pass the benchmark times a fixed calibration kernel that calls
/// nothing under src/ (an arithmetic loop, then std::map and std::string
/// churn), and multiplies the pass's single-thread timings by the kernel's
/// reference time over its measured time (the geometric mean of the two
/// parts).  The adjusted timings read as times on a host that runs the
/// kernel in the reference time.
class HostProbe {
public:
  /// Times the kernel; returns reference / measured (below 1 on a host
  /// slower than the reference).  The kernel runs in a forked child, so
  /// that its allocations do not show in the benchmark's peak_rss_mb.  The
  /// child runs it once untimed first, to take the copy-on-write faults
  /// on the heap it shares with this process.
  double scale() {
    double Ms = 0;
    int Fd[2];
    if (pipe(Fd) == 0) {
      std::fflush(stdout);
      std::fflush(stderr);
      pid_t Pid = fork();
      if (Pid == 0) {
        close(Fd[0]);
        kernelMs();
        Ms = kernelMs();
        _exit(write(Fd[1], &Ms, sizeof(Ms)) == sizeof(Ms) ? 0 : 1);
      }
      close(Fd[1]);
      if (Pid > 0 && read(Fd[0], &Ms, sizeof(Ms)) != sizeof(Ms))
        Ms = 0;
      close(Fd[0]);
      if (Pid > 0)
        waitpid(Pid, nullptr, 0);
    }
    if (!(Ms > 0)) // No child: time the kernel here instead.
      Ms = kernelMs();
    ProbeMs.push_back(Ms);
    return std::sqrt(RefAluMs * RefHeapMs) / Ms;
  }

  /// Geometric-mean kernel times, one per call.
  std::vector<double> ProbeMs;

private:
  /// The kernel's parts on a 4-vCPU Sapphire Rapids virtual machine in a
  /// fast phase of its host.  They only scale the adjusted values.
  static constexpr double RefAluMs = 6.0, RefHeapMs = 20.0;

  /// The geometric mean of the two parts' times.
  static double kernelMs() {
    auto T0 = Clock::now();
    std::vector<uint32_t> Buf(1u << 14);
    uint64_t X = 1;
    for (int R = 0; R != 300; ++R)
      for (size_t I = 0; I != Buf.size(); ++I) {
        Buf[I] += static_cast<uint32_t>(X * I);
        X = X * 6364136223846793005ULL + 1;
      }
    auto T1 = Clock::now();
    std::map<uint64_t, std::string> M;
    for (int R = 0; R != 40000; ++R) {
      X = X * 6364136223846793005ULL + 1442695040888963407ULL;
      M[X >> 40].assign(static_cast<size_t>(8 + (X >> 60)), 'a');
    }
    uint64_t H = Buf[77];
    for (int R = 0; R != 40000; ++R) {
      X = X * 6364136223846793005ULL + 1442695040888963407ULL;
      auto It = M.lower_bound(X >> 40);
      if (It != M.end())
        H += It->second.size();
    }
    Sink = H;
    return std::sqrt(msBetween(T0, T1) * msBetween(T1, Clock::now()));
  }
  static inline volatile uint64_t Sink = 0; ///< Keeps the kernel live.
};

//===----------------------------------------------------------------------===//
// Metric tables
//===----------------------------------------------------------------------===//

struct MetricDef {
  const char *Name;
  const char *Unit;
  const char *Meaning;
};

/// Reported with --trace 0 by every workload.  A "pass" is one timed unit
/// of work: one compile+load of the whole program set (compile-mix) or the
/// VM::run of every program (the runtime workloads).  Every time except
/// destroy-3m-gc2's run_s (two threads) is host-speed adjusted (HostProbe).
const MetricDef EndToEnd[] = {
    {"setup_s", "s",
     "generate, compile and load before the timed part; median of the "
     "set-ups before every pass"},
    {"run_s", "s",
     "wall time of one pass: compile+load of the whole program set "
     "(compile-mix) or VM::run of every program (runtime workloads); "
     "trimmed mean over the passes"},
    {"compile_p50_ms", "ms",
     "per-program driver::compile + load time: each program's trimmed mean "
     "over the passes (runtime workloads: over the set-ups), median over "
     "the programs"},
    {"compile_p90_ms", "ms", "the same, p90"},
    {"compile_kb_per_s", "KB/s",
     "source KB compiled and loaded per second (from the trimmed means)"},
    {"code_bytes", "bytes", "machine-code bytes summed over the program set; "
                            "exact"},
    {"table_bytes", "bytes",
     "delta-main packed+previous gc-map bytes plus pc-map bytes, summed "
     "(the paper's Table 2 numerator); exact"},
    {"peak_rss_mb", "MB", "peak resident memory of the benchmark process"},
};

/// Reported with --trace 1.  Times are per pass, medians over the run's
/// traced passes (compile-side layers on runtime workloads: medians over
/// the set-ups of their one program).  Layers a workload does not exercise
/// report 0.
const MetricDef PerLayer[] = {
    {"frontend.parse_ms", "ms", "parseModule"},
    {"frontend.sema_ms", "ms", "checkModule"},
    {"frontend.lower_ms", "ms", "lowerModule"},
    {"frontend.src_kb", "KB", "source compiled per pass"},
    {"driver.post_lower_ms", "ms",
     "driver::compile minus the front-end trio and the map-index build: "
     "optimizer, gc-safety, back end, table encoding"},
    {"opt.ms_over_O0", "ms", "the same sources compiled at -O2 minus -O0"},
    {"vm.decode_program_ms", "ms", "vm::decodeProgram (load-time translation)"},
    {"gcmaps.map_index_ms", "ms", "gcmaps::buildFuncMapIndex over all maps"},
    {"gcmaps.gc_points", "count", "gc-points with tables"},
    {"gcmaps.delta_pp_bytes", "bytes", "delta-main packed+previous bytes"},
    {"gcmaps.pc_map_bytes", "bytes", "pc-map bytes"},
    {"vm.instrs", "count", "instructions retired per pass; exact"},
    {"vm.mutator_ms", "ms", "VM::run wall minus collection time"},
    {"vm.ns_per_instr", "ns", "mutator time per instruction"},
    {"vm.write_barriers", "count", "write-barrier instructions executed"},
    {"vm.remset_records", "count", "barrier hits that recorded a slot"},
    {"vm.remset_peak", "count", "largest remembered set at a collection"},
    {"gc.collections", "count", "collections per pass (minor + full); exact"},
    {"gc.minor_collections", "count", "minor collections per pass"},
    {"gc.total_ms", "ms",
     "rendezvous + time inside VM::Collector (timing wrapper)"},
    {"gc.rendezvous_ms", "ms", "thread rendezvous before each collection"},
    {"gc.rendezvous_steps", "count", "instructions other threads ran to "
                                     "reach a gc-point"},
    {"gc.stack_trace_ms", "ms", "table locate + decode + root gathering"},
    {"gc.frames_traced", "count", "frames walked"},
    {"gc.roots_traced", "count", "tidy roots traced"},
    {"gc.decode_hit_ratio", "ratio",
     "decoded-point cache hits / (hits + misses)"},
    {"gc.underive_ms", "ms", "derived-value un-derivation"},
    {"gc.rederive_ms", "ms", "derived-value re-derivation"},
    {"gc.derived_adjusted", "count", "derived values adjusted"},
    {"gc.copy_ms", "ms", "evacuation and scan"},
    {"gc.bytes_copied", "bytes", "bytes evacuated per pass; exact"},
    {"gc.objects_copied", "count", "objects evacuated per pass"},
    {"gc.copy_mb_per_s", "MB/s", "bytes copied / copy time"},
    {"gc.remset_rebuild_ms", "ms", "minor collections: remembered-set sweep"},
    {"gc.bytes_promoted", "bytes", "bytes promoted to the old space"},
    {"gc.worker_copy_imbalance", "ratio",
     "max / mean over GC workers of summed copy nanos"},
    {"gc.worker_trace_imbalance", "ratio",
     "max / mean over GC workers of summed stack-walk nanos"},
    {"gc.pause_p50_us", "us",
     "rendezvous + time inside VM::Collector per collection, median "
     "(untraced passes)"},
    {"gc.pause_p90_us", "us", "the same, p90"},
    {"gc.pause_p99_us", "us", "the same, p99"},
    {"gc.serial_pause_p50_us", "us",
     "destroy-3m-gc2: time inside VM::Collector per collection, median, of "
     "the same program and heap under the serial collector (its forked "
     "determinism run); 0 elsewhere"},
    {"workload.rps", "1/s", "requests per second (untraced passes)"},
    {"workload.req_p50_us", "us",
     "wall time between consecutive ReqDone() markers, median"},
    {"workload.req_p99_us", "us", "the same, p99"},
    {"workload.service_instrs_p50", "count",
     "instructions between consecutive ReqDone() markers, median; exact"},
    {"other.ms", "ms",
     "pass wall time not covered by any timed layer (collector bookkeeping "
     "outside the phases, event commit, result destruction)"},
    {"obs.trace_overhead_ratio", "ratio",
     "traced run_s / untraced run_s - 1, both from this run"},
    {"host.probe_ms", "ms",
     "the host-speed calibration kernel before each untraced pass, median; "
     "higher on a slower host"},
};

/// Layer-sum tolerance: in every traced pass, other.ms may be at most this
/// share of the pass wall time, and the tracer's phase nanos must cover at
/// least 1 - this share of gc.total_ms.
constexpr double LayerSumTolerance = 0.10;

//===----------------------------------------------------------------------===//
// Result accounting
//===----------------------------------------------------------------------===//

class Result {
public:
  /// Records one checked operation; a false \p Ok is a failure.
  bool check(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      std::fprintf(stderr, "perfbench: FAILED: %s\n", What.c_str());
    }
    return Ok;
  }

  void put(const char *Name, double Value) { Values[Name] = Value; }

  /// Prints the result line for \p Defs.  Aborts the run (exit 2) when the
  /// workload did not produce exactly the listed metrics.
  template <size_t N> void print(const MetricDef (&Defs)[N]) const {
    if (Values.size() != N) {
      std::fprintf(stderr, "perfbench: internal: %zu metrics, expected %zu\n",
                   Values.size(), N);
      std::exit(2);
    }
    std::string J = "{\"correct\": ";
    J += Failed == 0 ? "true" : "false";
    J += ", \"attempted\": " + std::to_string(Attempted);
    J += ", \"failed\": " + std::to_string(Failed);
    J += ", \"metrics\": {";
    for (size_t I = 0; I != N; ++I) {
      auto It = Values.find(Defs[I].Name);
      if (It == Values.end() || !std::isfinite(It->second)) {
        std::fprintf(stderr, "perfbench: internal: metric %s missing\n",
                     Defs[I].Name);
        std::exit(2);
      }
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.17g", It->second);
      if (I)
        J += ", ";
      J += std::string("\"") + Defs[I].Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + Defs[I].Unit + "\"}";
    }
    J += "}}";
    std::printf("%s\n", J.c_str());
    std::fflush(stdout);
  }

  uint64_t Attempted = 0, Failed = 0;

private:
  std::map<std::string, double> Values;
};

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

//===----------------------------------------------------------------------===//
// Forked verification runs
//===----------------------------------------------------------------------===//

/// The observable outcome of one run: its output and the counts that a
/// deterministic VM reproduces exactly.
struct RunSummary {
  bool Ok = false;
  std::string Out, Error;
  uint64_t Instrs = 0, Collections = 0, MinorCollections = 0,
           BytesCopied = 0, ObjectsCopied = 0, Requests = 0;
  double PauseP50Us = 0; ///< Time inside VM::Collector, median; not exact.

  static RunSummary of(const vm::VM &M, bool Ok) {
    return {Ok,
            M.Out,
            M.Error,
            M.Stats.Instrs,
            M.Stats.Collections,
            M.Stats.MinorCollections,
            M.Stats.BytesCopied,
            M.Stats.ObjectsCopied,
            M.Stats.Requests};
  }
  bool sameCounts(const RunSummary &O) const {
    return Ok && O.Ok && Out == O.Out && Instrs == O.Instrs &&
           Collections == O.Collections &&
           MinorCollections == O.MinorCollections &&
           BytesCopied == O.BytesCopied && ObjectsCopied == O.ObjectsCopied &&
           Requests == O.Requests;
  }
};

/// Runs \p Fn in a forked child and returns its summary.  A child that
/// aborts (the cross-checking decoder does on any table disagreement) or
/// dies otherwise comes back as a failed summary.
RunSummary runForked(const std::function<RunSummary()> &Fn) {
  RunSummary Bad;
  int Fd[2];
  if (pipe(Fd) != 0) {
    Bad.Error = "pipe failed";
    return Bad;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t Pid = fork();
  if (Pid < 0) {
    close(Fd[0]);
    close(Fd[1]);
    Bad.Error = "fork failed";
    return Bad;
  }
  if (Pid == 0) {
    close(Fd[0]);
    alarm(170); // Never outlive the run's own deadline.
    RunSummary S = Fn();
    std::string P = std::to_string(S.Ok);
    for (uint64_t V : {S.Instrs, S.Collections, S.MinorCollections,
                       S.BytesCopied, S.ObjectsCopied, S.Requests,
                       static_cast<uint64_t>(S.Out.size())})
      P += " " + std::to_string(V);
    char Pause[32];
    std::snprintf(Pause, sizeof(Pause), " %.17g", S.PauseP50Us);
    P += Pause;
    P += "\n" + S.Out + S.Error;
    size_t Off = 0;
    while (Off < P.size()) {
      ssize_t W = write(Fd[1], P.data() + Off, P.size() - Off);
      if (W <= 0)
        break;
      Off += static_cast<size_t>(W);
    }
    _exit(0);
  }
  close(Fd[1]);
  std::string Buf;
  char Chunk[4096];
  ssize_t N;
  while ((N = read(Fd[0], Chunk, sizeof(Chunk))) > 0)
    Buf.append(Chunk, static_cast<size_t>(N));
  close(Fd[0]);
  int WStatus = 0;
  waitpid(Pid, &WStatus, 0);
  if (!WIFEXITED(WStatus) || WEXITSTATUS(WStatus) != 0) {
    Bad.Error = WIFSIGNALED(WStatus)
                    ? "child killed by signal " +
                          std::to_string(WTERMSIG(WStatus))
                    : "child exited abnormally";
    return Bad;
  }
  RunSummary S;
  int Ok = 0;
  uint64_t OutLen = 0;
  size_t Nl = Buf.find('\n');
  if (Nl == std::string::npos ||
      std::sscanf(Buf.c_str(),
                  "%d %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                  " %" SCNu64 " %" SCNu64 " %" SCNu64 " %lf",
                  &Ok, &S.Instrs, &S.Collections, &S.MinorCollections,
                  &S.BytesCopied, &S.ObjectsCopied, &S.Requests, &OutLen,
                  &S.PauseP50Us) != 9 ||
      OutLen > Buf.size() - Nl - 1) {
    Bad.Error = "malformed child report";
    return Bad;
  }
  S.Ok = Ok != 0;
  S.Out = Buf.substr(Nl + 1, OutLen);
  S.Error = Buf.substr(Nl + 1 + OutLen);
  return S;
}

/// Runs \p Prog to completion in this process: the body of a forked run.
/// (fuzz::runSandboxed spawns at most one spin thread and attaches a
/// profiler and leak detector; these runs must match the timed runs'
/// configuration exactly.)
RunSummary runProgram(const vm::Program &Prog, const vm::VMOptions &VO,
                      const gc::CollectorOptions &GCO, unsigned SpinThreads) {
  RunSummary S;
  vm::VM M(Prog, VO);
  gc::installPreciseCollector(M, GCO);
  std::vector<double> PauseUs;
  std::function<void(vm::VM &)> Inner = std::move(M.Collector);
  M.Collector = [&](vm::VM &V) {
    auto T0 = Clock::now();
    Inner(V);
    PauseUs.push_back(msBetween(T0, Clock::now()) * 1e3);
  };
  for (unsigned I = 0; I != SpinThreads; ++I) {
    unsigned Spin = 0;
    while (Spin != Prog.Funcs.size() && Prog.Funcs[Spin].Name != "Spin")
      ++Spin;
    if (Spin == Prog.Funcs.size()) {
      S.Error = "no Spin() procedure to spawn";
      return S;
    }
    M.spawnThread(Spin);
  }
  bool Ok = M.run();
  S = RunSummary::of(M, Ok);
  S.PauseP50Us = median(PauseUs);
  return S;
}

//===----------------------------------------------------------------------===//
// Compile-side measurements shared by all workloads
//===----------------------------------------------------------------------===//

/// Table and code sizes of one compiled program.
struct Sizes {
  uint64_t Code = 0, Table = 0, GcPoints = 0, DeltaPP = 0, PcMap = 0;

  static Sizes of(const vm::Program &P) {
    Sizes S;
    S.Code = P.codeSizeBytes();
    S.DeltaPP = P.Sizes.DeltaPP;
    S.PcMap = P.Sizes.PcMapBytes;
    S.Table = S.DeltaPP + S.PcMap;
    for (const gcmaps::EncodedFuncMaps &M : P.Maps)
      S.GcPoints += M.RetPCs.size();
    return S;
  }
  void add(const Sizes &O) {
    Code += O.Code;
    Table += O.Table;
    GcPoints += O.GcPoints;
    DeltaPP += O.DeltaPP;
    PcMap += O.PcMap;
  }
  bool operator==(const Sizes &O) const {
    return Code == O.Code && Table == O.Table && GcPoints == O.GcPoints &&
           DeltaPP == O.DeltaPP && PcMap == O.PcMap;
  }
};

/// The compile-side layer split of one program, measured by calling each
/// layer's public entry point on the same source outside driver::compile.
struct CompileLayers {
  double ParseMs = 0, SemaMs = 0, LowerMs = 0, MapIndexMs = 0, O0Ms = 0;
};

CompileLayers measureCompileLayers(const std::string &Source,
                                   const vm::Program &Compiled,
                                   driver::CompilerOptions CO) {
  CompileLayers L;
  {
    Diagnostics D;
    auto T0 = Clock::now();
    std::unique_ptr<ModuleAST> AST = parseModule(Source, D);
    auto T1 = Clock::now();
    bool Ok = AST && checkModule(*AST, D);
    auto T2 = Clock::now();
    std::unique_ptr<ir::IRModule> IR;
    if (Ok)
      IR = lowerModule(*AST);
    auto T3 = Clock::now();
    L.ParseMs = msBetween(T0, T1);
    L.SemaMs = msBetween(T1, T2);
    L.LowerMs = msBetween(T2, T3);
  }
  {
    auto T0 = Clock::now();
    std::vector<gcmaps::FuncMapIndex> Idx;
    Idx.reserve(Compiled.Maps.size());
    for (const gcmaps::EncodedFuncMaps &M : Compiled.Maps)
      Idx.push_back(gcmaps::buildFuncMapIndex(M));
    L.MapIndexMs = msBetween(T0, Clock::now());
  }
  {
    CO.OptLevel = 0;
    auto T0 = Clock::now();
    driver::CompileResult R = driver::compile(Source, CO);
    L.O0Ms = msBetween(T0, Clock::now());
  }
  return L;
}

/// Per-pass sums of the compile-side layers.
struct CompileSplit {
  double Parse = 0, Sema = 0, Lower = 0, PostLower = 0, MapIndex = 0,
         Decode = 0, OverO0 = 0;
  bool NonNegative = true;

  void add(const CompileLayers &L, double CompileMs, double DecodeMs) {
    double Post =
        CompileMs - L.ParseMs - L.SemaMs - L.LowerMs - L.MapIndexMs;
    NonNegative &= Post >= 0;
    Parse += L.ParseMs;
    Sema += L.SemaMs;
    Lower += L.LowerMs;
    PostLower += Post;
    MapIndex += L.MapIndexMs;
    Decode += DecodeMs;
    OverO0 += CompileMs - L.O0Ms;
  }
  double covered() const {
    return Parse + Sema + Lower + PostLower + MapIndex + Decode;
  }
};

void putCompileSplit(Result &R, const std::vector<CompileSplit> &Splits,
                     double SrcKb, const Sizes &Sz) {
  auto Med = [&](double CompileSplit::*F) {
    std::vector<double> V;
    for (const CompileSplit &S : Splits)
      V.push_back(S.*F);
    return median(V);
  };
  R.put("frontend.parse_ms", Med(&CompileSplit::Parse));
  R.put("frontend.sema_ms", Med(&CompileSplit::Sema));
  R.put("frontend.lower_ms", Med(&CompileSplit::Lower));
  R.put("frontend.src_kb", SrcKb);
  R.put("driver.post_lower_ms", Med(&CompileSplit::PostLower));
  R.put("opt.ms_over_O0", Med(&CompileSplit::OverO0));
  R.put("vm.decode_program_ms", Med(&CompileSplit::Decode));
  R.put("gcmaps.map_index_ms", Med(&CompileSplit::MapIndex));
  R.put("gcmaps.gc_points", static_cast<double>(Sz.GcPoints));
  R.put("gcmaps.delta_pp_bytes", static_cast<double>(Sz.DeltaPP));
  R.put("gcmaps.pc_map_bytes", static_cast<double>(Sz.PcMap));
}

void putCompileEndToEnd(Result &R, const std::vector<double> &Samples,
                        double KbPerS, const Sizes &Sz) {
  R.put("compile_p50_ms", quantile(Samples, 0.5));
  R.put("compile_p90_ms", quantile(Samples, 0.9));
  R.put("compile_kb_per_s", KbPerS);
  R.put("code_bytes", static_cast<double>(Sz.Code));
  R.put("table_bytes", static_cast<double>(Sz.Table));
}

/// Per-layer metrics of the runtime layers, zero on compile-mix.
void putRuntimeZeros(Result &R) {
  for (const char *N :
       {"vm.instrs", "vm.mutator_ms", "vm.ns_per_instr", "vm.write_barriers",
        "vm.remset_records", "vm.remset_peak", "gc.collections",
        "gc.minor_collections", "gc.total_ms", "gc.rendezvous_ms",
        "gc.rendezvous_steps", "gc.stack_trace_ms", "gc.frames_traced",
        "gc.roots_traced", "gc.decode_hit_ratio", "gc.underive_ms",
        "gc.rederive_ms", "gc.derived_adjusted", "gc.copy_ms",
        "gc.bytes_copied", "gc.objects_copied", "gc.copy_mb_per_s",
        "gc.remset_rebuild_ms", "gc.bytes_promoted",
        "gc.worker_copy_imbalance", "gc.worker_trace_imbalance",
        "gc.pause_p50_us", "gc.pause_p90_us", "gc.pause_p99_us",
        "gc.serial_pause_p50_us", "workload.rps", "workload.req_p50_us", "workload.req_p99_us",
        "workload.service_instrs_p50"})
    R.put(N, 0.0);
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Root = ".";
};

//===----------------------------------------------------------------------===//
// compile-mix
//===----------------------------------------------------------------------===//

/// Seeded fuzz programs join the 4 paper programs and the frozen corpus
/// until they add this much source.  A size budget rather than a count
/// keeps the work of a pass nearly the same from seed to seed.
constexpr size_t MixFuzzBytes = 768u << 10;

struct MixProgram {
  std::string Name, Source;
  const char *Expected = nullptr; ///< Paper programs only.
  bool HasSpin = false;
};

std::vector<MixProgram> buildMix(const Options &O) {
  std::vector<MixProgram> Mix;
  for (const programs::NamedProgram &P : programs::All)
    Mix.push_back({P.Name, P.Source, P.Expected, false});
  namespace fs = std::filesystem;
  std::vector<fs::path> Files;
  fs::path Dir = fs::path(O.Root) / "tests" / "corpus";
  std::error_code EC;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, EC))
    if (E.path().extension() == ".mg")
      Files.push_back(E.path());
  if (EC || Files.empty()) {
    std::fprintf(stderr, "perfbench: no corpus under %s\n",
                 Dir.string().c_str());
    std::exit(2);
  }
  std::sort(Files.begin(), Files.end());
  for (const fs::path &F : Files) {
    std::ifstream In(F, std::ios::binary);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    MixProgram P;
    P.Name = F.stem().string();
    P.Source = Buf.str();
    P.HasSpin = P.Source.find("PROCEDURE Spin") != std::string::npos;
    Mix.push_back(std::move(P));
  }
  size_t FuzzBytes = 0;
  for (unsigned K = 0; FuzzBytes < MixFuzzBytes; ++K) {
    fuzz::GProgram G = fuzz::generateProgram(mixSeed(O.Seed, K));
    Mix.push_back({"fuzz" + std::to_string(K), G.render(), nullptr,
                   G.HasSpin});
    FuzzBytes += Mix.back().Source.size();
  }
  return Mix;
}

driver::CompilerOptions mixOptions(const MixProgram &P) {
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  CO.GcTables = true;
  CO.WriteBarriers = true;
  CO.ThreadedPolls = P.HasSpin; // Spin threads need polled loops.
  return CO;
}

int runCompileMix(const Options &O) {
  Result R;
  // Set-up: build the program set.  It is redone before every pass, so the
  // set-up samples spread over the whole run like the pass samples do.
  std::vector<double> SetupS;
  std::vector<MixProgram> Mix;
  auto SetUp = [&] {
    auto T0 = Clock::now();
    Mix = buildMix(O);
    return msBetween(T0, Clock::now()) / 1e3;
  };
  SetUp();
  double SrcKb = 0;
  for (const MixProgram &P : Mix)
    SrcKb += static_cast<double>(P.Source.size()) / 1024.0;

  // Verification: each program at the benchmark's options runs with the
  // cross-checking decoder under collection stress; its output must equal
  // an -O0 switch-tier run (and the paper's expected output, where one
  // exists).  The sizes recorded here are the exact-count reference.
  std::vector<Sizes> RefSizes;
  for (const MixProgram &P : Mix) {
    driver::CompilerOptions CO = mixOptions(P);
    driver::CompileResult C2 = driver::compile(P.Source, CO);
    CO.OptLevel = 0;
    driver::CompileResult C0 = driver::compile(P.Source, CO);
    if (!R.check(C2.Prog && C0.Prog, P.Name + ": compiles")) {
      RefSizes.push_back({});
      continue;
    }
    RefSizes.push_back(Sizes::of(*C2.Prog));
    unsigned Spin = P.HasSpin ? 1 : 0;
    RunSummary Ref = runForked([&] {
      vm::VMOptions VO;
      VO.HeapBytes = 8u << 20;
      VO.Dispatch = vm::DispatchTier::Switch;
      VO.InstrBudget = 50'000'000;
      return runProgram(*C0.Prog, VO, {}, Spin);
    });
    RunSummary Chk = runForked([&] {
      vm::VMOptions VO;
      VO.HeapBytes = 1u << 20;
      VO.GcStress = true;
      VO.InstrBudget = 50'000'000;
      gc::CollectorOptions GCO;
      GCO.CrossCheck = true;
      return runProgram(*C2.Prog, VO, GCO, Spin);
    });
    R.check(Ref.Ok, P.Name + ": -O0 reference run: " + Ref.Error);
    R.check(Chk.Ok, P.Name + ": cross-checked run: " + Chk.Error);
    R.check(Ref.Out == Chk.Out, P.Name + ": output differs from -O0");
    if (P.Expected)
      R.check(Chk.Out == P.Expected, P.Name + ": output differs from the "
                                              "paper program's expected");
  }

  // Timed passes.  Per program: driver::compile, then vm::decodeProgram
  // (the load); the results are destroyed inside the pass.  ProgramMs
  // holds each program's compile+load times over the untraced passes.
  std::vector<std::vector<double>> ProgramMs(Mix.size());
  std::vector<double> PassS, RawPassS, TracedPassS;
  std::vector<CompileSplit> Splits;
  std::vector<double> OtherMs, PassCompileS;
  Sizes SetSizes;
  bool LayerSumOk = true;
  HostProbe Probe;
  auto RunPass = [&](bool Traced) {
    double SetupSeconds = SetUp();
    double Scale = Traced ? 1.0 : Probe.scale();
    if (!Traced)
      SetupS.push_back(SetupSeconds * Scale);
    CompileSplit Split;
    double Wall = 0, CompileMs = 0;
    Sizes PassSizes;
    auto P0 = Clock::now();
    for (size_t I = 0; I != Mix.size(); ++I) {
      const MixProgram &P = Mix[I];
      driver::CompilerOptions CO = mixOptions(P);
      auto T0 = Clock::now();
      driver::CompileResult C = driver::compile(P.Source, CO);
      auto T1 = Clock::now();
      if (!R.check(C.Prog != nullptr, P.Name + ": compiles"))
        continue;
      vm::DecodedProgram DP = vm::decodeProgram(*C.Prog);
      auto T2 = Clock::now();
      Sizes S = Sizes::of(*C.Prog);
      R.check(S == RefSizes[I], P.Name + ": code/table sizes repeat");
      PassSizes.add(S);
      CompileLayers L;
      if (Traced)
        L = measureCompileLayers(P.Source, *C.Prog, CO);
      auto T3 = Clock::now();
      DP = {};
      C = {};
      auto T4 = Clock::now();
      double Ms = msBetween(T0, T2);
      if (!Traced)
        ProgramMs[I].push_back(Ms * Scale);
      CompileMs += Ms;
      Wall += Ms + msBetween(T3, T4);
      if (Traced)
        Split.add(L, msBetween(T0, T1), msBetween(T1, T2));
    }
    SetSizes = PassSizes;
    if (Traced) {
      double Other = Wall - Split.covered();
      bool Ok = Split.NonNegative && Other >= 0 &&
                Other <= LayerSumTolerance * Wall;
      LayerSumOk &= Ok;
      OtherMs.push_back(Other);
      Splits.push_back(Split);
      TracedPassS.push_back(Wall / 1e3);
    } else {
      double Raw = msBetween(P0, Clock::now()) / 1e3;
      RawPassS.push_back(Raw);
      PassS.push_back(Raw * Scale);
      PassCompileS.push_back(CompileMs / 1e3 * Scale);
    }
  };

  auto Start = Clock::now();
  double Budget = O.Trace ? O.Seconds / 2 : O.Seconds;
  while (PassS.size() < 3 || msBetween(Start, Clock::now()) < Budget * 1e3)
    RunPass(false);
  if (O.Trace) {
    Start = Clock::now();
    while (TracedPassS.size() < 3 ||
           msBetween(Start, Clock::now()) < Budget * 1e3)
      RunPass(true);
    R.check(LayerSumOk, "layer sum within tolerance in every traced pass");
    putCompileSplit(R, Splits, SrcKb, SetSizes);
    putRuntimeZeros(R);
    R.put("other.ms", median(OtherMs));
    R.put("obs.trace_overhead_ratio",
          trimmedMean(TracedPassS) / trimmedMean(RawPassS) - 1.0);
    R.put("host.probe_ms", median(Probe.ProbeMs));
    R.print(PerLayer);
  } else {
    R.put("setup_s", median(SetupS));
    R.put("run_s", trimmedMean(PassS));
    // A program's compile time is its mean over the passes; the
    // percentiles are over the programs.
    std::vector<double> PerProgram;
    for (const std::vector<double> &V : ProgramMs)
      PerProgram.push_back(trimmedMean(V));
    putCompileEndToEnd(R, PerProgram, SrcKb / trimmedMean(PassCompileS),
                       SetSizes);
    R.put("peak_rss_mb", peakRssMb());
    R.print(EndToEnd);
  }
  std::fprintf(stderr,
               "perfbench: compile-mix: %zu programs, %.1f KB, %zu passes\n",
               Mix.size(), SrcKb, PassS.size() + TracedPassS.size());
  return 0;
}

//===----------------------------------------------------------------------===//
// Runtime workloads: destroy-3m-gc2, server-gen
//===----------------------------------------------------------------------===//

/// destroy at Branch=4, Depth=8: about 3 MB live, 142 full collections of
/// a 4 MiB semispace per run.
constexpr long DestroyBranch = 4, DestroyDepth = 8, DestroyReplDepth = 2,
               DestroyIters = 3000;
constexpr size_t DestroySemispace = 4u << 20;
/// server-gen: seeded server programs per pass, requests per program (one
/// VM::run each), and the spin threads sharing each VM.  Several programs
/// a pass keep the work of a pass nearly the same from seed to seed.
constexpr unsigned ServerPrograms = 32;
constexpr unsigned ServerRequests = 9'375;
constexpr unsigned ServerSpinThreads = 2;
/// server-gen's semispace: the default nursery (an eighth of it) then
/// fills every few hundred requests, so minor collections are frequent.
constexpr size_t ServerSemispace = 256u << 10;

std::string replaceOnce(std::string S, const std::string &From,
                        const std::string &To) {
  size_t At = S.find(From);
  if (At == std::string::npos) {
    std::fprintf(stderr, "perfbench: destroy source lacks '%s'\n",
                 From.c_str());
    std::exit(2);
  }
  return S.replace(At, From.size(), To);
}

/// destroy's output computed independently: the complete tree's node
/// count, and the nodes built (the tree plus one fresh subtree of height
/// Depth-ReplDepth-1 per iteration).
std::string destroyClosedForm() {
  auto Nodes = [](long Height) { // Complete tree of the given height.
    long Pow = 1;
    for (long I = 0; I <= Height; ++I)
      Pow *= DestroyBranch;
    return (Pow - 1) / (DestroyBranch - 1);
  };
  long Count = Nodes(DestroyDepth);
  long Built = Count + DestroyIters * Nodes(DestroyDepth - DestroyReplDepth - 1);
  return std::to_string(Count) + " " + std::to_string(Built) + "\n";
}

std::string destroySource(uint64_t Seed) {
  std::string S = programs::DestroySource;
  S = replaceOnce(S, "CONST Branch = 3; Depth = 6; ReplDepth = 2; Iters = 60;",
                  "CONST Branch = " + std::to_string(DestroyBranch) +
                      "; Depth = " + std::to_string(DestroyDepth) +
                      "; ReplDepth = " + std::to_string(DestroyReplDepth) +
                      "; Iters = " + std::to_string(DestroyIters) + ";");
  long SeedConst = static_cast<long>(mixSeed(Seed, 100) % 2147483648ULL);
  return replaceOnce(S, "seed := 12345;",
                     "seed := " + std::to_string(SeedConst) + ";");
}

/// Everything one traced pass contributes to the per-layer metrics, summed
/// over the pass's programs.
struct TracedPass {
  double WallMs = 0, GcTotalMs = 0, MutatorMs = 0, OtherMs = 0;
  double Phase[6] = {}; ///< Rendezvous, stack, underive, copy, remset, rederive.
  uint64_t WorkerCopy[obs::MaxGcWorkers] = {};
  uint64_t WorkerTrace[obs::MaxGcWorkers] = {};
  unsigned Workers = 1;
  uint64_t BytesPromoted = 0;
  vm::VMStats Stats;
};

void addStats(vm::VMStats &Into, const vm::VMStats &S) {
  Into.Instrs += S.Instrs;
  Into.Collections += S.Collections;
  Into.MinorCollections += S.MinorCollections;
  Into.FramesTraced += S.FramesTraced;
  Into.BytesCopied += S.BytesCopied;
  Into.ObjectsCopied += S.ObjectsCopied;
  Into.WriteBarriersRun += S.WriteBarriersRun;
  Into.RemSetRecords += S.RemSetRecords;
  Into.RemSetPeak = std::max(Into.RemSetPeak, S.RemSetPeak);
  Into.DerivedAdjusted += S.DerivedAdjusted;
  Into.RootsTraced += S.RootsTraced;
  Into.DecodeCacheHits += S.DecodeCacheHits;
  Into.DecodeCacheMisses += S.DecodeCacheMisses;
  Into.RendezvousSteps += S.RendezvousSteps;
  Into.Requests += S.Requests;
}

double imbalance(const uint64_t *Nanos, unsigned N) {
  double Max = 0, Sum = 0;
  for (unsigned I = 0; I != N; ++I) {
    Max = std::max(Max, static_cast<double>(Nanos[I]));
    Sum += static_cast<double>(Nanos[I]);
  }
  return Sum > 0 ? Max / (Sum / N) : 0.0;
}

/// One program of a runtime workload, with its verification results.
struct RuntimeProgram {
  std::string Source;
  std::string Expected; ///< destroy: the closed form; server: from -O0.
  std::unique_ptr<vm::Program> Prog;
  std::unique_ptr<vm::VM> Machine; ///< Loaded by the last set-up.
  Sizes Sz;
  RunSummary Cross, Sibling;
  RunSummary First; ///< The first timed run; every later one repeats it.
};

int runRuntime(const Options &O) {
  Result R;
  const bool Server = O.Workload == "server-gen";
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  CO.GcTables = true;
  vm::VMOptions VO;
  unsigned Spin = 0;
  gc::CollectorOptions GCO;
  // destroy runs with 2 GC workers; its forked sibling run is serial.
  GCO.Threads = Server ? 1 : 2;
  std::vector<RuntimeProgram> Progs(Server ? ServerPrograms : 1);
  if (Server) {
    CO.WriteBarriers = true;
    CO.ThreadedPolls = true;
    VO.GenGc = true;
    VO.HeapBytes = ServerSemispace;
    Spin = ServerSpinThreads;
  } else {
    VO.HeapBytes = DestroySemispace;
    Progs[0].Expected = destroyClosedForm();
  }

  auto Generate = [&](size_t K) {
    if (!Server)
      return destroySource(O.Seed);
    workload::ServerProgramConfig PC;
    PC.Seed = mixSeed(O.Seed, 200 + K);
    PC.Requests = ServerRequests;
    PC.Spin = true;
    return workload::generateServerProgram(PC);
  };

  // Set-up: generate, compile and load (construct the VM, which runs
  // vm::decodeProgram, and install the collector) every program.  Every
  // pass runs on VMs from its own set-ups, so the set-up samples spread
  // over the whole run like the pass samples do.
  constexpr unsigned SetupsPerPass = 5;
  std::vector<double> SetupS;
  std::vector<std::vector<double>> CompileMs(Progs.size());
  std::vector<CompileSplit> Splits;
  auto SetUp = [&](double Scale) {
    CompileSplit Split;
    double Total = 0;
    for (size_t K = 0; K != Progs.size(); ++K) {
      RuntimeProgram &P = Progs[K];
      P.Machine.reset();
      P.Prog.reset();
      auto T0 = Clock::now();
      P.Source = Generate(K);
      auto TG = Clock::now();
      driver::CompileResult C = driver::compile(P.Source, CO);
      if (!C.Prog) {
        std::fprintf(stderr, "perfbench: %s does not compile:\n%s",
                     O.Workload.c_str(), C.Diags.str().c_str());
        std::exit(2);
      }
      auto T1 = Clock::now();
      P.Machine = std::make_unique<vm::VM>(*C.Prog, VO);
      gc::installPreciseCollector(*P.Machine, GCO);
      auto T2 = Clock::now();
      Total += msBetween(T0, T2);
      CompileMs[K].push_back(msBetween(TG, T2) * Scale);
      if (O.Trace) {
        CompileLayers L = measureCompileLayers(P.Source, *C.Prog, CO);
        auto D0 = Clock::now();
        vm::DecodedProgram DP = vm::decodeProgram(*C.Prog);
        Split.add(L, msBetween(TG, T1), msBetween(D0, Clock::now()));
      }
      P.Prog = std::move(C.Prog);
    }
    SetupS.push_back(Total / 1e3 * Scale);
    Splits.push_back(Split);
  };
  SetUp(1.0);
  Sizes SetSizes;
  double SrcKb = 0;
  for (RuntimeProgram &P : Progs) {
    P.Machine.reset();
    P.Sz = Sizes::of(*P.Prog);
    SetSizes.add(P.Sz);
    SrcKb += static_cast<double>(P.Source.size()) / 1024.0;
  }

  // Verification runs (forked, untimed).
  for (RuntimeProgram &P : Progs) {
    if (Server) {
      driver::CompilerOptions CO0 = CO;
      CO0.OptLevel = 0;
      driver::CompileResult C0 = driver::compile(P.Source, CO0);
      if (R.check(C0.Prog != nullptr, "server program compiles at -O0")) {
        RunSummary Ref = runForked([&] {
          vm::VMOptions RefVO;
          RefVO.Dispatch = vm::DispatchTier::Switch;
          return runProgram(*C0.Prog, RefVO, {}, 0);
        });
        R.check(Ref.Ok, "-O0 two-space switch-tier reference run: " +
                            Ref.Error);
        R.check(Ref.Requests == ServerRequests,
                "reference run completes every request");
        P.Expected = Ref.Out;
      }
    }
    P.Cross = runForked([&] {
      gc::CollectorOptions X = GCO;
      X.CrossCheck = true;
      return runProgram(*P.Prog, VO, X, Spin);
    });
    R.check(P.Cross.Ok, "cross-checked run: " + P.Cross.Error);
    R.check(P.Cross.Out == P.Expected, "cross-checked run output is " +
                                           P.Cross.Out + ", expected " +
                                           P.Expected);
    if (GCO.Threads != 1) {
      // The N>1 determinism contract: the serial collector must agree on
      // the output and every exact count.
      P.Sibling = runForked([&] {
        gc::CollectorOptions X = GCO;
        X.Threads = 1;
        return runProgram(*P.Prog, VO, X, Spin);
      });
      R.check(P.Sibling.Ok, "serial sibling run: " + P.Sibling.Error);
    }
  }

  // Timed passes: every program of the workload runs once per pass.
  std::vector<double> RunS, RawRunS, TracedRunS, PauseUs;
  HostProbe Probe;
  LatencyHistogram ReqLat;
  std::vector<uint64_t> ServiceInstrs;
  std::vector<TracedPass> Traced;
  uint64_t Requests = 0;
  double RequestWallS = 0;
  bool LayerSumOk = true;
  auto RunPass = [&](bool Tracing) {
    double Scale = Tracing ? 1.0 : Probe.scale();
    for (unsigned I = 0; I != SetupsPerPass; ++I)
      SetUp(Scale);
    TracedPass TP;
    double PassS = 0;
    for (RuntimeProgram &P : Progs) {
      R.check(Sizes::of(*P.Prog) == P.Sz, "code/table sizes repeat");
      obs::TracerConfig TC;
      TC.Sites = &P.Prog->SiteTab;
      obs::Tracer Tr(TC);
      vm::VM &M = *P.Machine;
      std::function<void(vm::VM &)> Inner = std::move(M.Collector);
      uint64_t CollectorNs = 0, PostNs = 0;
      Clock::time_point CollEnd;
      // Per collection of this run: the wrapper's nanos (later plus its
      // share of the rendezvous), and the collector's own GcNanos delta.
      std::vector<double> PauseNs;
      std::vector<uint64_t> SelfNs;
      M.Collector = [&](vm::VM &V) {
        uint64_t Self0 = V.Stats.GcNanos;
        auto T0 = Clock::now();
        Inner(V);
        CollEnd = Clock::now();
        uint64_t Ns = nsBetween(T0, CollEnd);
        CollectorNs += Ns;
        PauseNs.push_back(static_cast<double>(Ns));
        SelfNs.push_back(V.Stats.GcNanos - Self0);
      };
      for (unsigned I = 0; I != Spin; ++I) {
        unsigned F = 0;
        while (P.Prog->Funcs[F].Name != "Spin")
          ++F;
        M.spawnThread(F);
      }
      double Phase[6] = {};
      if (Tracing) {
        Tr.enable(nullptr);
        M.Tracer = &Tr;
        M.PostGcHook = [&](vm::VM &) {
          if (const obs::GcEvent *E = Tr.lastCommitted()) {
            const uint64_t Ns[6] = {E->Phases.Rendezvous,
                                    E->Phases.StackTrace,
                                    E->Phases.Underive,
                                    E->Phases.Copy,
                                    E->Phases.RemsetRebuild,
                                    E->Phases.Rederive};
            for (int K = 0; K != 6; ++K)
              Phase[K] += static_cast<double>(Ns[K]) / 1e6;
            TP.Workers = std::max(TP.Workers, E->Workers);
            for (unsigned K = 0; K != obs::MaxGcWorkers; ++K) {
              TP.WorkerCopy[K] += E->WorkerCopyNanos[K];
              TP.WorkerTrace[K] += E->WorkerTraceNanos[K];
            }
            TP.BytesPromoted += E->BytesPromoted;
          }
          PostNs += nsBetween(CollEnd, Clock::now());
        };
      }
      Clock::time_point Last;
      if (Server && !Tracing) {
        bool WantService = ServiceInstrs.size() < ServerRequests;
        M.RequestHook = [&, WantService](vm::VM &,
                                         const vm::VM::ReqSample &S) {
          auto Now = Clock::now();
          ReqLat.add(nsBetween(Last, Now));
          Last = Now;
          if (WantService)
            ServiceInstrs.push_back(S.Instrs);
          // The rendezvous is timed only inside the VM.  Its per-request
          // GC attribution is rendezvous + collector self time over the
          // window, so the window's rendezvous is that minus the
          // collectors' own nanos, shared evenly by the window's
          // collections (almost always one: a minor collection comes
          // every few hundred requests).
          if (S.Collections && S.Collections <= PauseNs.size()) {
            size_t Begin = PauseNs.size() - S.Collections;
            uint64_t Self = 0;
            for (size_t I = Begin; I != SelfNs.size(); ++I)
              Self += SelfNs[I];
            double Share = S.GcNanos > Self
                               ? static_cast<double>(S.GcNanos - Self) /
                                     static_cast<double>(S.Collections)
                               : 0.0;
            for (size_t I = Begin; I != PauseNs.size(); ++I)
              PauseNs[I] += Share;
          }
        };
      }
      auto T0 = Clock::now();
      Last = T0;
      bool Ok = M.run();
      auto T1 = Clock::now();
      double WallS = msBetween(T0, T1) / 1e3;
      PassS += WallS;
      R.check(Ok, "VM::run: " + M.Error);
      R.check(M.Out == P.Expected,
              "output is " + M.Out + ", expected " + P.Expected);
      if (Server)
        R.check(M.Stats.Requests == ServerRequests,
                "every request completes");
      RunSummary C = RunSummary::of(M, Ok);
      if (!P.First.Ok)
        P.First = C;
      R.check(C.sameCounts(P.First), "exact counts repeat across passes");
      if (Tracing) {
        // The mutator is the self time of VM::run: its wall time minus the
        // collections and the event commit + hook after each.
        double WallMs = WallS * 1e3;
        double GcMs = static_cast<double>(CollectorNs) / 1e6 + Phase[0];
        double MutatorMs =
            WallMs - GcMs - static_cast<double>(PostNs) / 1e6;
        double Phases = 0;
        for (int K = 0; K != 6; ++K) {
          Phases += Phase[K];
          TP.Phase[K] += Phase[K];
        }
        double OtherMs = WallMs - MutatorMs - Phases;
        TP.WallMs += WallMs;
        TP.GcTotalMs += GcMs;
        TP.MutatorMs += MutatorMs;
        TP.OtherMs += OtherMs;
        addStats(TP.Stats, M.Stats);
      } else {
        for (double Ns : PauseNs)
          PauseUs.push_back(Ns / 1e3);
        if (Server) {
          Requests += M.Stats.Requests;
          RequestWallS += WallS;
        }
      }
      P.Machine.reset(); // Before the wrapper and tracer it points at.
    }
    if (Tracing) {
      // The layer sum is checked per pass: one of server-gen's runs takes
      // well under a millisecond of collection, which a single preemption
      // of the benchmark thread can exceed.
      double Phases = 0;
      for (double Ms : TP.Phase)
        Phases += Ms;
      LayerSumOk &= std::fabs(TP.OtherMs) <= LayerSumTolerance * TP.WallMs &&
                    Phases >= (1 - LayerSumTolerance) * TP.GcTotalMs;
      Traced.push_back(TP);
      TracedRunS.push_back(PassS);
    } else {
      // destroy-3m-gc2's pass is two threads waiting on each other, which
      // the one-thread kernel does not measure: it stays unadjusted.
      RunS.push_back(GCO.Threads == 1 ? PassS * Scale : PassS);
      RawRunS.push_back(PassS);
    }
  };

  // One untimed warm-up pass lets the allocator and caches settle.
  RunPass(false);
  SetupS.clear();
  for (std::vector<double> &V : CompileMs)
    V.clear();
  Probe.ProbeMs.clear();
  RunS.clear();
  RawRunS.clear();
  PauseUs.clear();
  ReqLat.clear();
  Requests = 0;
  RequestWallS = 0;

  auto Start = Clock::now();
  double Budget = O.Trace ? O.Seconds / 2 : O.Seconds;
  while (RunS.size() < 2 || msBetween(Start, Clock::now()) < Budget * 1e3)
    RunPass(false);
  if (O.Trace) {
    Start = Clock::now();
    while (TracedRunS.size() < 2 ||
           msBetween(Start, Clock::now()) < Budget * 1e3)
      RunPass(true);
  }

  uint64_t Collections = 0;
  for (const RuntimeProgram &P : Progs) {
    R.check(P.Cross.sameCounts(P.First),
            "cross-checked run reproduces the output and exact counts");
    if (GCO.Threads != 1)
      R.check(P.Sibling.sameCounts(P.First),
              "serial and parallel collectors agree on the output and "
              "exact counts");
    Collections += P.First.Collections;
  }

  if (!O.Trace) {
    R.put("setup_s", median(SetupS));
    R.put("run_s", trimmedMean(RunS));
    std::vector<double> PerProgram;
    double SumMs = 0;
    for (const std::vector<double> &V : CompileMs) {
      PerProgram.push_back(trimmedMean(V));
      SumMs += PerProgram.back();
    }
    putCompileEndToEnd(R, PerProgram, SrcKb / (SumMs / 1e3), SetSizes);
    R.put("peak_rss_mb", peakRssMb());
    R.print(EndToEnd);
    std::fprintf(stderr,
                 "perfbench: %s: %zu passes, %" PRIu64 " collections/pass, "
                 "%zu pauses, pause p50 %.1f us, run_s",
                 O.Workload.c_str(), RunS.size(), Collections,
                 PauseUs.size(), quantile(PauseUs, 0.5));
    for (double S : RunS)
      std::fprintf(stderr, " %.3f", S);
    std::fprintf(stderr, "\n");
    return 0;
  }

  R.check(LayerSumOk, "layer sum within tolerance in every traced pass");
  putCompileSplit(R, Splits, SrcKb, SetSizes);
  auto Med = [&](const std::function<double(const TracedPass &)> &F) {
    std::vector<double> V;
    for (const TracedPass &P : Traced)
      V.push_back(F(P));
    return median(V);
  };
  const vm::VMStats &S = Traced.front().Stats;
  auto D = [](uint64_t V) { return static_cast<double>(V); };
  R.put("vm.instrs", D(S.Instrs));
  R.put("vm.mutator_ms", Med([](const TracedPass &P) { return P.MutatorMs; }));
  R.put("vm.ns_per_instr", Med([](const TracedPass &P) {
          return P.MutatorMs * 1e6 / static_cast<double>(P.Stats.Instrs);
        }));
  R.put("vm.write_barriers", D(S.WriteBarriersRun));
  R.put("vm.remset_records", D(S.RemSetRecords));
  R.put("vm.remset_peak", D(S.RemSetPeak));
  R.put("gc.collections", D(S.Collections));
  R.put("gc.minor_collections", D(S.MinorCollections));
  R.put("gc.total_ms", Med([](const TracedPass &P) { return P.GcTotalMs; }));
  const char *PhaseNames[6] = {"gc.rendezvous_ms",     "gc.stack_trace_ms",
                               "gc.underive_ms",       "gc.copy_ms",
                               "gc.remset_rebuild_ms", "gc.rederive_ms"};
  for (int K = 0; K != 6; ++K)
    R.put(PhaseNames[K], Med([K](const TracedPass &P) { return P.Phase[K]; }));
  R.put("gc.rendezvous_steps", D(S.RendezvousSteps));
  R.put("gc.frames_traced", D(S.FramesTraced));
  R.put("gc.roots_traced", D(S.RootsTraced));
  uint64_t Lookups = S.DecodeCacheHits + S.DecodeCacheMisses;
  R.put("gc.decode_hit_ratio",
        Lookups ? D(S.DecodeCacheHits) / D(Lookups) : 0.0);
  R.put("gc.derived_adjusted", D(S.DerivedAdjusted));
  R.put("gc.bytes_copied", D(S.BytesCopied));
  R.put("gc.objects_copied", D(S.ObjectsCopied));
  R.put("gc.copy_mb_per_s", Med([](const TracedPass &P) {
          return P.Phase[3] > 0 ? static_cast<double>(P.Stats.BytesCopied) /
                                      1e6 / (P.Phase[3] / 1e3)
                                : 0.0;
        }));
  R.put("gc.bytes_promoted", D(Traced.front().BytesPromoted));
  R.put("gc.worker_copy_imbalance", Med([](const TracedPass &P) {
          return imbalance(P.WorkerCopy, P.Workers);
        }));
  R.put("gc.worker_trace_imbalance", Med([](const TracedPass &P) {
          return imbalance(P.WorkerTrace, P.Workers);
        }));
  R.put("gc.pause_p50_us", quantile(PauseUs, 0.5));
  R.put("gc.pause_p90_us", quantile(PauseUs, 0.9));
  R.put("gc.pause_p99_us", quantile(PauseUs, 0.99));
  R.put("gc.serial_pause_p50_us",
        GCO.Threads != 1 ? Progs.front().Sibling.PauseP50Us : 0.0);
  R.put("workload.rps", RequestWallS > 0 ? D(Requests) / RequestWallS : 0.0);
  R.put("workload.req_p50_us", ReqLat.quantileUs(0.5));
  R.put("workload.req_p99_us", ReqLat.quantileUs(0.99));
  R.put("workload.service_instrs_p50",
        ServiceInstrs.empty()
            ? 0.0
            : D(workload::percentile(ServiceInstrs, 0.5)));
  R.put("other.ms", Med([](const TracedPass &P) { return P.OtherMs; }));
  R.put("obs.trace_overhead_ratio",
        trimmedMean(TracedRunS) / trimmedMean(RawRunS) - 1.0);
  R.put("host.probe_ms", median(Probe.ProbeMs));
  for (const TracedPass &P : Traced)
    std::fprintf(stderr,
                 "perfbench: traced pass wall %.1f ms, gc %.1f ms, other "
                 "%.2f ms\n",
                 P.WallMs, P.GcTotalMs, P.OtherMs);
  R.print(PerLayer);
  return 0;
}

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

void listMetrics() {
  std::printf("end-to-end metrics (--trace 0):\n");
  for (const MetricDef &M : EndToEnd)
    std::printf("  %-30s %-6s %s\n", M.Name, M.Unit, M.Meaning);
  std::printf("per-layer metrics (--trace 1):\n");
  for (const MetricDef &M : PerLayer)
    std::printf("  %-30s %-6s %s\n", M.Name, M.Unit, M.Meaning);
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload compile-mix|destroy-3m-gc2|"
               "server-gen --seed N --seconds S --trace 0|1 "
               "[--root DIR]\n       perfbench --list\n");
  std::exit(2);
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--list") {
      listMetrics();
      return 0;
    }
    if (I + 1 >= argc)
      usage();
    std::string V = argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      if (!(O.Seconds > 0))
        usage();
    } else if (A == "--trace") {
      if (V != "0" && V != "1")
        usage();
      O.Trace = V == "1";
    } else if (A == "--root") {
      O.Root = V;
    } else {
      usage();
    }
    if (End && *End)
      usage();
  }
  if (O.Workload == "compile-mix")
    return runCompileMix(O);
  if (O.Workload == "destroy-3m-gc2" || O.Workload == "server-gen")
    return runRuntime(O);
  usage();
}
