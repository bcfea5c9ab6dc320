//===- obs/Trace.cpp ------------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "support/Provenance.h"
#include "vm/Heap.h"

#include <algorithm>
#include <cassert>
#include <ostream>

using namespace mgc;
using namespace mgc::obs;

void obs::appendJsonString(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        static const char Hex[] = "0123456789abcdef";
        Out += "\\u00";
        Out += Hex[(C >> 4) & 0xf];
        Out += Hex[C & 0xf];
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

namespace {

void field(std::string &Out, const char *Key, uint64_t V, bool First = false) {
  if (!First)
    Out += ',';
  Out += '"';
  Out += Key;
  Out += "\":";
  Out += std::to_string(V);
}

void fieldStr(std::string &Out, const char *Key, const std::string &V,
              bool First = false) {
  if (!First)
    Out += ',';
  Out += '"';
  Out += Key;
  Out += "\":";
  appendJsonString(Out, V);
}

} // namespace

Tracer::Tracer(TracerConfig C) : Config(std::move(C)) {
  if (Config.Sites)
    Counters.resize(Config.Sites->Sites.size());
  Pending.reserve(Config.PendingCapacity);
  Ring.resize(std::max<size_t>(Config.RingCapacity, 1));
  PausesMinor.reserve(1024);
  PausesFull.reserve(1024);
  ReqInstrs.reserve(std::min<size_t>(Config.RequestCapacity, 1u << 12));
  if (Config.Leak.Enabled && !Counters.empty()) {
    // The least-squares denominator needs W >= 2; everything below is
    // preallocated so sampleCollection never allocates.
    if (Config.Leak.Window < 2)
      Config.Leak.Window = 2;
    LeakRing.assign(Counters.size() * size_t(Config.Leak.Window), 0);
    LeakScratch.assign(Counters.size(), 0);
    LeakWorkerAcc.assign(Counters.size() * size_t(MaxGcWorkers), 0);
    LeakFirst.assign(Counters.size(), 0);
  }
}

void Tracer::recordRequest(uint64_t Seq, uint64_t Instrs, uint64_t GcNanos,
                           uint64_t Collections) {
  if (!Enabled)
    return;
  ++ReqCount;
  ReqGcNanosTotal += GcNanos;
  ReqCollectionsTotal += Collections;
  if (ReqInstrs.size() < Config.RequestCapacity)
    ReqInstrs.push_back(Instrs);
  else
    ++DroppedRequests;
  if (Stream) {
    std::string L = "{\"type\":\"req\"";
    field(L, "seq", Seq);
    field(L, "instrs", Instrs);
    field(L, "gc_ns", GcNanos);
    field(L, "collections", Collections);
    L += "}\n";
    *Stream << L;
  }
}

void Tracer::enable(std::ostream *S) {
  Enabled = true;
  Stream = S;
  if (Stream)
    writeHeader();
}

void Tracer::writeHeader() {
  std::string L = "{\"type\":\"meta\"";
  fieldStr(L, "program", Config.ProgramName);
  fieldStr(L, "tool_version", support::ToolVersion);
  fieldStr(L, "build_flags", support::buildFlags());
  field(L, "seed", Config.Seed);
  if (!Config.Dispatch.empty())
    fieldStr(L, "dispatch", Config.Dispatch);
  field(L, "gen_gc", Config.GenGc ? 1 : 0);
  field(L, "sites", Counters.size());
  field(L, "site_table_bytes", Config.SiteTableBytes);
  L += "}\n";
  *Stream << L;
  if (!Config.Sites)
    return;
  for (size_t I = 0; I != Config.Sites->Sites.size(); ++I) {
    const gcmaps::AllocSite &S = Config.Sites->Sites[I];
    std::string Line = "{\"type\":\"site\"";
    field(Line, "id", I);
    fieldStr(Line, "func",
             S.Func < Config.FuncNames.size() ? Config.FuncNames[S.Func]
                                              : std::to_string(S.Func));
    field(Line, "line", S.Line);
    field(Line, "col", S.Col);
    field(Line, "desc", S.Desc);
    Line += "}\n";
    *Stream << Line;
  }
}

GcEvent &Tracer::beginEvent(uint64_t Seq, bool Minor, uint32_t TriggerSite) {
  assert(!CurActive && "nested collection events");
  Cur = GcEvent();
  Cur.Seq = Seq;
  Cur.Minor = Minor;
  Cur.TriggerSite = TriggerSite;
  CurActive = true;
  return Cur;
}

namespace {

/// Bit 0 of the (still-readable) from-space header is the forwarding tag:
/// set iff the object was evacuated, i.e. survived — and then the rest of
/// the word is its new address.  Returns 0 for objects that died.
uint64_t forwardedTo(uint64_t Addr) {
  uint64_t Hd = *reinterpret_cast<const uint64_t *>(Addr);
  return (Hd & 1) ? (Hd & ~uint64_t(1)) : 0;
}

} // namespace

void Tracer::sweepSurvivors(const vm::Heap &H, bool Minor) {
  (void)H;
  (void)Minor;
  if (Enabled) {
    for (const PendingAlloc &P : Pending) {
      if (forwardedTo(P.Addr) != 0) {
        if (P.Site < Counters.size()) {
          ++Counters[P.Site].Survived;
          Counters[P.Site].SurvivedBytes += P.Bytes;
        }
      }
    }
  }
  // Every pending allocation has now experienced its first collection.
  Pending.clear();
}

namespace {

/// Evaluates one site's sliding window.  \p SiteRing points at the site's
/// W-slot circular span; \p Samples orders it (slot Samples % W is the
/// oldest).  Flagged iff every step is non-decreasing, the window shows
/// net growth, and the newest sample clears \p MinBytes.  \p Slope gets
/// the integer least-squares fit in bytes per full collection.
bool leakEval(const uint64_t *SiteRing, uint32_t W, uint64_t Samples,
              uint64_t MinBytes, int64_t &Slope, uint64_t &Newest) {
  Slope = 0;
  Newest = 0;
  if (Samples < W)
    return false;
  uint64_t Base = Samples % W;
  bool NonDecreasing = true;
  uint64_t Prev = 0, First = 0, Last = 0;
  int64_t SumY = 0, SumIY = 0;
  for (uint32_t J = 0; J != W; ++J) {
    uint64_t Y = SiteRing[(Base + J) % W];
    if (J == 0)
      First = Y;
    else if (Y < Prev)
      NonDecreasing = false;
    Prev = Y;
    Last = Y;
    SumY += static_cast<int64_t>(Y);
    SumIY += static_cast<int64_t>(J) * static_cast<int64_t>(Y);
  }
  // num/den is the least-squares slope over sample indices 0..W-1; the
  // denominator is a positive constant of W alone, so integer division
  // keeps the fit deterministic.
  int64_t SumI = int64_t(W) * (W - 1) / 2;
  int64_t SumI2 = int64_t(W) * (W - 1) * (2 * int64_t(W) - 1) / 6;
  int64_t Den = int64_t(W) * SumI2 - SumI * SumI;
  int64_t Num = int64_t(W) * SumIY - SumI * SumY;
  Slope = Num / Den;
  Newest = Last;
  return NonDecreasing && Last > First && Last >= MinBytes && Num > 0;
}

} // namespace

void Tracer::sampleCollection(uint64_t Collections, bool Minor) {
  if (!Enabled || LeakScratch.empty())
    return;
  ++LeakScans;
  // Minor collections never reclaim old space, so per-site live bytes ramp
  // monotonically between fulls; sampling there would flag every site.
  if (Minor)
    return;
  // Merge the per-worker in-copy accumulators into one sample: a full
  // collection copies every live object exactly once, so the slab sums are
  // the post-collection per-site live bytes.  Integer sums are order- and
  // partition-independent, so the merged sample (hence every flag) is
  // byte-identical across --gc-threads.  The slabs are consumed here so
  // the next full collection starts from zero.
  size_t NSites = LeakScratch.size();
  for (size_t S = 0; S != NSites; ++S) {
    uint64_t Sum = 0;
    for (unsigned Wk = 0; Wk != MaxGcWorkers; ++Wk) {
      uint64_t &Slot = LeakWorkerAcc[size_t(Wk) * NSites + S];
      Sum += Slot;
      Slot = 0;
    }
    LeakScratch[S] = Sum;
  }
  uint32_t W = Config.Leak.Window;
  size_t Slot = static_cast<size_t>(LeakSampleCount % W);
  for (size_t S = 0; S != NSites; ++S)
    LeakRing[S * W + Slot] = LeakScratch[S];
  ++LeakSampleCount;
  if (LeakSampleCount < W)
    return;
  for (size_t S = 0; S != NSites; ++S) {
    if (LeakFirst[S])
      continue; // the first-flag time is sticky
    int64_t Slope;
    uint64_t Newest;
    if (leakEval(&LeakRing[S * W], W, LeakSampleCount, Config.Leak.MinBytes,
                 Slope, Newest))
      LeakFirst[S] = Collections ? Collections : 1;
  }
}

std::vector<Tracer::LeakFlag> Tracer::leakFlags() const {
  std::vector<LeakFlag> Out;
  uint32_t W = Config.Leak.Window;
  for (size_t S = 0; S != LeakScratch.size(); ++S) {
    int64_t Slope;
    uint64_t Newest;
    if (!leakEval(&LeakRing[S * W], W, LeakSampleCount, Config.Leak.MinBytes,
                  Slope, Newest))
      continue;
    LeakFlag F;
    F.Site = static_cast<uint32_t>(S);
    F.SlopeBytes = Slope;
    F.LiveBytes = Newest;
    F.FirstFlagged = LeakFirst[S];
    Out.push_back(F);
  }
  std::stable_sort(Out.begin(), Out.end(),
                   [](const LeakFlag &A, const LeakFlag &B) {
                     if (A.SlopeBytes != B.SlopeBytes)
                       return A.SlopeBytes > B.SlopeBytes;
                     return A.Site < B.Site;
                   });
  return Out;
}

std::string Tracer::leakJsonFields() const {
  std::string Out;
  field(Out, "leak_window", Config.Leak.Window, /*First=*/true);
  field(Out, "leak_min_bytes", Config.Leak.MinBytes);
  Out += ",\"leak_flags\":[";
  std::vector<LeakFlag> Flags = leakFlags();
  for (size_t I = 0; I != Flags.size(); ++I) {
    if (I)
      Out += ',';
    Out += "{\"site\":";
    Out += std::to_string(Flags[I].Site);
    Out += ",\"slope_bytes\":";
    Out += std::to_string(Flags[I].SlopeBytes);
    field(Out, "live_bytes", Flags[I].LiveBytes);
    field(Out, "first_flagged", Flags[I].FirstFlagged);
    Out += '}';
  }
  Out += ']';
  return Out;
}

std::vector<LiveAgg> Tracer::liveBySite(const vm::Heap &H,
                                        LiveAgg &NoSiteAgg) const {
  std::vector<LiveAgg> Per(Counters.size());
  NoSiteAgg = LiveAgg();
  H.forEachObject([&](uint64_t P) {
    uint64_t Hd = *reinterpret_cast<const uint64_t *>(P);
    uint32_t Site = vm::Heap::headerSite(Hd);
    uint64_t Bytes = H.objectWords(P) * sizeof(uint64_t);
    LiveAgg &A = Site < Per.size() ? Per[Site] : NoSiteAgg;
    ++A.Objects;
    A.Bytes += Bytes;
  });
  return Per;
}

std::vector<LiveAgg> Tracer::ageHistogram(const vm::Heap &H) const {
  std::vector<LiveAgg> Hist;
  H.forEachObject([&](uint64_t P) {
    uint64_t Hd = *reinterpret_cast<const uint64_t *>(P);
    unsigned Age = vm::Heap::headerAge(Hd);
    if (Age >= Hist.size())
      Hist.resize(Age + 1);
    ++Hist[Age].Objects;
    Hist[Age].Bytes += H.objectWords(P) * sizeof(uint64_t);
  });
  return Hist;
}

std::string Tracer::liveJsonFields(const vm::Heap &H) const {
  LiveAgg NoSiteAgg;
  std::vector<LiveAgg> Per = liveBySite(H, NoSiteAgg);
  auto Object = [&](std::string &Out, const char *Key, bool Bytes) {
    Out += '"';
    Out += Key;
    Out += "\":{";
    bool First = true;
    for (size_t I = 0; I != Per.size(); ++I) {
      if (Per[I].Objects == 0)
        continue;
      if (!First)
        Out += ',';
      First = false;
      Out += '"';
      Out += std::to_string(I);
      Out += "\":";
      Out += std::to_string(Bytes ? Per[I].Bytes : Per[I].Objects);
    }
    if (NoSiteAgg.Objects != 0) {
      if (!First)
        Out += ',';
      Out += "\"nosite\":";
      Out += std::to_string(Bytes ? NoSiteAgg.Bytes : NoSiteAgg.Objects);
    }
    Out += '}';
  };
  std::string Out;
  Object(Out, "live_objects_by_site", /*Bytes=*/false);
  Out += ',';
  Object(Out, "live_bytes_by_site", /*Bytes=*/true);
  Out += ",\"live_age_hist\":{";
  std::vector<LiveAgg> Hist = ageHistogram(H);
  bool First = true;
  for (size_t Age = 0; Age != Hist.size(); ++Age) {
    if (Hist[Age].Objects == 0)
      continue;
    if (!First)
      Out += ',';
    First = false;
    Out += '"';
    Out += std::to_string(Age);
    Out += "\":";
    Out += std::to_string(Hist[Age].Bytes);
  }
  Out += '}';
  return Out;
}

void Tracer::commitEvent() {
  assert(CurActive && "commit without a begun event");
  CurActive = false;
  Ring[static_cast<size_t>(TotalEvents % Ring.size())] = Cur;
  ++TotalEvents;
  (Cur.Minor ? PausesMinor : PausesFull).push_back(Cur.TotalNanos);
  if (Stream)
    writeEvent(Cur);
}

void Tracer::writeEvent(const GcEvent &Ev) {
  std::string L = "{\"type\":\"gc\"";
  field(L, "seq", Ev.Seq);
  fieldStr(L, "kind", Ev.Minor ? "minor" : "full");
  L += ",\"trigger_site\":";
  L += Ev.TriggerSite == NoSite
           ? std::string("-1")
           : std::to_string(Ev.TriggerSite);
  field(L, "rendezvous_ns", Ev.Phases.Rendezvous);
  field(L, "stack_trace_ns", Ev.Phases.StackTrace);
  field(L, "underive_ns", Ev.Phases.Underive);
  field(L, "copy_ns", Ev.Phases.Copy);
  field(L, "remset_ns", Ev.Phases.RemsetRebuild);
  field(L, "rederive_ns", Ev.Phases.Rederive);
  field(L, "total_ns", Ev.TotalNanos);
  field(L, "heap_before", Ev.HeapBeforeBytes);
  field(L, "heap_after", Ev.HeapAfterBytes);
  field(L, "frames", Ev.FramesTraced);
  field(L, "roots", Ev.RootsTraced);
  field(L, "objects_copied", Ev.ObjectsCopied);
  field(L, "bytes_copied", Ev.BytesCopied);
  field(L, "objects_promoted", Ev.ObjectsPromoted);
  field(L, "bytes_promoted", Ev.BytesPromoted);
  field(L, "derived_adjusted", Ev.DerivedAdjusted);
  field(L, "rendezvous_steps", Ev.RendezvousSteps);
  field(L, "cache_hits", Ev.CacheHits);
  field(L, "cache_misses", Ev.CacheMisses);
  field(L, "workers", Ev.Workers);
  field(L, "copy_waste_bytes", Ev.CopyWasteBytes);
  // Per-worker phase spans (the parallel collector's load-balance view).
  // Unknown int keys are harmless to the strict JSONL re-parser — they
  // land in the record's generic int map.
  for (uint32_t W = 0; W != Ev.Workers && W != MaxGcWorkers; ++W) {
    std::string Key = "w" + std::to_string(W);
    field(L, (Key + "_trace_ns").c_str(), Ev.WorkerTraceNanos[W]);
    field(L, (Key + "_copy_ns").c_str(), Ev.WorkerCopyNanos[W]);
    field(L, (Key + "_refills").c_str(), Ev.WorkerRefills[W]);
  }
  L += "}\n";
  *Stream << L;
}

std::vector<GcEvent> Tracer::retainedEvents() const {
  std::vector<GcEvent> Out;
  uint64_t N = std::min<uint64_t>(TotalEvents, Ring.size());
  Out.reserve(static_cast<size_t>(N));
  for (uint64_t I = TotalEvents - N; I != TotalEvents; ++I)
    Out.push_back(Ring[static_cast<size_t>(I % Ring.size())]);
  return Out;
}

static uint64_t percentileOf(std::vector<uint64_t> Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t Idx = static_cast<size_t>(P * static_cast<double>(Sorted.size() - 1) +
                                   0.5);
  return Sorted[std::min(Idx, Sorted.size() - 1)];
}

Tracer::Percentiles Tracer::pausePercentiles(int Kind) const {
  std::vector<uint64_t> V;
  if (Kind == 0 || Kind == 1)
    V.insert(V.end(), PausesMinor.begin(), PausesMinor.end());
  if (Kind == 0 || Kind == 2)
    V.insert(V.end(), PausesFull.begin(), PausesFull.end());
  std::sort(V.begin(), V.end());
  Percentiles R;
  R.Count = V.size();
  if (!V.empty()) {
    R.P50 = percentileOf(V, 0.50);
    R.P95 = percentileOf(V, 0.95);
    R.P99 = percentileOf(V, 0.99);
    R.Max = V.back();
  }
  return R;
}

Tracer::Percentiles Tracer::requestPercentiles() const {
  std::vector<uint64_t> V = ReqInstrs;
  std::sort(V.begin(), V.end());
  Percentiles R;
  R.Count = V.size();
  if (!V.empty()) {
    R.P50 = percentileOf(V, 0.50);
    R.P95 = percentileOf(V, 0.95);
    R.P99 = percentileOf(V, 0.99);
    R.Max = V.back();
  }
  return R;
}

std::string Tracer::summaryJsonFields() const {
  std::string Out;
  field(Out, "events", TotalEvents, /*First=*/true);
  field(Out, "events_retained",
        std::min<uint64_t>(TotalEvents, Ring.size()));
  field(Out, "events_dropped_from_ring", eventsDropped());
  field(Out, "pending_dropped", DroppedPending);
  field(Out, "unattributed_allocs", UnattributedCount);
  field(Out, "unattributed_bytes", UnattributedBytes);
  Percentiles All = pausePercentiles(0);
  field(Out, "pause_p50_ns", All.P50);
  field(Out, "pause_p95_ns", All.P95);
  field(Out, "pause_max_ns", All.Max);
  Percentiles Minor = pausePercentiles(1);
  field(Out, "minor_pause_p50_ns", Minor.P50);
  field(Out, "minor_pause_p95_ns", Minor.P95);
  field(Out, "minor_pause_max_ns", Minor.Max);
  Percentiles Full = pausePercentiles(2);
  field(Out, "full_pause_p50_ns", Full.P50);
  field(Out, "full_pause_p95_ns", Full.P95);
  field(Out, "full_pause_max_ns", Full.Max);
  if (ReqCount) {
    // Server workloads only: per-request service demand (virtual time, in
    // instructions) and the GC work attributed to completed requests.
    field(Out, "requests", ReqCount);
    field(Out, "requests_dropped", DroppedRequests);
    field(Out, "req_gc_ns", ReqGcNanosTotal);
    field(Out, "req_collections", ReqCollectionsTotal);
    Percentiles Req = requestPercentiles();
    field(Out, "req_instr_p50", Req.P50);
    field(Out, "req_instr_p99", Req.P99);
    field(Out, "req_instr_max", Req.Max);
  }
  if (!LeakScratch.empty()) {
    // Leak-detector aggregates (flat; the per-site flags are their own
    // "leak" records / the nested leakJsonFields()).
    field(Out, "leak_scans", LeakScans);
    field(Out, "leak_samples", LeakSampleCount);
    field(Out, "leak_sites_flagged", leakFlags().size());
  }
  return Out;
}

void Tracer::finish(bool Ok, const std::string &Error, const vm::Heap *H) {
  if (Finished || !Stream)
    return;
  Finished = true;
  for (size_t I = 0; I != Counters.size(); ++I) {
    const SiteCounters &C = Counters[I];
    if (C.Count == 0)
      continue;
    std::string L = "{\"type\":\"site_stats\"";
    field(L, "id", I);
    field(L, "count", C.Count);
    field(L, "bytes", C.Bytes);
    field(L, "survived", C.Survived);
    field(L, "survived_bytes", C.SurvivedBytes);
    L += "}\n";
    *Stream << L;
  }
  if (Config.Attribution && H) {
    // End-of-run view of the header-borne attribution: what is still live
    // (per site, and per collection-count age), from a final heap walk.
    // Flat records so the strict JSONL re-parser in obs/Report.h can
    // consume them.
    LiveAgg NoSiteAgg;
    std::vector<LiveAgg> Per = liveBySite(*H, NoSiteAgg);
    auto WriteSiteLive = [&](int64_t Id, const LiveAgg &A) {
      if (A.Objects == 0)
        return;
      std::string L = "{\"type\":\"site_live\",\"id\":";
      L += std::to_string(Id);
      field(L, "objects", A.Objects);
      field(L, "bytes", A.Bytes);
      L += "}\n";
      *Stream << L;
    };
    for (size_t I = 0; I != Per.size(); ++I)
      WriteSiteLive(static_cast<int64_t>(I), Per[I]);
    WriteSiteLive(-1, NoSiteAgg);
    std::vector<LiveAgg> Hist = ageHistogram(*H);
    for (size_t Age = 0; Age != Hist.size(); ++Age) {
      if (Hist[Age].Objects == 0)
        continue;
      std::string L = "{\"type\":\"age_hist\"";
      field(L, "age", Age);
      field(L, "objects", Hist[Age].Objects);
      field(L, "bytes", Hist[Age].Bytes);
      L += "}\n";
      *Stream << L;
    }
  }
  if (!LeakScratch.empty()) {
    // One flat record per currently flagged site, in (slope desc, site
    // asc) order, so mgc-report can render the leaks section without any
    // snapshot file.
    for (const LeakFlag &F : leakFlags()) {
      std::string L = "{\"type\":\"leak\"";
      field(L, "site", F.Site);
      L += ",\"slope_bytes\":";
      L += std::to_string(F.SlopeBytes);
      field(L, "live_bytes", F.LiveBytes);
      field(L, "first_flagged", F.FirstFlagged);
      field(L, "window", Config.Leak.Window);
      L += "}\n";
      *Stream << L;
    }
  }
  std::string L = "{\"type\":\"run\"";
  fieldStr(L, "exit", Ok ? "ok" : "error");
  if (!Ok)
    fieldStr(L, "error", Error);
  L += ',';
  L += summaryJsonFields();
  L += "}\n";
  *Stream << L;
  Stream->flush();
}
