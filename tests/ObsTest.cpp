//===- tests/ObsTest.cpp - Observability subsystem tests -------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the gc observability subsystem (src/obs + the site tables of
/// src/gcmaps/SiteTable.h): site-table codec round-trips, exact
/// allocation-site attribution against a directed ground truth at -O0 and
/// -O2 in both collector modes, VMStats/trace invariants across the §6
/// benchmark programs and the frozen corpus, JSONL round-tripping through
/// obs::readTrace with zero parse errors, and the error-path flush (a
/// failed run must still produce a complete, parseable trace).
///
/// Every suite name starts with "Obs" — tests/CMakeLists.txt gives them
/// the `obs` ctest label.
///
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "Programs.h"
#include "TestUtil.h"

#include "obs/Report.h"
#include "obs/Trace.h"

#include <sstream>

using namespace mgc;
using namespace mgc::test;

namespace {

//===----------------------------------------------------------------------===//
// Site-table codec
//===----------------------------------------------------------------------===//

TEST(ObsSiteTable, EncodeDecodeRoundTrip) {
  gcmaps::SiteTable T;
  T.Sites.push_back({/*Func=*/0, /*Line=*/3, /*Col=*/7, /*Desc=*/1});
  T.Sites.push_back({/*Func=*/0, /*Line=*/12, /*Col=*/3, /*Desc=*/2});
  T.Sites.push_back({/*Func=*/2, /*Line=*/200, /*Col=*/40, /*Desc=*/0});
  T.Sites.push_back({/*Func=*/9, /*Line=*/100000, /*Col=*/1, /*Desc=*/300});
  T.Attrs.push_back({/*PC=*/4, /*Site=*/0});
  T.Attrs.push_back({/*PC=*/90, /*Site=*/1});
  T.Attrs.push_back({/*PC=*/91, /*Site=*/3});
  T.Attrs.push_back({/*PC=*/5000, /*Site=*/2});

  std::vector<uint8_t> Blob = gcmaps::encodeSiteTable(T);
  gcmaps::SiteTable D = gcmaps::decodeSiteTable(Blob);

  ASSERT_EQ(D.Sites.size(), T.Sites.size());
  for (size_t I = 0; I != T.Sites.size(); ++I)
    EXPECT_TRUE(D.Sites[I] == T.Sites[I]) << "site " << I;
  ASSERT_EQ(D.Attrs.size(), T.Attrs.size());
  for (size_t I = 0; I != T.Attrs.size(); ++I) {
    EXPECT_EQ(D.Attrs[I].PC, T.Attrs[I].PC) << "attr " << I;
    EXPECT_EQ(D.Attrs[I].Site, T.Attrs[I].Site) << "attr " << I;
  }
}

TEST(ObsSiteTable, EmptyRoundTrip) {
  gcmaps::SiteTable D = gcmaps::decodeSiteTable(gcmaps::encodeSiteTable({}));
  EXPECT_TRUE(D.Sites.empty());
  EXPECT_TRUE(D.Attrs.empty());
}

//===----------------------------------------------------------------------===//
// Traced-run helper
//===----------------------------------------------------------------------===//

struct TracedRun {
  bool Ok = false;
  std::string Out;
  std::string Error;
  vm::VMStats Stats;
  gcmaps::SiteTable SiteTab;
  std::vector<obs::SiteCounters> Counters;
  uint64_t Unattributed = 0;
  uint64_t Events = 0;
  uint64_t MinorEvents = 0;
  uint64_t FullEvents = 0;
  std::string Trace; ///< The full JSONL text.
};

/// Compiles \p Source and runs it with an enabled tracer streaming into a
/// string; fails the current test on compile errors.
TracedRun runTraced(const std::string &Source, int Opt, bool Gen,
                    size_t HeapBytes, size_t NurseryBytes = 4u << 10,
                    bool Stress = false) {
  TracedRun R;
  driver::CompilerOptions CO;
  CO.OptLevel = Opt;
  CO.WriteBarriers = Gen;
  auto C = driver::compile(Source, CO);
  if (!C.Prog) {
    ADD_FAILURE() << "compilation failed:\n" << C.Diags.str();
    return R;
  }
  R.SiteTab = C.Prog->SiteTab;

  vm::VMOptions VO;
  VO.HeapBytes = HeapBytes;
  VO.GenGc = Gen;
  VO.NurseryBytes = Gen ? NurseryBytes : 0;
  VO.GcStress = Stress;
  vm::VM M(*C.Prog, VO);
  gc::CollectorOptions GCO;
  GCO.CrossCheck = true;
  gc::installPreciseCollector(M, GCO);

  obs::TracerConfig TC;
  TC.Sites = &C.Prog->SiteTab;
  for (const auto &F : C.Prog->Funcs)
    TC.FuncNames.push_back(F.Name);
  TC.ProgramName = "test";
  TC.GenGc = Gen;
  TC.SiteTableBytes = C.Prog->Sizes.SiteTableBytes;
  obs::Tracer Tracer(std::move(TC));
  std::ostringstream OS;
  Tracer.enable(&OS);
  M.Tracer = &Tracer;

  R.Ok = M.run();
  Tracer.finish(R.Ok, M.Error);
  R.Out = M.Out;
  R.Error = M.Error;
  R.Stats = M.Stats;
  R.Counters = Tracer.siteCounters();
  R.Unattributed = Tracer.unattributedCount();
  R.Events = Tracer.eventCount();
  R.MinorEvents = Tracer.pausePercentiles(/*Kind=*/1).Count;
  R.FullEvents = Tracer.pausePercentiles(/*Kind=*/2).Count;
  R.Trace = OS.str();
  return R;
}

/// 1-based source line of the first occurrence of \p Needle.
uint32_t lineOf(const std::string &Source, const std::string &Needle) {
  size_t Pos = Source.find(Needle);
  EXPECT_NE(Pos, std::string::npos) << Needle;
  uint32_t Line = 1;
  for (size_t I = 0; I < Pos; ++I)
    if (Source[I] == '\n')
      ++Line;
  return Line;
}

//===----------------------------------------------------------------------===//
// Exact allocation-site attribution
//===----------------------------------------------------------------------===//

/// Three allocation sites with statically known execution counts and no
/// other allocation anywhere (no texts, no implicit temporaries).
const char *SitesSource = R"(MODULE Sites;
TYPE
  Pair = REF RECORD a, b: INTEGER END;
  Arr = REF ARRAY OF INTEGER;
VAR p: Pair; v: Arr; keep: Arr; sum: INTEGER;
BEGIN
  keep := NEW(Arr, 8);
  FOR i := 1 TO 200 DO
    p := NEW(Pair);
    p.a := i; p.b := i + i;
    keep[0] := keep[0] + p.a
  END;
  FOR i := 1 TO 60 DO
    v := NEW(Arr, 4);
    v[0] := i;
    sum := sum + v[0]
  END;
  PutInt(keep[0]); PutChar(32); PutInt(sum); PutLn();
END Sites.
)";

TEST(ObsAttribution, ThreeSitesExactCounts) {
  const uint32_t KeepLine = lineOf(SitesSource, "keep := NEW(Arr, 8)");
  const uint32_t PairLine = lineOf(SitesSource, "p := NEW(Pair)");
  const uint32_t ArrLine = lineOf(SitesSource, "v := NEW(Arr, 4)");

  for (int Opt : {0, 2})
    for (bool Gen : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "O" << Opt << (Gen ? " gen" : " two-space"));
      // Heap small enough that the Pair loop collects several times: the
      // attribution must survive object motion.
      TracedRun R = runTraced(SitesSource, Opt, Gen, /*HeapBytes=*/4u << 10,
                              /*NurseryBytes=*/1u << 10);
      ASSERT_TRUE(R.Ok) << R.Error;
      EXPECT_EQ(R.Out, "20100 1830\n");
      EXPECT_GT(R.Stats.Collections, 0u);

      // Exactly the three NEW expressions, dedup'd, in deterministic
      // (sorted) order — identical ids at -O0 and -O2.
      ASSERT_EQ(R.SiteTab.Sites.size(), 3u);
      ASSERT_EQ(R.Counters.size(), 3u);
      EXPECT_EQ(R.Unattributed, 0u);

      uint64_t ByLine[3] = {0, 0, 0}; // keep, pair, arr
      for (size_t I = 0; I != R.SiteTab.Sites.size(); ++I) {
        uint32_t Line = R.SiteTab.Sites[I].Line;
        uint64_t Count = R.Counters[I].Count;
        if (Line == KeepLine)
          ByLine[0] += Count;
        else if (Line == PairLine)
          ByLine[1] += Count;
        else if (Line == ArrLine)
          ByLine[2] += Count;
        else
          ADD_FAILURE() << "unexpected site line " << Line;
      }
      EXPECT_EQ(ByLine[0], 1u);
      EXPECT_EQ(ByLine[1], 200u);
      EXPECT_EQ(ByLine[2], 60u);
      for (const obs::SiteCounters &C : R.Counters)
        EXPECT_GT(C.Bytes, 0u);
    }
}

//===----------------------------------------------------------------------===//
// VMStats / trace invariants
//===----------------------------------------------------------------------===//

void checkInvariants(const TracedRun &R, bool Gen) {
  // Committed trace events correspond 1:1 with collections, split by kind.
  EXPECT_EQ(R.Events, R.Stats.Collections);
  EXPECT_EQ(R.MinorEvents, R.Stats.MinorCollections);
  EXPECT_EQ(R.FullEvents, R.Stats.Collections - R.Stats.MinorCollections);
  EXPECT_LE(R.Stats.MinorCollections, R.Stats.Collections);
  if (!Gen) {
    EXPECT_EQ(R.Stats.MinorCollections, 0u);
    EXPECT_EQ(R.Stats.WriteBarriersRun, 0u);
  }
  // A remembered-set record requires a barrier execution that hit.
  EXPECT_GE(R.Stats.WriteBarriersRun, R.Stats.RemSetRecords);
  // Under the map index (the default), every traced frame decodes through
  // the point cache: hit or miss, nothing else touches the counters.
  EXPECT_EQ(R.Stats.DecodeCacheHits + R.Stats.DecodeCacheMisses,
            R.Stats.FramesTraced);
}

/// Parses \p R's JSONL trace, expecting zero errors, and checks that the
/// stream agrees with the in-memory counters.
void checkTraceRoundTrip(const TracedRun &R) {
  std::istringstream In(R.Trace);
  obs::TraceReport Report;
  std::string Err;
  ASSERT_TRUE(obs::readTrace(In, Report, Err)) << Err;
  EXPECT_EQ(Report.Events.size(), R.Stats.Collections);
  ASSERT_TRUE(Report.HasRun);
  EXPECT_EQ(Report.RunOk, R.Ok);
  uint64_t Minor = 0, Full = 0;
  for (const obs::GcEvent &Ev : Report.Events)
    (Ev.Minor ? Minor : Full) += 1;
  EXPECT_EQ(Minor, R.Stats.MinorCollections);
  EXPECT_EQ(Full, R.Stats.Collections - R.Stats.MinorCollections);
}

struct NamedSource {
  std::string Name;
  std::string Source;
  size_t HeapBytes;
};

std::vector<NamedSource> invariantPrograms() {
  std::vector<NamedSource> Out;
  // The §6 benchmark programs, heaps sized to force collections where the
  // default live sets allow it.
  for (const auto &P : programs::All) {
    size_t Heap = 64u << 10;
    if (std::string(P.Name) == "destroy")
      Heap = 48u << 10;
    Out.push_back({P.Name, P.Source, Heap});
  }
  // The frozen fuzz corpus (single-threaded runs; Spin programs just never
  // start the extra thread).
  for (const CorpusProgram &P : corpus())
    Out.push_back({P.Name, P.Source, 64u << 10});
  return Out;
}

TEST(ObsInvariants, BenchAndCorpusBothModes) {
  for (const NamedSource &P : invariantPrograms())
    for (bool Gen : {false, true}) {
      SCOPED_TRACE(P.Name + (Gen ? " gen" : " two-space"));
      TracedRun R = runTraced(P.Source, /*Opt=*/2, Gen, P.HeapBytes);
      ASSERT_TRUE(R.Ok) << R.Error;
      checkInvariants(R, Gen);
      checkTraceRoundTrip(R);
    }
}

TEST(ObsInvariants, StressedDestroyBothModes) {
  // GcStress collects before every allocation: the densest event stream
  // the tracer ever sees, and far more events than the ring retains.
  for (bool Gen : {false, true}) {
    SCOPED_TRACE(Gen ? "gen" : "two-space");
    TracedRun R = runTraced(programs::DestroySource, /*Opt=*/2, Gen,
                            /*HeapBytes=*/64u << 10, /*NurseryBytes=*/4u << 10,
                            /*Stress=*/true);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_GT(R.Stats.Collections, 1000u);
    checkInvariants(R, Gen);
    checkTraceRoundTrip(R);
  }
}

//===----------------------------------------------------------------------===//
// Ring wrap-around: the drop counter must be loud everywhere
//===----------------------------------------------------------------------===//

TEST(ObsRingWrap, DropCounterSurfacedInSummaryAndReport) {
  // A tiny ring under a collection-heavy run: most events are dropped,
  // and every surface (summary JSON fields, run record, mgc-report text
  // and JSON) must carry the exact drop count so truncated pause/volume
  // sections are never mistaken for complete ones.
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  CO.WriteBarriers = true;
  auto C = driver::compile(programs::DestroySource, CO);
  ASSERT_TRUE(C.Prog != nullptr) << C.Diags.str();

  constexpr size_t Cap = 8;
  vm::VMOptions VO;
  VO.HeapBytes = 48u << 10;
  VO.GenGc = true;
  VO.NurseryBytes = 4u << 10;
  vm::VM M(*C.Prog, VO);
  gc::installPreciseCollector(M, {});

  obs::TracerConfig TC;
  TC.Sites = &C.Prog->SiteTab;
  for (const auto &F : C.Prog->Funcs)
    TC.FuncNames.push_back(F.Name);
  TC.ProgramName = "ringwrap";
  TC.GenGc = true;
  TC.RingCapacity = Cap;
  obs::Tracer Tracer(std::move(TC));
  std::ostringstream OS;
  Tracer.enable(&OS);
  M.Tracer = &Tracer;

  ASSERT_TRUE(M.run()) << M.Error;
  Tracer.finish(true, "");

  ASSERT_GT(Tracer.eventCount(), Cap) << "workload too small to wrap";
  uint64_t Dropped = Tracer.eventsDropped();
  EXPECT_EQ(Dropped, Tracer.eventCount() - Cap);

  // --stats-json surface.
  std::string Fields = Tracer.summaryJsonFields();
  EXPECT_NE(Fields.find("\"events_dropped_from_ring\":" +
                        std::to_string(Dropped)),
            std::string::npos)
      << Fields;

  // The JSONL stream itself carries every event (records are written
  // live); the ring bounds only the tracer's retained in-memory view, so
  // the run record must advertise what its own percentiles cover.
  std::istringstream In(OS.str());
  obs::TraceReport Report;
  std::string Err;
  ASSERT_TRUE(obs::readTrace(In, Report, Err)) << Err;
  ASSERT_TRUE(Report.HasRun);
  EXPECT_EQ(Report.Events.size(), Tracer.eventCount());
  EXPECT_EQ(static_cast<uint64_t>(Report.Run.getInt("events_retained")),
            static_cast<uint64_t>(Cap));
  EXPECT_EQ(static_cast<uint64_t>(
                Report.Run.getInt("events_dropped_from_ring")),
            Dropped);
  EXPECT_EQ(static_cast<uint64_t>(Report.Run.getInt("events")),
            Tracer.eventCount());

  // mgc-report surfaces: a visible warning in the text report and the
  // counter in the JSON mirror.
  std::string Rendered = obs::renderReport(Report, /*TopN=*/5);
  EXPECT_NE(Rendered.find("WARNING"), std::string::npos) << Rendered;
  EXPECT_NE(Rendered.find("dropped from the ring buffer"),
            std::string::npos);
  std::string Json = obs::renderReportJson(Report, /*TopN=*/5);
  EXPECT_NE(Json.find("\"events_dropped_from_ring\":" +
                      std::to_string(Dropped)),
            std::string::npos)
      << Json;
}

TEST(ObsRingWrap, NoDropsWhenRingCovers) {
  // Control: a ring larger than the event count reports zero drops and
  // no warning banner.
  TracedRun R = runTraced(programs::DestroySource, /*Opt=*/2, /*Gen=*/false,
                          /*HeapBytes=*/64u << 10);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_LE(R.Events, 1024u) << "default ring no longer covers this run";
  std::istringstream In(R.Trace);
  obs::TraceReport Report;
  std::string Err;
  ASSERT_TRUE(obs::readTrace(In, Report, Err)) << Err;
  ASSERT_TRUE(Report.HasRun);
  EXPECT_EQ(Report.Run.getInt("events_dropped_from_ring"), 0);
  std::string Rendered = obs::renderReport(Report, 5);
  EXPECT_EQ(Rendered.find("dropped from the ring"), std::string::npos);
  EXPECT_EQ(Rendered.find("WARNING"), std::string::npos) << Rendered;
}

TEST(ObsBufferDrops, SurvivalAndRequestDropsSurfacedInReport) {
  // The survival buffer and the request-sample buffer are bounded too:
  // with tiny capacities both drop, and the run record, mgc-report's text
  // header and its JSON must all carry the exact counts.
  const char *Source = R"(
MODULE M;
TYPE N = REF RECORD v: INTEGER; next: N END;
VAR head, p: N; i, k: INTEGER;
BEGIN
  FOR i := 1 TO 40 DO
    head := NIL;
    FOR k := 1 TO 32 DO p := NEW(N); p^.next := head; head := p END;
    ReqDone()
  END;
  PutInt(1); PutLn();
END M.)";
  auto C = driver::compile(Source, {});
  ASSERT_TRUE(C.Prog != nullptr) << C.Diags.str();
  vm::VMOptions VO;
  VO.HeapBytes = 8u << 10;
  vm::VM M(*C.Prog, VO);
  gc::installPreciseCollector(M, {});

  obs::TracerConfig TC;
  TC.Sites = &C.Prog->SiteTab;
  for (const auto &F : C.Prog->Funcs)
    TC.FuncNames.push_back(F.Name);
  TC.ProgramName = "bufdrops";
  TC.PendingCapacity = 4;
  TC.RequestCapacity = 5;
  obs::Tracer Tracer(std::move(TC));
  std::ostringstream OS;
  Tracer.enable(&OS);
  M.Tracer = &Tracer;
  ASSERT_TRUE(M.run()) << M.Error;
  Tracer.finish(true, "");

  ASSERT_GT(M.Stats.Collections, 0u);
  uint64_t Pending = Tracer.droppedPending();
  uint64_t Requests = Tracer.droppedRequests();
  EXPECT_GT(Pending, 0u);
  EXPECT_EQ(Requests, 40u - 5u);

  std::istringstream In(OS.str());
  obs::TraceReport Report;
  std::string Err;
  ASSERT_TRUE(obs::readTrace(In, Report, Err)) << Err;
  ASSERT_TRUE(Report.HasRun);
  EXPECT_EQ(static_cast<uint64_t>(Report.Run.getInt("pending_dropped")),
            Pending);
  EXPECT_EQ(static_cast<uint64_t>(Report.Run.getInt("requests_dropped")),
            Requests);

  std::string Rendered = obs::renderReport(Report, /*TopN=*/5);
  EXPECT_NE(Rendered.find("WARNING: " + std::to_string(Pending) +
                          " allocations dropped from the survival buffer"),
            std::string::npos)
      << Rendered;
  EXPECT_NE(Rendered.find("WARNING: 35 request samples dropped from the "
                          "sample buffer; the run record's req_instr "
                          "percentiles cover only the first 5 requests"),
            std::string::npos)
      << Rendered;
  std::string Json = obs::renderReportJson(Report, /*TopN=*/5);
  EXPECT_NE(Json.find("\"pending_dropped\":" + std::to_string(Pending)),
            std::string::npos)
      << Json;
  EXPECT_NE(Json.find("\"requests_dropped\":35"), std::string::npos)
      << Json;

}

//===----------------------------------------------------------------------===//
// Error-path flush
//===----------------------------------------------------------------------===//

TEST(ObsErrorPath, FailedRunStillFlushesTrace) {
  // Unbounded list growth: the run dies with "heap exhausted" after
  // several successful collections.
  const char *Source = R"(MODULE Leak;
TYPE Node = REF RECORD next: Node; pad: INTEGER END;
VAR head: Node; n: Node;
BEGIN
  WHILE TRUE DO
    n := NEW(Node);
    n.next := head;
    head := n
  END;
END Leak.
)";
  for (bool Gen : {false, true}) {
    SCOPED_TRACE(Gen ? "gen" : "two-space");
    TracedRun R = runTraced(Source, /*Opt=*/2, Gen, /*HeapBytes=*/8u << 10,
                            /*NurseryBytes=*/1u << 10);
    ASSERT_FALSE(R.Ok);
    EXPECT_NE(R.Error.find("heap exhausted"), std::string::npos) << R.Error;
    EXPECT_GT(R.Stats.Collections, 0u);

    // The partial trace must still parse completely and carry the error.
    std::istringstream In(R.Trace);
    obs::TraceReport Report;
    std::string Err;
    ASSERT_TRUE(obs::readTrace(In, Report, Err)) << Err;
    ASSERT_TRUE(Report.HasRun);
    EXPECT_FALSE(Report.RunOk);
    EXPECT_NE(Report.RunError.find("heap exhausted"), std::string::npos);
    EXPECT_EQ(Report.Events.size(), R.Stats.Collections);

    // And the renderer must cope with a failed run (banner, no crash).
    std::string Rendered = obs::renderReport(Report, /*TopN=*/5);
    EXPECT_NE(Rendered.find("FAILED"), std::string::npos);
  }
}

//===----------------------------------------------------------------------===//
// Survival accounting
//===----------------------------------------------------------------------===//

TEST(ObsSurvival, RetainedVsDroppedSites) {
  // Site A's objects are all retained; site B's are garbage by the next
  // collection.  An explicit collection resolves survival for everything
  // allocated so far.
  const char *Source = R"(MODULE Survive;
TYPE Node = REF RECORD v: INTEGER END;
     Vec = REF ARRAY OF Node;
VAR keep: Vec; tmp: Node;
BEGIN
  keep := NEW(Vec, 32);
  FOR i := 0 TO 31 DO
    keep[i] := NEW(Node)
  END;
  FOR i := 1 TO 32 DO
    tmp := NEW(Node);
    tmp.v := i
  END;
  tmp := NIL;
  GcCollect();
  PutInt(NUMBER(keep)); PutLn();
END Survive.
)";
  const uint32_t KeptLine = lineOf(Source, "keep[i] := NEW(Node)");
  const uint32_t TmpLine = lineOf(Source, "tmp := NEW(Node)");
  TracedRun R = runTraced(Source, /*Opt=*/2, /*Gen=*/false,
                          /*HeapBytes=*/64u << 10);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_GE(R.Stats.Collections, 1u);
  bool SawKept = false, SawTmp = false;
  for (size_t I = 0; I != R.SiteTab.Sites.size(); ++I) {
    if (R.SiteTab.Sites[I].Line == KeptLine) {
      SawKept = true;
      EXPECT_EQ(R.Counters[I].Count, 32u);
      EXPECT_EQ(R.Counters[I].Survived, 32u);
    } else if (R.SiteTab.Sites[I].Line == TmpLine) {
      SawTmp = true;
      EXPECT_EQ(R.Counters[I].Count, 32u);
      // The last tmp Node may be held live by a stale stack slot, but the
      // 31 replaced ones are unreachable garbage.
      EXPECT_LE(R.Counters[I].Survived, 1u);
    }
  }
  EXPECT_TRUE(SawKept);
  EXPECT_TRUE(SawTmp);
}

//===----------------------------------------------------------------------===//
// Deterministic site-table ordering
//===----------------------------------------------------------------------===//

TEST(ObsReportOrdering, TiedSitesRenderInIdOrder) {
  // Sites with identical byte totals must render in site-id order — the
  // report's tables stable-sort with an id tiebreak, so the output is a
  // pure function of the trace regardless of sort implementation.
  obs::TraceReport R;
  R.Program = "ties";
  for (uint32_t Id = 0; Id != 4; ++Id) {
    obs::TraceReport::Site S;
    S.Id = Id;
    S.Func = "f" + std::to_string(Id);
    S.Line = Id + 1;
    S.Count = 10;
    S.Bytes = 4096;          // all tied
    S.Survived = 5;
    S.SurvivedBytes = 2048;  // all tied
    R.Sites.push_back(S);
  }
  R.HasRun = true;
  R.RunOk = true;

  std::string Rendered = obs::renderReport(R, /*TopN=*/4);
  size_t P0 = Rendered.find("f0:");
  size_t P1 = Rendered.find("f1:");
  size_t P2 = Rendered.find("f2:");
  size_t P3 = Rendered.find("f3:");
  ASSERT_NE(P0, std::string::npos);
  ASSERT_NE(P1, std::string::npos);
  ASSERT_NE(P2, std::string::npos);
  ASSERT_NE(P3, std::string::npos);
  EXPECT_LT(P0, P1);
  EXPECT_LT(P1, P2);
  EXPECT_LT(P2, P3);

  // The JSON mirror uses the same ordering.
  std::string Json = obs::renderReportJson(R, /*TopN=*/4);
  size_t J0 = Json.find("\"f0:");
  size_t J1 = Json.find("\"f1:");
  ASSERT_NE(J0, std::string::npos);
  ASSERT_NE(J1, std::string::npos);
  EXPECT_LT(J0, J1);
}

} // namespace
