//===- obs/Trace.h - GC event tracing and allocation profiling --*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime observability subsystem: a preallocated ring-buffer event
/// tracer the VM and collector feed, plus per-allocation-site counters
/// keyed by the compiler-emitted site table (gcmaps/SiteTable.h).
///
/// Design constraints:
///
///  - The tracer is always compiled in; when disabled it must cost the
///    mutator a single predicted branch per allocation (the overhead gate
///    in bench/trace_overhead.cpp enforces <1% attached-disabled, <3%
///    enabled on bench/gengc).
///  - The enabled allocation hot path allocates nothing: site counters are
///    a flat preallocated vector indexed by site id, and first-collection
///    survival tracking appends to a preallocated vector of (address,
///    site, bytes) records — bump allocation makes addresses unique
///    between collections, so no hashing is needed.  On overflow records
///    are dropped and counted, never silently.
///  - Collections are rare relative to allocations, so event commit (ring
///    store + optional JSONL stream write) may format text.
///
/// Event lifecycle: the VM begins an event after the rendezvous completes
/// (so committed events correspond 1:1 with VMStats::Collections), the
/// collector fills in the per-phase breakdown and sweeps survivors before
/// the heap swaps spaces, and the VM commits the event with before/after
/// stat deltas once the collector returns.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_OBS_TRACE_H
#define MGC_OBS_TRACE_H

#include "gcmaps/SiteTable.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace mgc {
namespace vm {
class Heap;
} // namespace vm
namespace obs {

/// Sentinel site id: no attribution (collections triggered by an explicit
/// GcCollect call, or allocation instructions that predate site linking).
constexpr uint32_t NoSite = 0xFFFFFFFFu;

/// Upper bound on --gc-threads: sizes the fixed per-worker nano arrays in
/// GcEvent so the event stays POD and the ring stays preallocated.
constexpr unsigned MaxGcWorkers = 8;

/// Per-phase nanosecond breakdown of one collection, in pipeline order.
struct PhaseNanos {
  uint64_t Rendezvous = 0;    ///< §5.3 thread rendezvous (VM side).
  uint64_t StackTrace = 0;    ///< Table locate + decode + root gathering.
  uint64_t Underive = 0;      ///< §3 phase 1: subtract base values.
  uint64_t Copy = 0;          ///< Cheney evacuation and scan.
  uint64_t RemsetRebuild = 0; ///< Minor only: surviving-entry sweep + swap.
  uint64_t Rederive = 0;      ///< §3 phase 2: re-add new base values.
};

/// One collection, as recorded in the ring / JSONL stream.
struct GcEvent {
  uint64_t Seq = 0;   ///< 1-based; equals VMStats::Collections at commit.
  bool Minor = false; ///< Minor (nursery-only) vs full collection.
  /// Allocation site whose NEW triggered this collection (NoSite for
  /// explicit GcCollect requests).
  uint32_t TriggerSite = NoSite;
  PhaseNanos Phases;
  uint64_t TotalNanos = 0; ///< Rendezvous + collector time.
  uint64_t HeapBeforeBytes = 0;
  uint64_t HeapAfterBytes = 0;
  // Deltas over this collection.
  uint64_t FramesTraced = 0;
  uint64_t RootsTraced = 0;
  uint64_t ObjectsCopied = 0;
  uint64_t BytesCopied = 0;
  uint64_t ObjectsPromoted = 0;
  uint64_t BytesPromoted = 0;
  uint64_t DerivedAdjusted = 0;
  uint64_t RendezvousSteps = 0;
  uint64_t CacheHits = 0;   ///< Decoded-point cache hits this collection.
  uint64_t CacheMisses = 0; ///< Decoded-point cache misses this collection.
  /// GC worker threads that performed this collection (1 = serial).  The
  /// per-worker arrays below are valid for indices [0, Workers).
  uint32_t Workers = 1;
  /// Per-worker stack-walk (root gathering) nanos.  For the serial
  /// collector worker 0 carries the whole StackTrace phase.
  uint64_t WorkerTraceNanos[MaxGcWorkers] = {};
  /// Per-worker evacuation (forward + scan, including idle) nanos.
  /// For the serial collector worker 0 carries the whole Copy phase.
  uint64_t WorkerCopyNanos[MaxGcWorkers] = {};
  /// Parallel full collections: to-space chunks each worker claimed for
  /// its private copy buffer (0 for serial and minor collections).
  uint64_t WorkerRefills[MaxGcWorkers] = {};
  /// Filler bytes the copy buffers left in to-space (Heap::CopyWasteBytes
  /// delta; 0 for serial and minor collections).
  uint64_t CopyWasteBytes = 0;
};

/// Cumulative counters for one allocation site.
struct SiteCounters {
  uint64_t Count = 0;         ///< Allocations attributed to the site.
  uint64_t Bytes = 0;         ///< Bytes allocated (header included).
  uint64_t Survived = 0;      ///< Allocations that survived their first gc.
  uint64_t SurvivedBytes = 0;
};

/// One (objects, bytes) aggregate of the heap's per-object attribution —
/// per site for liveBySite(), per age for ageHistogram().  The attribution
/// itself lives in each object's header (vm/Heap.h: site id and
/// evacuation-count age ride the header through every copy), so there is
/// no side table to maintain; these aggregates are computed by walking the
/// heap on demand.
struct LiveAgg {
  uint64_t Objects = 0;
  uint64_t Bytes = 0;
};

/// Online growth-detector configuration (leak triage).  When enabled the
/// collector calls Tracer::sampleCollection at the tail of every pause;
/// the detector keeps a sliding window of per-site live-bytes samples
/// (full collections only — minor collections never reclaim old space, so
/// per-site "live" ramps monotonically between fulls and would flag every
/// site) and flags sites whose window shows sustained growth.  All state
/// is preallocated in the tracer constructor; sampling allocates nothing.
struct LeakConfig {
  bool Enabled = false;
  /// Sliding window length in full-collection samples.  A leaking site is
  /// flagged once its window fills with non-decreasing, net-growing
  /// samples, so Window is also K: the detection-latency bound in full
  /// collections.
  uint32_t Window = 8;
  /// Minimum live bytes at the newest sample before a site can be
  /// flagged; filters sites too small to matter.
  uint64_t MinBytes = 4096;
};

/// Static configuration captured when the tracer is attached to a VM.
struct TracerConfig {
  /// The program's allocation-site table; may be null (counters off).
  const gcmaps::SiteTable *Sites = nullptr;
  /// Function names, indexed by AllocSite::Func (for JSONL site records).
  std::vector<std::string> FuncNames;
  std::string ProgramName;
  /// Active dispatch tier name ("threaded"/"switch"); empty = unreported.
  /// Self-describes benchmark artifacts; tiers are observably identical.
  std::string Dispatch;
  bool GenGc = false;
  size_t SiteTableBytes = 0;
  /// RNG seed of the run (0 when the program takes none); stamped into the
  /// meta record alongside tool version and build flags so artifacts are
  /// self-describing and reproducible.
  uint64_t Seed = 0;
  size_t RingCapacity = 1024;
  /// Capacity of the first-collection survival buffer: allocations between
  /// consecutive collections beyond this are dropped (and counted).
  size_t PendingCapacity = 1u << 15;
  /// Capacity of the per-request service-demand sample buffer (ReqDone
  /// markers); samples beyond it are dropped (and counted), the running
  /// aggregates keep counting.
  size_t RequestCapacity = 1u << 18;
  /// Report per-object attribution: emit the live-by-site and age-histogram
  /// trailer records at finish() and the live_*_by_site fields in
  /// --stats-json.  The attribution data itself is header-borne (vm/Heap.h)
  /// and always present; this flag only adds the O(live objects) heap walk
  /// at reporting time.  Collection-time maintenance is the header age
  /// bump inside the existing copy — bench/snapshot_overhead gates the
  /// flag's collection-time delta ≤2% (measured ≈0).
  bool Attribution = false;
  /// Online leak detection (see LeakConfig).  bench/leak gates the cost:
  /// ≤1% with the detector off, ≤3% with it on.
  LeakConfig Leak;
};

class Tracer {
public:
  explicit Tracer(TracerConfig Config);

  //===--- Control ---------------------------------------------------------===

  /// Enables recording.  \p Stream, when non-null, receives the JSONL
  /// trace: meta + site records immediately, one gc record per committed
  /// event, and site_stats + run records at finish().  The stream must
  /// outlive the tracer or a finish() call.
  void enable(std::ostream *Stream);
  bool enabled() const { return Enabled; }

  /// Writes the trailing site_stats and run records (idempotent; no-op
  /// without a stream).  Call after the VM run ends — including on error
  /// paths, where \p Error carries the VM's message: a mid-collection
  /// failure must still flush the partial trace.  \p H, when non-null and
  /// Config.Attribution is set, supplies the heap walked for the site_live
  /// and age_hist trailer records.
  void finish(bool Ok, const std::string &Error,
              const vm::Heap *H = nullptr);

  //===--- Mutator hot path ------------------------------------------------===

  /// Records one allocation.  \p Movable is false for allocations the next
  /// collection will not move (direct-to-old in generational mode); those
  /// never enter the first-collection survival sweep.
  void recordAlloc(uint32_t Site, uint64_t Addr, uint64_t Bytes,
                   bool Movable) {
    if (!Enabled)
      return;
    bool Counted = Site < Counters.size();
    if (Counted) {
      ++Counters[Site].Count;
      Counters[Site].Bytes += Bytes;
    } else {
      // Unattributed allocations (no site table, or instructions predating
      // site linking) skip the per-site counters; snapshots still see them
      // via the NoSite id carried in the object header.
      ++UnattributedCount;
      UnattributedBytes += Bytes;
    }
    if (Counted && Movable) {
      if (Pending.size() < Config.PendingCapacity)
        Pending.push_back({Addr, Site, Bytes});
      else
        ++DroppedPending;
    }
  }

  /// Records one completed request (a ReqDone marker): \p Instrs is the
  /// virtual-time service demand (instructions retired since the previous
  /// marker), \p GcNanos and \p Collections the collection work the VM
  /// attributed to that window.  Request granularity is coarse relative to
  /// allocation, so this may append to the (preallocated) sample buffer
  /// and write a JSONL record.
  void recordRequest(uint64_t Seq, uint64_t Instrs, uint64_t GcNanos,
                     uint64_t Collections);

  //===--- Collection lifecycle (VM / collector) ---------------------------===

  /// Begins event \p Seq.  Returns the event for the collector to fill;
  /// valid until commitEvent().
  GcEvent &beginEvent(uint64_t Seq, bool Minor, uint32_t TriggerSite);

  /// The in-flight event, or null when none (tracer disabled, or no
  /// collection running).  The collector writes phase timings through this.
  GcEvent *current() { return CurActive ? &Cur : nullptr; }

  /// Resolves first-collection survival: called by the collector after the
  /// evacuation completes but *before* the heap swaps spaces, while
  /// from-space headers are still readable.  An object survived iff its
  /// header carries the forwarding tag (bit 0 — vm/Heap.h's ForwardBit;
  /// Collector.cpp static_asserts the correspondence).  Per-object
  /// site/age attribution needs no sweep at all: it rides in the header
  /// through the copy itself.
  void sweepSurvivors(const vm::Heap &H, bool Minor);

  /// Commits the in-flight event: ring store, pause bookkeeping, and JSONL
  /// stream write.
  void commitEvent();

  /// Leak-detector hook: called by the collector at the tail of every
  /// pause (workers joined, single-threaded).  Minor collections only
  /// count a scan; full collections merge the per-worker in-copy
  /// accumulators (leakAccumulator) into one live-bytes sample per site,
  /// push it into the sliding window, and re-evaluate the flags — the
  /// post-collection live set is exactly what the collection copied, so
  /// no separate heap walk is needed.  \p Collections is
  /// VMStats::Collections at the sample (recorded as the flag time).
  /// No-op unless the tracer is enabled and Config.Leak.Enabled is set.
  void sampleCollection(uint64_t Collections, bool Minor);

  /// Per-worker slab for the in-copy leak sampling: during a FULL
  /// collection the collector adds each object's bytes to slot [site id]
  /// of the copying worker's slab as it evacuates the object, and
  /// sampleCollection merges + zeroes the slabs after the workers join.
  /// Returns null (the collector skips the add) unless the tracer is
  /// enabled with the detector configured.  Minor collections must not
  /// accumulate: only the full-collection copy loops wire these in.
  uint64_t *leakAccumulator(unsigned Worker) {
    if (!Enabled || LeakScratch.empty() || Worker >= MaxGcWorkers)
      return nullptr;
    return &LeakWorkerAcc[size_t(Worker) * LeakScratch.size()];
  }
  /// Slots per leakAccumulator slab; site ids at or past this bound are
  /// unattributed and must not be added.
  size_t leakSiteCount() const { return LeakScratch.size(); }

  //===--- Results ---------------------------------------------------------===

  const TracerConfig &config() const { return Config; }
  const std::vector<SiteCounters> &siteCounters() const { return Counters; }
  uint64_t unattributedCount() const { return UnattributedCount; }
  uint64_t unattributedBytes() const { return UnattributedBytes; }
  uint64_t droppedPending() const { return DroppedPending; }

  /// Committed events, oldest first (at most RingCapacity retained; the
  /// stream, when attached, saw every event).
  uint64_t eventCount() const { return TotalEvents; }
  /// The most recently committed event, or null when none yet.  Valid until
  /// the next commitEvent() overwrites its ring slot; pause harnesses (e.g.
  /// bench/pause) read TotalNanos out of it from the VM's PostGcHook.
  const GcEvent *lastCommitted() const {
    return TotalEvents ? &Ring[(TotalEvents - 1) % Ring.size()] : nullptr;
  }
  uint64_t eventsDropped() const {
    return TotalEvents > Ring.size() ? TotalEvents - Ring.size() : 0;
  }
  std::vector<GcEvent> retainedEvents() const;

  struct Percentiles {
    uint64_t P50 = 0, P95 = 0, P99 = 0, Max = 0;
    uint64_t Count = 0;
  };
  /// Pause percentiles over every committed event (not just the retained
  /// ring).  Kind: 0 = all, 1 = minor only, 2 = full only.
  Percentiles pausePercentiles(int Kind = 0) const;

  //===--- Request aggregation (server workloads) --------------------------===

  uint64_t requestCount() const { return ReqCount; }
  /// Sum of per-request GC attribution: equals the sum of TotalNanos over
  /// the events inside completed request windows (the tail after the last
  /// marker is unattributed).
  uint64_t requestGcNanos() const { return ReqGcNanosTotal; }
  uint64_t requestCollections() const { return ReqCollectionsTotal; }
  uint64_t droppedRequests() const { return DroppedRequests; }
  /// Per-request service demand in instructions, in completion order (at
  /// most Config.RequestCapacity retained).
  const std::vector<uint64_t> &requestInstrSamples() const {
    return ReqInstrs;
  }
  /// Service-demand percentiles (instructions) over the retained samples.
  Percentiles requestPercentiles() const;

  /// The aggregate counters as one JSON object body (no surrounding
  /// braces), for embedding in --stats-json.
  std::string summaryJsonFields() const;

  //===--- Leak detection results ------------------------------------------===

  /// One suspected-leak site: its window filled with non-decreasing,
  /// net-growing live-bytes samples while the newest sample was at least
  /// Config.Leak.MinBytes.
  struct LeakFlag {
    uint32_t Site = 0;
    /// Integer least-squares slope of the window, in bytes per full
    /// collection (positive by construction for a flagged site).
    int64_t SlopeBytes = 0;
    uint64_t LiveBytes = 0;     ///< Live bytes at the newest sample.
    uint64_t FirstFlagged = 0;  ///< VMStats::Collections at the first flag.
  };
  /// Currently flagged sites, sorted by (slope desc, site id asc): the
  /// inputs are per-site integer sums accumulated as objects are copied —
  /// sums are order- and partition-independent, so the result is
  /// byte-identical across --gc-threads and dispatch tiers.
  std::vector<LeakFlag> leakFlags() const;
  uint64_t leakScans() const { return LeakScans; }
  uint64_t leakSamples() const { return LeakSampleCount; }
  /// The detector state as JSON object fields ("leak_window":N,
  /// "leak_flags":[{...},...]) for --stats-json.  NOT part of
  /// summaryJsonFields: the flag list is nested, which the strict flat
  /// JSONL re-parser must never see in a run record (each flag instead
  /// gets its own flat "leak" record at finish()).
  std::string leakJsonFields() const;

  //===--- Live attribution aggregates (header-borne; heap walks) ----------===

  /// (objects, bytes) per site id over a walk of \p H's allocated regions,
  /// reading each object's header-borne site; NoSiteHdr objects (and site
  /// ids past the linked table) aggregate into \p NoSiteAgg.  "Live" means:
  /// allocated and not yet reclaimed by a collection that covered the
  /// object's space — old-space objects dead since the last *full*
  /// collection are still counted (snapshots are exact, this is not).
  /// Must not be called mid-collection.
  std::vector<LiveAgg> liveBySite(const vm::Heap &H,
                                  LiveAgg &NoSiteAgg) const;

  /// (objects, bytes) per header-borne evacuation-count age over the same
  /// walk; index = age, trailing empty buckets trimmed.
  std::vector<LiveAgg> ageHistogram(const vm::Heap &H) const;

  /// The liveBySite/ageHistogram aggregates as JSON object fields
  /// ("live_objects_by_site":{...},"live_bytes_by_site":{...},
  /// "live_age_hist":{...}), for --stats-json.  NOT part of
  /// summaryJsonFields: the values are nested objects, which the strict
  /// flat JSONL re-parser (obs/Report.h) must never see in a run record.
  std::string liveJsonFields(const vm::Heap &H) const;

private:
  void writeHeader();
  void writeEvent(const GcEvent &Ev);

  TracerConfig Config;
  bool Enabled = false;
  std::ostream *Stream = nullptr;
  bool Finished = false;

  std::vector<SiteCounters> Counters; ///< Indexed by site id.
  uint64_t UnattributedCount = 0;
  uint64_t UnattributedBytes = 0;

  struct PendingAlloc {
    uint64_t Addr;
    uint32_t Site;
    uint64_t Bytes;
  };
  std::vector<PendingAlloc> Pending; ///< Preallocated; cleared each sweep.
  uint64_t DroppedPending = 0;

  GcEvent Cur;
  bool CurActive = false;

  std::vector<GcEvent> Ring; ///< Preallocated; slot = (Seq-1) % capacity.
  uint64_t TotalEvents = 0;

  std::vector<uint64_t> PausesMinor; ///< TotalNanos of every minor event.
  std::vector<uint64_t> PausesFull;  ///< TotalNanos of every full event.

  std::vector<uint64_t> ReqInstrs; ///< Per-request service demand samples.
  uint64_t ReqCount = 0;
  uint64_t ReqGcNanosTotal = 0;
  uint64_t ReqCollectionsTotal = 0;
  uint64_t DroppedRequests = 0;

  // Leak detector (preallocated in the constructor when Config.Leak is
  // enabled and a site table exists; empty otherwise).
  std::vector<uint64_t> LeakRing;    ///< Site-major: [site * Window + slot].
  std::vector<uint64_t> LeakScratch; ///< Merged per-site bytes, one sample.
  /// MaxGcWorkers contiguous per-site slabs ([worker * NSites + site]) the
  /// collector's full-collection copy loops fill via leakAccumulator();
  /// consumed (merged + zeroed) by sampleCollection.
  std::vector<uint64_t> LeakWorkerAcc;
  std::vector<uint64_t> LeakFirst;   ///< Collections at first flag; 0 = never.
  uint64_t LeakSampleCount = 0;      ///< Full-collection samples taken.
  uint64_t LeakScans = 0;            ///< sampleCollection calls (any kind).
};

/// Appends one JSON string literal (quoted, escaped) to \p Out.
void appendJsonString(std::string &Out, const std::string &S);

} // namespace obs
} // namespace mgc

#endif // MGC_OBS_TRACE_H
