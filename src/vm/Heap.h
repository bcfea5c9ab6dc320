//===- vm/Heap.h - Two-space heap with type descriptors ---------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heap the collector compacts.  Objects carry a one-word header
/// holding their type descriptor index (Modula-3 requires descriptors in
/// heap objects — §2's requirement (i)/(ii)); during collection the header
/// is overlaid with a low-bit-tagged forwarding pointer.  Tidy pointers
/// point at the header.  Layout:
///
///     [header][payload words...]                 fixed-shape objects
///     [header][length][elements...]              open arrays
///
/// Header word: bit 0 is the forwarding tag; bits 1..16 hold the object's
/// age — the number of collections it has been evacuated through,
/// saturating, consulted both by the generational promotion policy and by
/// the heap-snapshot age attribution; bits 17..40 hold the descriptor
/// index; bits 41..63 hold the allocation-site id (gcmaps/SiteTable.h;
/// all-ones = unattributed).  Site and age ride the header through every
/// copy, so per-object attribution survives collections with no side
/// table and no cost beyond the copy itself (the ≤2%-of-collection-time
/// gate in bench/snapshot_overhead.cpp).
///
/// A *filler* is a header-only pseudo-object covering a hole in old space:
/// its descriptor field is the reserved index DescMask (never a valid
/// descriptor) and its site field holds its total word count.  Only the
/// parallel full collection leaves fillers, at the unused tails of its
/// per-worker copy buffers (forwardParallel); linear walks skip them
/// (forEachObject) and everything else rejects them (plausibleObject,
/// descOf).  The heap accounts the filler bytes as waste, so every limit
/// and occupancy figure is the same as under the serial collector.
///
/// The heap runs in one of two modes:
///
///  - Two-space (default): a classic pair of semispaces; every collection
///    is a full Cheney copy from from-space to to-space.
///  - Generational: a bump-allocated nursery (itself split in two halves
///    so minor collections can copy survivors within it) in front of the
///    two "old" semispaces.  Minor collections evacuate live nursery
///    objects into the other nursery half, promoting them into old space
///    once they have survived PromoteAge copies; a remembered set of
///    old-space slots that may hold young pointers (maintained by the
///    compiler-emitted write barriers) supplies the extra roots.  Full
///    collections fall back to the Cheney copy over nursery + old space
///    and clear the remembered set.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_VM_HEAP_H
#define MGC_VM_HEAP_H

#include "ir/IR.h"

#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_set>
#include <vector>

namespace mgc {
namespace vm {

using Word = uint64_t;

/// Heap-sizing policy (mgc --heap-growth / --heap-max / --nursery-auto).
/// Every decision is byte-count driven, so sizing is identical across
/// dispatch tiers and --gc-threads counts.
struct HeapPolicy {
  /// Occupancy percentage of the semispace at which a full collection
  /// doubles it (growth-only; capped by MaxBytes).  0 = fixed-size heap.
  unsigned GrowthPct = 0;
  /// Semispace growth cap.  0 = 8x the initial size when GrowthPct is
  /// set; ignored (pinned to the initial size) otherwise.
  size_t MaxBytes = 0;
  /// Generational mode: resize the nursery from minor-collection survivor
  /// volume, between the configured size (floor) and a quarter semispace.
  bool NurseryAuto = false;
};

class Heap {
public:
  /// Returned by allocationBytes when the size computation overflows.
  static constexpr size_t BadAlloc = std::numeric_limits<size_t>::max();

  /// Header encoding (shared with the collector's scan loop).
  static constexpr Word ForwardBit = 1;
  static constexpr unsigned AgeShift = 1;
  static constexpr Word AgeMask = 0xFFFF; ///< 16 bits: evacuation count.
  static constexpr unsigned DescShift = 17;
  static constexpr Word DescMask = 0xFFFFFF; ///< 24 bits: descriptor index.
  static constexpr unsigned SiteShift = 41;
  static constexpr Word SiteMask = 0x7FFFFF; ///< 23 bits: allocation site.
  /// The site field's all-ones pattern: no attribution (no site table, or
  /// an allocation instruction predating site linking).  The obs layer's
  /// obs::NoSite (32-bit all-ones) maps to this on the way in and back out.
  static constexpr uint32_t NoSiteHdr = static_cast<uint32_t>(SiteMask);
  /// Survivals of a minor collection before promotion to old space.
  static constexpr unsigned PromoteAge = 2;
  /// Parallel full collection: the to-space chunk each worker claims for
  /// its private copy buffer, and the object size from which copies skip
  /// the buffer and take an exact-fit bump of the shared to-space pointer.
  static constexpr size_t CopyChunkBytes = 8192;
  static constexpr size_t CopyChunkMaxObject = 512;

  static size_t headerDesc(Word H) {
    return static_cast<size_t>((H >> DescShift) & DescMask);
  }
  static unsigned headerAge(Word H) {
    return static_cast<unsigned>((H >> AgeShift) & AgeMask);
  }
  static uint32_t headerSite(Word H) {
    return static_cast<uint32_t>((H >> SiteShift) & SiteMask);
  }
  static Word makeHeader(size_t DescIdx, unsigned Age,
                         uint32_t Site = NoSiteHdr) {
    return (static_cast<Word>(Site) << SiteShift) |
           (static_cast<Word>(DescIdx) << DescShift) |
           (static_cast<Word>(Age) << AgeShift);
  }
  /// \p H with its age bumped by one evacuation (saturating): the whole of
  /// attribution maintenance during a collection.
  static Word agedHeader(Word H) {
    return headerAge(H) == AgeMask ? H : H + (Word(1) << AgeShift);
  }
  /// Filler headers (see the file comment).  Age and forwarding bits are
  /// zero; a filler is at least its one header word.
  static Word fillerHeader(size_t Words) {
    return makeHeader(DescMask, 0, static_cast<uint32_t>(Words));
  }
  static bool isFiller(Word H) { return headerDesc(H) == DescMask; }
  static size_t fillerWords(Word H) { return headerSite(H); }
  /// Narrows a 32-bit site id (e.g. codegen's NoAllocSite) to the header
  /// field: anything that does not fit reads as unattributed.
  static uint32_t clampSite(uint32_t Site) {
    return Site >= NoSiteHdr ? NoSiteHdr : Site;
  }

  /// \p NurseryBytes is the size of *each* nursery half; 0 selects a
  /// default proportional to the semispace size.  Ignored unless
  /// \p Generational.  Under \p P.NurseryAuto the resolved value becomes
  /// the auto-sizing floor.
  Heap(size_t SemispaceBytes, const std::vector<ir::TypeDesc> &Descs,
       bool Generational = false, size_t NurseryBytes = 0,
       HeapPolicy P = HeapPolicy());

  bool generational() const { return Gen; }
  const HeapPolicy &policy() const { return Policy; }

  /// Exact bytes an allocation of descriptor \p DescIdx (\p Length
  /// elements for open arrays) needs, header included, or BadAlloc when
  /// the computation overflows size_t.
  size_t allocationBytes(unsigned DescIdx, int64_t Length) const;

  /// Largest single object this heap can ever hold; requests above it can
  /// never succeed, no matter how much is collected *or how much the heap
  /// grows* — under a growth policy the bound is the cap, so the oversize
  /// diagnostic stays deterministic under every policy.
  size_t maxObjectBytes() const {
    size_t Cap = Policy.GrowthPct ? Policy.MaxBytes : SpaceBytes;
    if (!Gen)
      return Cap;
    // The old-space reserve at full growth: the fixed half size, or the
    // auto-sizing cap relative to the capped semispace.
    size_t Reserve = Policy.NurseryAuto ? nurseryAutoCapBytes(Cap)
                                        : nurseryReserveBytes();
    return Cap - Reserve;
  }

  /// Arms one demand doubling for the next full collection (the VM's
  /// allocation-retry escalation).  False when the policy forbids growth
  /// or the semispace is already at its cap.
  bool requestGrowth() {
    if (!Policy.GrowthPct || SpaceBytes >= Policy.MaxBytes)
      return false;
    GrowRequested = true;
    return true;
  }

  /// Bump-allocates an object of descriptor \p DescIdx (\p Length elements
  /// for open arrays).  Returns 0 when the allocation space (nursery in
  /// generational mode, from-space otherwise) is exhausted or the size
  /// computation overflows — the caller must collect and retry.  Payload
  /// words are zeroed (all-NIL).  \p Site is stamped into the header (the
  /// snapshot/profiling attribution; NoSiteHdr = unattributed).
  Word allocate(unsigned DescIdx, int64_t Length, uint32_t Site = NoSiteHdr);

  /// Generational mode: allocates directly in old space (objects too large
  /// for the nursery).  Returns 0 when old space is exhausted.
  Word allocateOld(unsigned DescIdx, int64_t Length,
                   uint32_t Site = NoSiteHdr);

  /// Total words of an object, header included.
  size_t objectWords(Word Obj) const;

  const ir::TypeDesc &descOf(Word Obj) const;

  /// Any space new objects or survivors currently live in (old from-space
  /// and, in generational mode, the active nursery half).  The semispace
  /// ranges are whole buffers, copy slack included: the filler waste of
  /// the last parallel collection shifts live data up into the slack.
  bool inFromSpace(Word P) const {
    return (P >= FromBase && P < FromBase + FromBufBytes) ||
           (Gen && inNursery(P));
  }
  bool inToSpace(Word P) const {
    return P >= ToBase && P < ToBase + ToBufBytes;
  }

  //===--- Generational queries --------------------------------------------===

  /// The active (allocation) nursery half.
  bool inNursery(Word P) const {
    return Gen && P >= NurFromBase && P < NurFromBase + NurFromHalfBytes;
  }
  /// The survivor half filled during a minor collection.
  bool inNurseryTo(Word P) const {
    return Gen && P >= NurToBase && P < NurToBase + NurToHalfBytes;
  }
  /// The allocated portion of old space.
  bool inOld(Word P) const {
    return Gen && P >= FromBase && P < AllocPtr;
  }

  /// Space base addresses, for address→(space, offset) normalization in
  /// heap snapshots (offsets are deterministic across runs; addresses are
  /// not).
  Word fromSpaceBase() const { return FromBase; }
  Word nurseryBase() const { return NurFromBase; }

  /// Occupancy net of filler waste, so it is the same at every
  /// --gc-threads count.
  size_t usedBytes() const {
    size_t Used = oldUsedBytes();
    if (Gen)
      Used += NurAlloc - NurFromBase;
    return Used;
  }
  size_t capacityBytes() const { return SpaceBytes; }
  size_t nurseryCapacityBytes() const { return NurFromHalfBytes; }
  size_t nurseryUsedBytes() const { return Gen ? NurAlloc - NurFromBase : 0; }
  size_t oldUsedBytes() const { return AllocPtr - FromBase - FromWaste; }

  /// Semispace buffer sizes: the nominal capacity plus the copy slack
  /// (reserveCopySlack), which only a parallel collector reserves.
  size_t fromSpaceBufferBytes() const { return FromBufBytes; }
  size_t toSpaceBufferBytes() const { return ToBufBytes; }
  /// Filler bytes in old from-space, left by the last full collection.
  size_t fromSpaceWasteBytes() const { return FromWaste; }

  /// The old-space reserve: room for a full nursery of promotions.  With
  /// auto-sizing the halves can differ transiently; the reserve covers the
  /// larger one.
  size_t nurseryReserveBytes() const {
    return NurFromHalfBytes > NurToHalfBytes ? NurFromHalfBytes
                                             : NurToHalfBytes;
  }
  /// The largest half size nursery auto-sizing may reach over a semispace
  /// of \p Cap bytes (the floor when a quarter semispace is below it).
  size_t nurseryAutoCapBytes(size_t Cap) const {
    size_t Quarter = (Cap / 4) & ~size_t(7);
    return Quarter > NurFloorBytes ? Quarter : NurFloorBytes;
  }

  /// Whether a minor collection is guaranteed room both to promote every
  /// surviving nursery object into old space (worst case: all of them)
  /// and to fit them all in the survivor half.
  bool minorHeadroomOk() const {
    size_t NurUsed = NurAlloc - NurFromBase;
    return oldUsedBytes() + NurUsed <=
               SpaceBytes - nurseryReserveBytes() &&
           NurUsed <= NurToHalfBytes;
  }

  //===--- Write barrier / remembered set ----------------------------------===

  /// The compiler-emitted barrier: records \p SlotAddr in the remembered
  /// set when it is an old-space slot now holding a nursery pointer.
  /// Returns true when a new entry was recorded.
  bool writeBarrier(Word SlotAddr) {
    if (!inOld(SlotAddr))
      return false;
    Word V = *reinterpret_cast<const Word *>(SlotAddr);
    if (!inNursery(V))
      return false;
    return RemSet.insert(SlotAddr).second;
  }

  std::unordered_set<Word> &remSet() { return RemSet; }
  const std::unordered_set<Word> &remSet() const { return RemSet; }

  uint64_t ObjectsPromoted = 0;
  uint64_t BytesPromoted = 0;
  /// Semispace doublings performed (growth policy).
  uint64_t HeapGrowths = 0;
  /// Nursery half resizes performed (auto-sizing policy).
  uint64_t NurseryResizes = 0;
  /// Filler bytes left in to-space by parallel full collections, summed
  /// over the run (0 under the serial collector).
  uint64_t CopyWasteBytes = 0;

  //===--- Full-collection (Cheney) interface ------------------------------===

  /// Begins a full collection: resets the to-space allocation pointer,
  /// first growing the to-space when the sizing policy triggers (occupancy
  /// above GrowthPct, or an armed demand growth).
  void beginCollection();
  /// Copies \p Obj to to-space (or returns its forwarding pointer).  In
  /// generational mode the source may be either old from-space or the
  /// nursery; everything lands in old to-space.
  Word forward(Word Obj);
  /// A worker's private to-space copy buffer for forwardParallel: a chunk
  /// claimed from the shared to-space pointer, bump-allocated without
  /// atomics.
  struct CopyBuffer {
    Word Cur = 0, End = 0;
    uint64_t Refills = 0;    ///< Chunks claimed this collection.
    uint64_t WasteBytes = 0; ///< Filler bytes sealed this collection.
  };
  /// forward() for the parallel full collection (--gc-threads > 1), where
  /// each source object has exactly one owning worker and only the owner
  /// calls this for it, so the header needs no atomic claim.  Objects
  /// below CopyChunkMaxObject are copied into the owner's \p Buf, which
  /// claims a fresh CopyChunkBytes chunk of to-space (sealing the old
  /// one's tail with a filler) when the object does not fit; larger
  /// objects take an exact-fit atomic bump of the shared to-space pointer.
  /// Sets \p Copied iff this call performed the copy, and \p BytesOut to
  /// the object's size when it did (for per-worker stat accounting).
  Word forwardParallel(Word Obj, CopyBuffer &Buf, bool &Copied,
                       size_t &BytesOut);
  /// Seals the unused tail of \p Buf with a filler (adding it to the
  /// buffer's waste) so to-space stays linearly walkable.  Every worker
  /// retires its buffer once the parallel copy is quiescent.
  void retireCopyBuffer(CopyBuffer &Buf);
  /// Sizes every semispace buffer for a parallel collector of \p Workers
  /// workers: the filler waste of one collection is under 1/15 of the live
  /// bytes (a retired chunk wastes less than CopyChunkMaxObject of its
  /// CopyChunkBytes, i.e. under 1/16 of the chunk) plus the one partly
  /// used chunk each worker's buffer holds at the end.  A from-space that
  /// already holds objects grows at the next collection that finds it
  /// short.  Never called for the serial collector, whose buffers stay at
  /// the nominal semispace size.
  void reserveCopySlack(unsigned Workers);
  /// Cheney scan pointer management.
  Word scanStart() const { return ToBase; }
  Word toAlloc() const { return ToAlloc; }
  /// Ends a full collection: swaps the old spaces; generational mode also
  /// empties the nursery and clears the remembered set.  \p WasteBytes is
  /// the filler the copy left in to-space (the parallel copy buffers'
  /// tails); every limit and occupancy figure excludes it, so the mutator
  /// gets exactly the room the serial collector would leave it.
  void endCollection(size_t WasteBytes = 0);

  //===--- Minor-collection interface (generational mode) ------------------===

  /// Begins a minor collection: resets the survivor half's bump pointer
  /// and records where promoted objects will start in old space.
  void beginMinorCollection() {
    NurToAlloc = NurToBase;
    MinorOldScanStart = AllocPtr;
  }
  /// Copies nursery object \p Obj into the survivor half — or into old
  /// space once it has survived PromoteAge minor collections — and leaves
  /// a forwarding pointer.  Asserts headroom: callers must check
  /// minorHeadroomOk() before starting a minor collection.
  Word forwardYoung(Word Obj);
  /// Survivor-half scan pointers.
  Word nurScanStart() const { return NurToBase; }
  Word nurToAlloc() const { return NurToAlloc; }
  /// Promoted-region scan pointers (grows during the minor scan).
  Word oldScanStart() const { return MinorOldScanStart; }
  Word oldAllocPtr() const { return AllocPtr; }
  /// Ends a minor collection: swaps the nursery halves.
  void endMinorCollection();

  /// Whether \p P looks like a valid object pointer (used by assertions
  /// and the conservative baseline collector).
  bool plausibleObject(Word P) const;

  /// Number of allocation sites in the running program, for the header
  /// site-field plausibility check (a valid header's site is either
  /// NoSiteHdr or below this).  The VM sets it from the program's site
  /// table at construction.
  void setSiteCount(uint32_t N) { SiteCount = N; }

  /// Applies \p Fn to the tidy pointer of every allocated object, in
  /// address order: the old/from space first, then (generational mode) the
  /// active nursery half.  Callers own the liveness caveat: between
  /// collections these regions also hold objects that have died since the
  /// last collection swept their space.  Must not run mid-collection
  /// (headers would carry forwarding overlays).  Fillers are skipped.
  template <typename FnT> void forEachObject(FnT Fn) const {
    auto Walk = [&](Word P, Word End) {
      while (P < End) {
        Word H = *reinterpret_cast<const Word *>(P);
        if (isFiller(H)) {
          P += fillerWords(H) * sizeof(Word);
          continue;
        }
        Fn(P);
        P += objectWords(P) * sizeof(Word);
      }
    };
    Walk(FromBase, AllocPtr);
    if (Gen)
      Walk(NurFromBase, NurAlloc);
  }

  uint64_t BytesAllocated = 0;
  uint64_t ObjectsAllocated = 0;

private:
  Word bumpAllocate(Word &Bump, Word Limit, unsigned DescIdx, int64_t Length,
                    uint32_t Site);
  /// Copies \p Obj (header \p H, \p Bytes long) to \p New and leaves the
  /// forwarding pointer behind.
  Word evacuate(Word Obj, Word H, Word New, size_t Bytes);

  /// The copy slack a semispace of \p Space bytes reserves (0 unless
  /// reserveCopySlack armed a parallel collector).
  size_t copySlackBytes(size_t Space) const;
  /// Replaces the (idle) to-space with an empty buffer for a semispace of
  /// \p Space bytes plus its copy slack.
  void resetToSpace(size_t Space);
  /// Claims a fresh chunk for \p Buf after retiring its current one.
  void refillCopyBuffer(CopyBuffer &Buf);

  /// Auto-sizing controller: retargets the (empty) idle nursery half from
  /// the survivor volume of the minor collection that just ended.
  void resizeIdleNurseryHalf();

  size_t SpaceBytes;       ///< From-space size (grows under the policy).
  size_t ToSpaceBytes = 0; ///< To-space size (== SpaceBytes outside growth).
  /// Allocated buffer sizes: the nominal space plus copy slack.
  size_t FromBufBytes = 0, ToBufBytes = 0;
  /// Filler bytes inside old from-space's used region.
  size_t FromWaste = 0;
  /// Parallel-collector workers the copy slack is sized for (0 = serial).
  unsigned CopyWorkers = 0;
  HeapPolicy Policy;
  bool GrowRequested = false; ///< Demand growth armed (requestGrowth).
  uint32_t SiteCount = 0;
  bool Gen;
  size_t NurFromHalfBytes = 0; ///< Active nursery half size.
  size_t NurToHalfBytes = 0;   ///< Survivor nursery half size.
  size_t NurFloorBytes = 0;    ///< Auto-sizing floor (resolved ctor size).
  /// The semispace buffers, swapped with the bases at endCollection so the
  /// growth path can reallocate exactly the idle one.
  std::unique_ptr<uint8_t[]> FromSpace, ToSpace;
  std::unique_ptr<uint8_t[]> NurFromBuf, NurToBuf;
  Word FromBase, ToBase;
  Word AllocPtr; ///< Bump pointer in old from-space.
  /// Old-space allocation limit: in generational mode the last nursery's
  /// worth of old space is reserved so a full collection's to-space copy
  /// (old live + nursery live) always fits.
  Word OldLimit;
  Word NurFromBase = 0, NurToBase = 0;
  Word NurAlloc = 0;   ///< Bump pointer in the active nursery half.
  Word NurToAlloc = 0; ///< Bump pointer in the survivor half (minor gc).
  Word MinorOldScanStart = 0;
  /// Old-space slot addresses that may hold nursery pointers.  Slots are
  /// stable between full collections (old objects only move then), which
  /// is what makes raw addresses a sound representation.
  std::unordered_set<Word> RemSet;
  const std::vector<ir::TypeDesc> &Descs;
  /// Bump pointer in old to-space during collection.  Parallel copy
  /// buffers claim their chunks from it, so it sits alone on the class's
  /// last cache line: the fields above are read for every object copied.
  alignas(64) Word ToAlloc;
};

} // namespace vm
} // namespace mgc

#endif // MGC_VM_HEAP_H
